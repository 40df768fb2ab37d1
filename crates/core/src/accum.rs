//! Accumulators: the optional `accum` argument of every operation.
//!
//! Table II writes each operation as `C ⊙= ...`: when an accumulator
//! binary operator `⊙` is supplied, the operation's internal result **T**
//! is combined with the existing content of **C** to form
//! `Z(i,j) = C(i,j) ⊙ T(i,j)` on the pattern `ind(C) ∪ ind(T)`
//! (elements present in only one of the two pass through unchanged).
//! Without an accumulator (`GrB_NULL` in C), `Z = T` and old values of
//! **C** are not consulted (Figure 2's `accum` parameter).
//!
//! [`NoAccum`] and [`Accum`] fix the case at compile time: their
//! [`Accumulate::is_accum`] is a constant, so a kernel instantiated over
//! `NoAccum` compiles down to plain assignment. `Option<F>` decides it at
//! run time, as the C API's `GrB_NULL`-or-operator argument does: `None`
//! assigns and `Some(op)` accumulates, with one instantiation for both.

use crate::algebra::binary::BinaryOp;
use crate::error::Error;
use crate::scalar::Scalar;

/// The accumulation strategy for an operation's output.
pub trait Accumulate<T: Scalar>: Send + Sync + Clone + 'static {
    /// `true` when an accumulator operator is present (`Z` has pattern
    /// `ind(C) ∪ ind(T)`), `false` for assignment (`Z = T`).
    fn is_accum(&self) -> bool;

    /// Combine an existing output element with a computed element.
    /// Only called when [`is_accum`](Self::is_accum) is `true`.
    fn combine(&self, old: &T, new: &T) -> T;

    /// Out-of-band execution-error channel (see
    /// [`BinaryOp::poll_error`]).
    fn poll_error(&self) -> Option<Error> {
        None
    }
}

/// No accumulator (`accum = GrB_NULL`): plain assignment, `Z = T`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAccum;

impl<T: Scalar> Accumulate<T> for NoAccum {
    #[inline]
    fn is_accum(&self) -> bool {
        false
    }

    #[inline]
    fn combine(&self, _old: &T, new: &T) -> T {
        new.clone()
    }
}

/// Accumulate with the wrapped binary operator: `Z = C ⊙ T`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accum<F>(pub F);

impl<T: Scalar, F: BinaryOp<T, T, T>> Accumulate<T> for Accum<F> {
    #[inline]
    fn is_accum(&self) -> bool {
        true
    }

    #[inline]
    fn combine(&self, old: &T, new: &T) -> T {
        self.0.apply(old, new)
    }

    fn poll_error(&self) -> Option<Error> {
        self.0.poll_error()
    }
}

/// `GrB_NULL` (`None`) or an accumulator operator, chosen at run time.
impl<T: Scalar, F: BinaryOp<T, T, T>> Accumulate<T> for Option<F> {
    #[inline]
    fn is_accum(&self) -> bool {
        self.is_some()
    }

    #[inline]
    fn combine(&self, old: &T, new: &T) -> T {
        match self {
            Some(f) => f.apply(old, new),
            None => new.clone(),
        }
    }

    fn poll_error(&self) -> Option<Error> {
        self.as_ref().and_then(BinaryOp::poll_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::binary::{CheckedPlus, Plus};

    #[test]
    fn no_accum_assigns() {
        assert!(!Accumulate::<i32>::is_accum(&NoAccum));
        assert_eq!(Accumulate::<i32>::combine(&NoAccum, &5, &9), 9);
    }

    #[test]
    fn accum_combines() {
        let a = Accum(Plus::<i32>::new());
        assert!(Accumulate::<i32>::is_accum(&a));
        assert_eq!(a.combine(&5, &9), 14);
    }

    #[test]
    fn accum_propagates_checked_errors() {
        let a = Accum(CheckedPlus::<i8>::new());
        assert!(Accumulate::<i8>::poll_error(&a).is_none());
        a.combine(&120, &120);
        assert!(Accumulate::<i8>::poll_error(&a).is_some());
    }

    #[test]
    fn none_assigns() {
        let a: Option<Plus<i32>> = None;
        assert!(!Accumulate::<i32>::is_accum(&a));
        assert_eq!(a.combine(&5, &9), 9);
        assert!(Accumulate::<i32>::poll_error(&a).is_none());
    }

    #[test]
    fn some_combines() {
        let a = Some(Plus::<i32>::new());
        assert!(Accumulate::<i32>::is_accum(&a));
        assert_eq!(a.combine(&5, &9), 14);
    }

    #[test]
    fn some_propagates_checked_errors() {
        let a = Some(CheckedPlus::<i8>::new());
        assert!(Accumulate::<i8>::poll_error(&a).is_none());
        a.combine(&120, &120);
        assert!(Accumulate::<i8>::poll_error(&a).is_some());
    }
}
