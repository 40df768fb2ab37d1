//! GraphBLAS monoids (paper, Section III-B; Figure 1).
//!
//! A monoid `M = <D, ⊙, 0>` is a binary operator with a single domain, an
//! associative operation, and an identity element. The paper constructs
//! monoids from binary operators plus an identity (`GrB_Monoid_new`, used
//! at Fig. 3 lines 10, 49, 51); [`MonoidDef`] mirrors that constructor, and
//! the common monoids are predefined as zero-sized types.

use std::marker::PhantomData;

use crate::algebra::binary::{BinaryOp, LAnd, LOr, LXnor, LXor, Max, Min, Plus, Times};
use crate::scalar::{NumScalar, Scalar};

/// A GraphBLAS monoid: an associative binary operator `D × D → D` together
/// with its identity element.
///
/// Every monoid *is* a binary operator (supertrait), matching Figure 1's
/// class hierarchy where `Monoid` specializes the binary operator with a
/// single domain and an identity.
pub trait Monoid<T: Scalar>: BinaryOp<T, T, T> {
    /// The identity element **0** of the monoid (not necessarily the
    /// number zero: `-∞` for max-plus, `∞` for min-max, `false` for lor).
    fn identity(&self) -> T;

    /// Whether `v` is a **terminal** (absorbing) element: `v ⊙ x = v`
    /// for every `x`. Reduction kernels may stop folding once the
    /// accumulator turns terminal — the result cannot change, so the
    /// early exit is invisible to the bitwise-determinism contract.
    /// Runtime-registered monoids (`algebra::udf`) opt in, as do the
    /// Boolean `LOR` (`true`) and `LAND` (`false`) monoids; the others
    /// keep the `false` default.
    fn is_terminal(&self, _v: &T) -> bool {
        false
    }
}

/// A monoid built from a binary operator and an explicit identity element
/// (`GrB_Monoid_new`).
pub struct MonoidDef<T, F> {
    op: F,
    id: T,
}

impl<T: Clone, F: Clone> Clone for MonoidDef<T, F> {
    fn clone(&self) -> Self {
        MonoidDef {
            op: self.op.clone(),
            id: self.id.clone(),
        }
    }
}

impl<T: Scalar, F: BinaryOp<T, T, T>> MonoidDef<T, F> {
    /// `GrB_Monoid_new(&monoid, domain, op, identity)`.
    ///
    /// The C API cannot verify associativity or that `identity` is a true
    /// identity; neither can we. The contract is the caller's, exactly as
    /// in the specification.
    pub fn new(op: F, identity: T) -> Self {
        MonoidDef { op, id: identity }
    }
}

impl<T: Scalar, F: BinaryOp<T, T, T>> BinaryOp<T, T, T> for MonoidDef<T, F> {
    #[inline]
    fn apply(&self, x: &T, y: &T) -> T {
        self.op.apply(x, y)
    }

    fn poll_error(&self) -> Option<crate::error::Error> {
        self.op.poll_error()
    }
}

impl<T: Scalar, F: BinaryOp<T, T, T>> Monoid<T> for MonoidDef<T, F> {
    #[inline]
    fn identity(&self) -> T {
        self.id.clone()
    }
}

macro_rules! predefined_monoid {
    ($(#[$doc:meta])* $name:ident<$t:ident : $bound:path>, $op:ty, $id:expr) => {
        $(#[$doc])*
        pub struct $name<$t>(PhantomData<fn() -> $t>);

        impl<$t> $name<$t> {
            pub const fn new() -> Self { $name(PhantomData) }
        }
        impl<$t> Default for $name<$t> {
            fn default() -> Self { Self::new() }
        }
        impl<$t> Clone for $name<$t> {
            fn clone(&self) -> Self { *self }
        }
        impl<$t> Copy for $name<$t> {}
        impl<$t> std::fmt::Debug for $name<$t> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(stringify!($name))
            }
        }

        impl<$t: $bound> BinaryOp<$t, $t, $t> for $name<$t> {
            #[inline]
            fn apply(&self, x: &$t, y: &$t) -> $t {
                <$op>::new().apply(x, y)
            }
        }

        impl<$t: $bound> Monoid<$t> for $name<$t> {
            #[inline]
            fn identity(&self) -> $t {
                $id
            }
        }
    };
}

predefined_monoid!(
    /// `GrB_PLUS_MONOID_T`: `<T, +, 0>` — the ⊕ of standard arithmetic
    /// (Table I row 1).
    PlusMonoid<T: NumScalar>, Plus<T>, T::zero()
);
predefined_monoid!(
    /// `GrB_TIMES_MONOID_T`: `<T, ×, 1>`.
    TimesMonoid<T: NumScalar>, Times<T>, T::one()
);
predefined_monoid!(
    /// `GrB_MIN_MONOID_T`: `<T, min, +∞>` — the ⊕ of min-plus and min-max
    /// algebras (Table I rows 2–3 use max/min with infinities as **0**).
    MinMonoid<T: NumScalar>, Min<T>, T::max_value()
);
predefined_monoid!(
    /// `GrB_MAX_MONOID_T`: `<T, max, -∞>`.
    MaxMonoid<T: NumScalar>, Max<T>, T::min_value()
);

macro_rules! predefined_bool_monoid {
    ($(#[$doc:meta])* $name:ident, $op:ty, $id:expr $(, terminal $term:expr)?) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy)]
        pub struct $name;

        impl BinaryOp<bool, bool, bool> for $name {
            #[inline]
            fn apply(&self, x: &bool, y: &bool) -> bool {
                <$op>::default().apply(x, y)
            }
        }

        impl Monoid<bool> for $name {
            #[inline]
            fn identity(&self) -> bool {
                $id
            }

            $(
            #[inline]
            fn is_terminal(&self, v: &bool) -> bool {
                *v == $term
            }
            )?
        }
    };
}

predefined_bool_monoid!(
    /// `GrB_LOR_MONOID`: `<bool, ∨, false>`, terminal `true`.
    LOrMonoid, LOr, false, terminal true
);
predefined_bool_monoid!(
    /// `GrB_LAND_MONOID`: `<bool, ∧, true>`, terminal `false`.
    LAndMonoid, LAnd, true, terminal false
);
predefined_bool_monoid!(
    /// `GrB_LXOR_MONOID`: `<bool, ⊻, false>` — the ⊕ of GF2 (Table I
    /// row 4).
    LXorMonoid, LXor, false
);
predefined_bool_monoid!(
    /// `GrB_LXNOR_MONOID`: `<bool, ==, true>`.
    LXnorMonoid, LXnor, true
);

#[cfg(test)]
mod tests {
    use super::*;

    fn check_identity<T: Scalar + PartialEq, M: Monoid<T>>(m: &M, samples: &[T]) {
        let id = m.identity();
        for s in samples {
            assert!(m.apply(s, &id) == *s, "right identity failed");
            assert!(m.apply(&id, s) == *s, "left identity failed");
        }
    }

    fn check_associative<T: Scalar + PartialEq, M: Monoid<T>>(m: &M, samples: &[T]) {
        for a in samples {
            for b in samples {
                for c in samples {
                    let l = m.apply(&m.apply(a, b), c);
                    let r = m.apply(a, &m.apply(b, c));
                    assert!(l == r, "associativity failed");
                }
            }
        }
    }

    #[test]
    fn numeric_monoid_laws() {
        let ints = [-3i32, 0, 1, 7, 100];
        check_identity(&PlusMonoid::<i32>::new(), &ints);
        check_identity(&TimesMonoid::<i32>::new(), &ints);
        check_identity(&MinMonoid::<i32>::new(), &ints);
        check_identity(&MaxMonoid::<i32>::new(), &ints);
        check_associative(&PlusMonoid::<i32>::new(), &ints);
        check_associative(&MinMonoid::<i32>::new(), &ints);
        check_associative(&MaxMonoid::<i32>::new(), &ints);
    }

    #[test]
    fn float_min_max_identities_are_infinities() {
        check_identity(&MinMonoid::<f64>::new(), &[-1.5, 0.0, 3.25]);
        check_identity(&MaxMonoid::<f64>::new(), &[-1.5, 0.0, 3.25]);
        assert_eq!(MinMonoid::<f64>::new().identity(), f64::INFINITY);
        assert_eq!(MaxMonoid::<f64>::new().identity(), f64::NEG_INFINITY);
    }

    #[test]
    fn boolean_monoid_laws() {
        let bools = [false, true];
        check_identity(&LOrMonoid, &bools);
        check_identity(&LAndMonoid, &bools);
        check_identity(&LXorMonoid, &bools);
        check_identity(&LXnorMonoid, &bools);
        check_associative(&LXorMonoid, &bools);
        check_associative(&LOrMonoid, &bools);
    }

    #[test]
    fn boolean_terminals_are_absorbing() {
        assert!(LOrMonoid.is_terminal(&true) && !LOrMonoid.is_terminal(&false));
        assert!(LAndMonoid.is_terminal(&false) && !LAndMonoid.is_terminal(&true));
        assert!(!LXorMonoid.is_terminal(&true) && !LXorMonoid.is_terminal(&false));
        for x in [false, true] {
            assert!(LOrMonoid.apply(&true, &x));
            assert!(!LAndMonoid.apply(&false, &x));
        }
    }

    #[test]
    fn monoid_def_mirrors_grb_monoid_new() {
        // Fig. 3 line 10: GrB_Monoid_new(&Int32Add, GrB_INT32, GrB_PLUS_INT32, 0)
        let int32_add = MonoidDef::new(Plus::<i32>::new(), 0);
        check_identity(&int32_add, &[-5, 0, 9]);
        assert_eq!(int32_add.apply(&2, &3), 5);
        assert_eq!(int32_add.identity(), 0);
    }

    #[test]
    fn monoid_def_propagates_checked_errors() {
        use crate::algebra::binary::CheckedPlus;
        let m = MonoidDef::new(CheckedPlus::<i8>::new(), 0);
        assert!(m.poll_error().is_none());
        m.apply(&120, &120);
        assert!(m.poll_error().is_some());
    }
}
