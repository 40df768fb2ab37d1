//! A deliberately naive interpreter of the paper's Figure 2 semantics
//! over dense `Option<T>` matrices — `None` is "undefined", never zero.
//!
//! An operation is three steps, executed literally:
//!
//! 1. compute the internal result `T` from the inputs ([`mxm`], [`mxv`],
//!    [`vxm`], [`ewise_add`], [`ewise_mult`], [`extract`]) — everywhere,
//!    ignoring the mask;
//! 2. `Z = C ⊙ T` on `ind(C) ∪ ind(T)` if an accumulator is given,
//!    else `Z = T` ([`write()`]);
//! 3. the mask selects what of `Z` reaches `C`: admitted positions take
//!    `Z` (deleting where `Z` is undefined), the rest keep old `C` — or are
//!    cleared under `REPLACE` ([`write()`]).
//!
//! `GrB_assign` differs only in steps 1–2: [`assign`] builds `Z` itself
//! (old `C` with the addressed region overwritten or accumulated), and
//! step 3 is [`write()`] without an accumulator, over the whole output.
//!
//! A vector is a `1 × n` matrix here, so [`write()`] and [`Mask`] serve
//! both shapes.
//!
//! Folds run in ascending inner index, left to right, so a
//! floating-point result is reproducible to the bit.

/// A dense matrix of possibly-undefined elements, row-major.
pub type Dense<T> = Vec<Vec<Option<T>>>;

/// An accumulator `⊙`: `Z(i,j) = C(i,j) ⊙ T(i,j)` where both are defined.
pub type Accumulator<T> = dyn Fn(&T, &T) -> T;

/// The write mask of one call: a Boolean-valued source plus the
/// descriptor's `STRUCTURE` and `SCMP` flags.
#[derive(Debug, Clone, Copy)]
pub struct Mask<'a> {
    pub source: &'a Dense<bool>,
    /// Membership by presence alone; otherwise a stored `false` is out.
    pub structural: bool,
    /// Admit exactly the positions outside the membership set.
    pub complement: bool,
}

impl Mask<'_> {
    /// Whether position `(i, j)` is written.
    pub fn admits(&self, i: usize, j: usize) -> bool {
        let member = match self.source[i][j] {
            Some(v) => self.structural || v,
            None => false,
        };
        member != self.complement
    }
}

/// A `nrows × ncols` matrix with nothing defined.
pub fn empty<T: Clone>(nrows: usize, ncols: usize) -> Dense<T> {
    vec![vec![None; ncols]; nrows]
}

/// Step 1 of `GrB_mxm`: `T(i,j) = ⊕_k A(i,k) ⊗ B(k,j)` over the `k` where
/// both are defined; undefined when there is no such `k`.
pub fn mxm<A, B, C>(
    a: &Dense<A>,
    b: &Dense<B>,
    add: impl Fn(&C, &C) -> C,
    mul: impl Fn(&A, &B) -> C,
) -> Dense<C> {
    let ncols = b.first().map_or(0, Vec::len);
    a.iter()
        .map(|a_row| {
            (0..ncols)
                .map(|j| {
                    let mut acc: Option<C> = None;
                    for (k, aik) in a_row.iter().enumerate() {
                        if let (Some(x), Some(y)) = (aik, &b[k][j]) {
                            let p = mul(x, y);
                            acc = Some(match acc {
                                Some(s) => add(&s, &p),
                                None => p,
                            });
                        }
                    }
                    acc
                })
                .collect()
        })
        .collect()
}

/// Step 1 of `GrB_mxv`: `T = A ⊕.⊗ u`, with `u` as an `n × 1` column.
pub fn mxv<A, B: Clone, C>(
    a: &Dense<A>,
    u: &[Option<B>],
    add: impl Fn(&C, &C) -> C,
    mul: impl Fn(&A, &B) -> C,
) -> Vec<Option<C>> {
    let column: Dense<B> = u.iter().map(|x| vec![x.clone()]).collect();
    mxm(a, &column, add, mul)
        .into_iter()
        .map(|mut row| row.pop().flatten())
        .collect()
}

/// Step 1 of `GrB_vxm`: `T = u ⊕.⊗ A`, with `u` as a `1 × n` row.
pub fn vxm<A: Clone, B, C>(
    u: &[Option<A>],
    a: &Dense<B>,
    add: impl Fn(&C, &C) -> C,
    mul: impl Fn(&A, &B) -> C,
) -> Vec<Option<C>> {
    let row: Dense<A> = vec![u.to_vec()];
    let mut t = mxm(&row, a, add, mul);
    t.pop().expect("a 1 × n product has one row")
}

/// Step 1 of `GrB_eWiseAdd`: `A ⊕ B` where both are defined, the one
/// defined value where only one is.
pub fn ewise_add<T: Clone>(a: &Dense<T>, b: &Dense<T>, add: impl Fn(&T, &T) -> T) -> Dense<T> {
    zip_with(a, b, |x, y| match (x, y) {
        (Some(x), Some(y)) => Some(add(x, y)),
        (x, y) => x.as_ref().or(y.as_ref()).cloned(),
    })
}

/// Step 1 of `GrB_eWiseMult`: `A ⊗ B` where both are defined.
pub fn ewise_mult<A, B, C>(a: &Dense<A>, b: &Dense<B>, mul: impl Fn(&A, &B) -> C) -> Dense<C> {
    zip_with(a, b, |x, y| match (x, y) {
        (Some(x), Some(y)) => Some(mul(x, y)),
        _ => None,
    })
}

/// Step 1 of `GrB_extract` (vector): `T(k) = u(indices[k])`, undefined
/// where `u` is. A repeated index gathers the same element twice.
pub fn extract<T: Clone>(u: &[Option<T>], indices: &[usize]) -> Vec<Option<T>> {
    indices.iter().map(|&i| u[i].clone()).collect()
}

/// Steps 1 and 2 of `GrB_assign` (vector): `Z = C`, then each target
/// `indices[k]` takes `u(k)` — combined with `C(indices[k])` under an
/// accumulator where both are defined, and deleted without one where
/// `u(k)` is undefined. Positions outside `indices` keep `C`. The scalar
/// form is `u` defined everywhere.
pub fn assign<T: Clone>(
    c: &[Option<T>],
    u: &[Option<T>],
    indices: &[usize],
    accum: Option<&Accumulator<T>>,
) -> Vec<Option<T>> {
    let mut z = c.to_vec();
    for (k, &i) in indices.iter().enumerate() {
        z[i] = match (accum, &c[i], &u[k]) {
            (Some(acc), Some(x), Some(y)) => Some(acc(x, y)),
            (Some(_), x, y) => y.as_ref().or(x.as_ref()).cloned(),
            (None, _, y) => y.clone(),
        };
    }
    z
}

/// Steps 2 and 3: accumulate `T` into old `C`, then write through the
/// mask, honouring `REPLACE`.
pub fn write<T: Clone>(
    c: &Dense<T>,
    t: &Dense<T>,
    accum: Option<&Accumulator<T>>,
    mask: Option<Mask<'_>>,
    replace: bool,
) -> Dense<T> {
    let z = match accum {
        Some(acc) => ewise_add(c, t, acc),
        None => t.clone(),
    };
    (0..c.len())
        .map(|i| {
            (0..c[i].len())
                .map(|j| {
                    if mask.is_none_or(|m| m.admits(i, j)) {
                        z[i][j].clone()
                    } else if replace {
                        None
                    } else {
                        c[i][j].clone()
                    }
                })
                .collect()
        })
        .collect()
}

fn zip_with<A, B, C>(
    a: &Dense<A>,
    b: &Dense<B>,
    f: impl Fn(&Option<A>, &Option<B>) -> Option<C>,
) -> Dense<C> {
    a.iter()
        .zip(b)
        .map(|(ra, rb)| ra.iter().zip(rb).map(|(x, y)| f(x, y)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rows: &[&[Option<i32>]]) -> Dense<i32> {
        rows.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn undefined_is_not_zero() {
        // A(0,0)·B(0,1) is the only product; T(0,0) stays undefined
        let a = d(&[&[Some(2), None]]);
        let b = d(&[&[None, Some(3)], &[Some(5), None]]);
        let t = mxm(&a, &b, |x, y| x + y, |x, y| x * y);
        assert_eq!(t, d(&[&[None, Some(6)]]));
    }

    #[test]
    fn three_steps_with_mask_accum_and_replace() {
        let c = d(&[&[Some(1), Some(2), None]]);
        let t = d(&[&[Some(10), None, Some(30)]]);
        // valued mask admits (0,0) only: (0,1) stores false
        let src = vec![vec![Some(true), Some(false), None]];
        let mask = Mask {
            source: &src,
            structural: false,
            complement: false,
        };
        let plus = |x: &i32, y: &i32| x + y;
        assert_eq!(
            write(&c, &t, Some(&plus), Some(mask), false),
            d(&[&[Some(11), Some(2), None]])
        );
        assert_eq!(
            write(&c, &t, None, Some(mask), true),
            d(&[&[Some(10), None, None]])
        );
        let structural = Mask {
            structural: true,
            ..mask
        };
        // (0,1) admitted now, and Z is undefined there: deleted
        assert_eq!(
            write(&c, &t, None, Some(structural), false),
            d(&[&[Some(10), None, None]])
        );
        let scmp = Mask {
            complement: true,
            ..mask
        };
        assert_eq!(
            write(&c, &t, None, Some(scmp), false),
            d(&[&[Some(1), None, Some(30)]])
        );
    }

    #[test]
    fn mxv_and_vxm_are_mxm_on_a_column_and_a_row() {
        // [ 1 2 ]
        // [ . 3 ]
        let a = d(&[&[Some(1), Some(2)], &[None, Some(3)]]);
        let add = |x: &i32, y: &i32| x + y;
        let mul = |x: &i32, y: &i32| x * y;
        assert_eq!(mxv(&a, &[None, Some(10)], add, mul), [Some(20), Some(30)]);
        assert_eq!(vxm(&[None, Some(10)], &a, add, mul), [None, Some(30)]);
    }

    #[test]
    fn vector_extract_and_assign() {
        let u = [Some(1), None, Some(3)];
        assert_eq!(
            extract(&u, &[2, 1, 2, 0]),
            [Some(3), None, Some(3), Some(1)]
        );
        let c = [Some(10), Some(20), None];
        let plus = |x: &i32, y: &i32| x + y;
        // target 1 gets u(0), target 0 gets the undefined u(1)
        assert_eq!(
            assign(&c, &[Some(5), None], &[1, 0], None),
            [None, Some(5), None]
        );
        assert_eq!(
            assign(&c, &[Some(5), None], &[1, 0], Some(&plus)),
            [Some(10), Some(25), None]
        );
    }

    #[test]
    fn ewise_union_and_intersection() {
        let a = d(&[&[Some(1), None, Some(3)]]);
        let b = d(&[&[Some(10), Some(20), None]]);
        assert_eq!(
            ewise_add(&a, &b, |x, y| x + y),
            d(&[&[Some(11), Some(20), Some(3)]])
        );
        assert_eq!(
            ewise_mult(&a, &b, |x, y| x * y),
            d(&[&[Some(10), None, None]])
        );
    }
}
