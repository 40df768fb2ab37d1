//! GraphBLAS semirings (paper, Section III-B; Figure 1; Table I).
//!
//! A GraphBLAS semiring `S = <D1, D2, D3, ⊕, ⊗, 0>` combines an additive
//! monoid `<D3, ⊕, 0>` with a multiplicative binary operator
//! `⊗ : D1 × D2 → D3`. It differs from the textbook algebraic semiring in
//! that (i) the inputs may come from different domains and (ii) no
//! multiplicative identity is required (Figure 1's caption).
//!
//! [`SemiringDef::new`] mirrors `GrB_Semiring_new(monoid, binop)`
//! (Fig. 3 lines 12, 53), and the constructors at the bottom provide every
//! Table I semiring plus the named graph semirings used by the algorithms
//! crate.

use crate::algebra::binary::{BinaryOp, First, LAnd, Pair, Plus, Second, Times};
use crate::algebra::monoid::{LOrMonoid, LXorMonoid, MaxMonoid, MinMonoid, Monoid, PlusMonoid};
use crate::algebra::set::{SetIntersect, SetUnionMonoid};
use crate::scalar::{NumScalar, Scalar};

/// A GraphBLAS semiring `<D1, D2, D3, ⊕, ⊗, 0>`.
///
/// Decomposes into its associated monoid and binary operator exactly as in
/// the paper: "for a GraphBLAS semiring there is always an associated
/// monoid `<D3, ⊕, 0>` and an associated binary operator
/// `<D1, D2, D3, ⊗>`".
pub trait Semiring<D1: Scalar, D2: Scalar, D3: Scalar>: Send + Sync + Clone + 'static {
    /// The additive monoid `<D3, ⊕, 0>`.
    type Add: Monoid<D3>;
    /// The multiplicative operator `⊗ : D1 × D2 → D3`.
    type Mul: BinaryOp<D1, D2, D3>;

    fn add(&self) -> &Self::Add;
    fn mul(&self) -> &Self::Mul;

    /// The **0** element: the identity of ⊕ (and annihilator of ⊗).
    #[inline]
    fn zero(&self) -> D3 {
        self.add().identity()
    }

    /// The first execution error either operator latched during a kernel
    /// (see [`BinaryOp::poll_error`]): ⊕'s, then ⊗'s.
    fn poll_error(&self) -> Option<crate::error::Error> {
        self.add().poll_error().or_else(|| self.mul().poll_error())
    }
}

/// A semiring assembled from a monoid and a binary operator
/// (`GrB_Semiring_new`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SemiringDef<M, F> {
    add: M,
    mul: F,
}

impl<M, F> SemiringDef<M, F> {
    /// `GrB_Semiring_new(&semiring, add_monoid, mul_op)`.
    pub fn new(add: M, mul: F) -> Self {
        SemiringDef { add, mul }
    }

    /// Recover the constituent monoid and operator (Figure 1's
    /// decomposition).
    pub fn into_parts(self) -> (M, F) {
        (self.add, self.mul)
    }
}

impl<D1, D2, D3, M, F> Semiring<D1, D2, D3> for SemiringDef<M, F>
where
    D1: Scalar,
    D2: Scalar,
    D3: Scalar,
    M: Monoid<D3> + Clone + 'static,
    F: BinaryOp<D1, D2, D3>,
{
    type Add = M;
    type Mul = F;

    #[inline]
    fn add(&self) -> &M {
        &self.add
    }

    #[inline]
    fn mul(&self) -> &F {
        &self.mul
    }
}

// ----- Table I semirings -----

/// Standard arithmetic: `<T, +, ×, 0>` (Table I row 1). The `Int32AddMul`
/// and `FP32AddMul` semirings of the BC example.
pub type PlusTimes<T> = SemiringDef<PlusMonoid<T>, Times<T>>;

/// Constructor for the arithmetic semiring.
pub fn plus_times<T: NumScalar>() -> PlusTimes<T> {
    SemiringDef::new(PlusMonoid::new(), Times::new())
}

/// Max-plus algebra: `<T ∪ {-∞}, max, +, -∞>` (Table I row 2); longest /
/// critical paths.
pub type MaxPlus<T> = SemiringDef<MaxMonoid<T>, Plus<T>>;

pub fn max_plus<T: NumScalar>() -> MaxPlus<T> {
    SemiringDef::new(MaxMonoid::new(), Plus::new())
}

/// Min-max algebra: `<T ∪ {∞}, min, max, ∞>` (Table I row 3); minimax /
/// bottleneck paths.
pub type MinMax<T> = SemiringDef<MinMonoid<T>, crate::algebra::binary::Max<T>>;

pub fn min_max<T: NumScalar>() -> MinMax<T> {
    SemiringDef::new(MinMonoid::new(), crate::algebra::binary::Max::new())
}

/// Galois field GF(2): `<bool, xor, and, false>` (Table I row 4); path
/// parity.
pub type XorAnd = SemiringDef<LXorMonoid, LAnd>;

pub fn xor_and() -> XorAnd {
    SemiringDef::new(LXorMonoid, LAnd)
}

/// Power-set algebra: `<P(Z), ∪, ∩, ∅>` (Table I row 5).
pub type UnionIntersect = SemiringDef<SetUnionMonoid, SetIntersect>;

pub fn union_intersect() -> UnionIntersect {
    SemiringDef::new(SetUnionMonoid, SetIntersect)
}

// ----- additional named graph semirings -----

/// Min-plus (tropical): `<T ∪ {∞}, min, +, ∞>`; shortest paths.
pub type MinPlus<T> = SemiringDef<MinMonoid<T>, Plus<T>>;

pub fn min_plus<T: NumScalar>() -> MinPlus<T> {
    SemiringDef::new(MinMonoid::new(), Plus::new())
}

/// Boolean reachability: `<bool, lor, land, false>`; BFS frontier
/// expansion on unweighted graphs.
pub type LorLand = SemiringDef<LOrMonoid, LAnd>;

pub fn lor_land() -> LorLand {
    SemiringDef::new(LOrMonoid, LAnd)
}

/// `plus_pair`: `⊗` ignores values and returns 1 — counts intersections
/// (triangle counting).
pub type PlusPair<T> = SemiringDef<PlusMonoid<T>, Pair<T, T, T>>;

pub fn plus_pair<T: NumScalar>() -> PlusPair<T> {
    SemiringDef::new(PlusMonoid::new(), Pair::new())
}

/// `min_first`: `⊗(a, b) = a` under min — propagates the row value
/// (parent pointers in BFS trees).
pub type MinFirst<T> = SemiringDef<MinMonoid<T>, First<T, T>>;

pub fn min_first<T: NumScalar>() -> MinFirst<T> {
    SemiringDef::new(MinMonoid::new(), First::new())
}

/// `min_second`: `⊗(a, b) = b` under min.
pub type MinSecond<T> = SemiringDef<MinMonoid<T>, Second<T, T>>;

pub fn min_second<T: NumScalar>() -> MinSecond<T> {
    SemiringDef::new(MinMonoid::new(), Second::new())
}

/// `plus_first`: `⊗(a, b) = a` under +, i.e. `A ⊕.first B` multiplies by
/// the pattern of `B` only.
pub type PlusFirst<T> = SemiringDef<PlusMonoid<T>, First<T, T>>;

pub fn plus_first<T: NumScalar>() -> PlusFirst<T> {
    SemiringDef::new(PlusMonoid::new(), First::new())
}

/// `plus_second`: `⊗(a, b) = b` under +.
pub type PlusSecond<T> = SemiringDef<PlusMonoid<T>, Second<T, T>>;

pub fn plus_second<T: NumScalar>() -> PlusSecond<T> {
    SemiringDef::new(PlusMonoid::new(), Second::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::set::SmallSet;

    #[test]
    fn semiring_decomposes_into_monoid_and_binop() {
        // Figure 1: semiring ↔ (monoid, binary op) round trip.
        let s = plus_times::<i32>();
        assert_eq!(s.zero(), 0);
        assert_eq!(s.add().identity(), 0);
        assert_eq!(s.mul().apply(&6, &7), 42);
        let (m, f) = s.into_parts();
        let rebuilt = SemiringDef::new(m, f);
        assert_eq!(Semiring::<i32, i32, i32>::zero(&rebuilt), 0);
    }

    #[test]
    fn table1_arithmetic() {
        let s = plus_times::<f64>();
        assert_eq!(s.add().apply(&1.5, &2.0), 3.5);
        assert_eq!(s.mul().apply(&1.5, &2.0), 3.0);
        assert_eq!(s.zero(), 0.0);
    }

    #[test]
    fn table1_max_plus() {
        let s = max_plus::<f64>();
        assert_eq!(s.zero(), f64::NEG_INFINITY);
        assert_eq!(s.add().apply(&3.0, &5.0), 5.0);
        assert_eq!(s.mul().apply(&3.0, &5.0), 8.0);
        // 0 annihilates ⊗: -∞ + x = -∞
        assert_eq!(s.mul().apply(&s.zero(), &5.0), f64::NEG_INFINITY);
    }

    #[test]
    fn table1_min_max() {
        let s = min_max::<f64>();
        assert_eq!(s.zero(), f64::INFINITY);
        assert_eq!(s.add().apply(&3.0, &5.0), 3.0);
        assert_eq!(s.mul().apply(&3.0, &5.0), 5.0);
    }

    #[test]
    fn table1_gf2() {
        let s = xor_and();
        assert!(!s.zero());
        assert!(s.add().apply(&true, &false));
        assert!(!s.add().apply(&true, &true)); // xor
        assert!(s.mul().apply(&true, &true));
        assert!(!s.mul().apply(&true, &false));
    }

    #[test]
    fn table1_power_set() {
        let s = union_intersect();
        assert_eq!(s.zero(), SmallSet::empty());
        let a = SmallSet::from(&[1u32, 2][..]);
        let b = SmallSet::from(&[2u32, 3][..]);
        assert_eq!(s.add().apply(&a, &b), SmallSet::from(&[1u32, 2, 3][..]));
        assert_eq!(s.mul().apply(&a, &b), SmallSet::from(&[2u32][..]));
        // ∅ annihilates ∩
        assert_eq!(s.mul().apply(&a, &s.zero()), SmallSet::empty());
    }

    #[test]
    fn tropical_and_reachability() {
        let sp = min_plus::<f32>();
        assert_eq!(sp.zero(), f32::INFINITY);
        assert_eq!(sp.add().apply(&2.0, &3.0), 2.0);
        assert_eq!(sp.mul().apply(&2.0, &3.0), 5.0);

        let r = lor_land();
        assert!(!r.zero());
        assert!(r.add().apply(&false, &true));
    }

    #[test]
    fn structural_semirings() {
        let tc = plus_pair::<u64>();
        assert_eq!(tc.mul().apply(&123, &456), 1);
        let mf = min_first::<u32>();
        assert_eq!(mf.mul().apply(&3, &9), 3);
        let ps = plus_second::<i32>();
        assert_eq!(ps.mul().apply(&3, &9), 9);
        let pf = plus_first::<i32>();
        assert_eq!(pf.mul().apply(&3, &9), 3);
        let ms = min_second::<u32>();
        assert_eq!(ms.mul().apply(&3, &9), 9);
    }

    #[test]
    fn user_defined_semiring_over_custom_domain() {
        // A "widest path with tie-breaking" semiring assembled by hand,
        // showing GrB_Semiring_new-style composition with a closure op.
        use crate::algebra::binary::binary_fn;
        use crate::algebra::monoid::MonoidDef;
        let add = MonoidDef::new(binary_fn(|x: &u32, y: &u32| *x.max(y)), 0u32);
        let mul = binary_fn(|x: &u32, y: &u32| *x.min(y));
        let widest = SemiringDef::new(add, mul);
        assert_eq!(Semiring::<u32, u32, u32>::zero(&widest), 0);
        assert_eq!(widest.add().apply(&4, &9), 9);
        assert_eq!(widest.mul().apply(&4, &9), 4);
    }
}
