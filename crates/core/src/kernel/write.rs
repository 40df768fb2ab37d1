//! The output-write kernel of Figure 2 and Section VI. The one place an
//! operation's result reaches its output is the write stage in `op`
//! (`op::Fig2`), which picks the identity writes itself and calls these
//! kernels for the rest:
//!
//! 1. the operation computes an internal result **T**;
//! 2. if an accumulator ⊙ is present, `Z = C ⊙ T` on the pattern
//!    `ind(C) ∪ ind(T)`; otherwise `Z = T`;
//! 3. the write mask selects which elements of **Z** reach **C**:
//!    * **Replace mode** (`GrB_REPLACE`): `C = Z ∩ mask` — old values of
//!      `C` are deleted first;
//!    * **Merge mode** (default): admitted positions become exactly `Z`
//!      there (including deletions where `Z` is absent), positions outside
//!      the mask keep their old `C` values.
//!
//! When pattern(T) ⊆ pattern(C) and every stored position of T is
//! admitted, with an accumulator and nothing cleared, Z differs from C in
//! values only: `WriteTarget::positions` finds where T's entries sit in
//! C and `fold` applies `C ⊙= T` there, in an output the write stage
//! holds alone or has copied.

use crate::accum::Accumulate;
use crate::index::Index;
use crate::kernel::util::{emit_rows, stateless};
use crate::mask::{MaskCsr, MaskRow, MaskVec};
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::vec::SparseVec;

/// One row (or one whole vector) of the accumulate-and-mask pipeline.
/// `c` is the old output content, `t` the operation's internal result.
#[allow(clippy::too_many_arguments)]
fn write_row<T: Scalar, Ac: Accumulate<T>>(
    c_idx: &[Index],
    c_vals: &[T],
    t_idx: &[Index],
    t_vals: &[T],
    accum: &Ac,
    mask_row: MaskRow<'_>,
    replace: bool,
    out_idx: &mut Vec<Index>,
    out_vals: &mut Vec<T>,
) {
    let is_accum = accum.is_accum();
    // The row is exactly old C when the mask admits nothing in it (merge
    // mode), or when T is empty under an accumulator (Z = C) and nothing
    // outside the mask is cleared: copy it as a slice.
    let keeps_c = if replace {
        t_idx.is_empty() && is_accum && mask_row.admits_everything()
    } else {
        mask_row.admits_nothing() || (t_idx.is_empty() && is_accum)
    };
    if keeps_c {
        out_idx.extend_from_slice(c_idx);
        out_vals.extend_from_slice(c_vals);
        return;
    }
    let mut mask = mask_row.cursor();
    let (mut ci, mut ti) = (0usize, 0usize);
    loop {
        // next candidate position j with its Z-value (if any) and C-value
        let (j, z, c): (Index, Option<T>, Option<&T>) = match (c_idx.get(ci), t_idx.get(ti)) {
            (None, None) => break,
            (Some(&cj), None) => {
                let z = if is_accum {
                    Some(c_vals[ci].clone())
                } else {
                    None
                };
                let r = (cj, z, Some(&c_vals[ci]));
                ci += 1;
                r
            }
            (None, Some(&tj)) => {
                let r = (tj, Some(t_vals[ti].clone()), None);
                ti += 1;
                r
            }
            (Some(&cj), Some(&tj)) => {
                if cj < tj {
                    let z = if is_accum {
                        Some(c_vals[ci].clone())
                    } else {
                        None
                    };
                    let r = (cj, z, Some(&c_vals[ci]));
                    ci += 1;
                    r
                } else if tj < cj {
                    let r = (tj, Some(t_vals[ti].clone()), None);
                    ti += 1;
                    r
                } else {
                    let z = if is_accum {
                        accum.combine(&c_vals[ci], &t_vals[ti])
                    } else {
                        t_vals[ti].clone()
                    };
                    let r = (cj, Some(z), Some(&c_vals[ci]));
                    ci += 1;
                    ti += 1;
                    r
                }
            }
        };
        if mask.admits(j) {
            if let Some(zv) = z {
                out_idx.push(j);
                out_vals.push(zv);
            }
            // admitted but Z absent: element deleted (stays absent)
        } else if !replace {
            if let Some(cv) = c {
                out_idx.push(j);
                out_vals.push(cv.clone());
            }
        }
        // not admitted + replace: deleted
    }
}

/// The full pass for matrices: `C ⊙=<mask, replace> T`, row by row.
pub fn write_matrix<T: Scalar, Ac: Accumulate<T>>(
    c_old: &Csr<T>,
    t: Csr<T>,
    accum: &Ac,
    mask: &MaskCsr,
    replace: bool,
) -> Csr<T> {
    debug_assert_eq!(c_old.nrows(), t.nrows());
    debug_assert_eq!(c_old.ncols(), t.ncols());
    emit_rows(
        c_old.nrows(),
        c_old.ncols(),
        c_old.nvals() + t.nvals(),
        stateless,
        |_, i, cols, vals| {
            let (cc, cv) = c_old.row(i);
            let (tc, tv) = t.row(i);
            write_row(cc, cv, tc, tv, accum, mask.row(i), replace, cols, vals);
        },
    )
}

/// The full pass for vectors: `w ⊙=<mask, replace> t`.
pub fn write_vector<T: Scalar, Ac: Accumulate<T>>(
    w_old: &SparseVec<T>,
    t: SparseVec<T>,
    accum: &Ac,
    mask: &MaskVec,
    replace: bool,
) -> SparseVec<T> {
    debug_assert_eq!(w_old.size(), t.size());
    let mut idx = Vec::with_capacity(w_old.nvals() + t.nvals());
    let mut vals = Vec::with_capacity(w_old.nvals() + t.nvals());
    write_row(
        w_old.indices(),
        w_old.vals(),
        t.indices(),
        t.vals(),
        accum,
        mask.as_row(),
        replace,
        &mut idx,
        &mut vals,
    );
    SparseVec::from_sorted_parts(w_old.size(), idx, vals)
}

/// One of Figure 2's two output values as these kernels write it: a CSR
/// matrix under a [`MaskCsr`], or a vector under a [`MaskVec`].
pub(crate) trait WriteTarget<T: Scalar>: Clone {
    type Mask;
    fn admits_all(mask: &Self::Mask) -> bool;
    /// The full pass: `self ⊙=<mask, replace> t`.
    fn write<Ac: Accumulate<T>>(
        &self,
        t: Self,
        accum: &Ac,
        mask: &Self::Mask,
        replace: bool,
    ) -> Self;
    /// Where each of `t`'s entries sits among these stored values, in
    /// `t`'s order, when pattern(t) ⊆ pattern(self); `None` at the first
    /// row holding an entry this value does not store.
    fn positions(&self, t: &Self) -> Option<Vec<usize>>;
    fn vals(&self) -> &[T];
    fn vals_mut(&mut self) -> &mut [T];
}

impl<T: Scalar> WriteTarget<T> for Csr<T> {
    type Mask = MaskCsr;
    fn admits_all(mask: &MaskCsr) -> bool {
        mask.admits_all()
    }
    fn write<Ac: Accumulate<T>>(&self, t: Self, accum: &Ac, mask: &MaskCsr, replace: bool) -> Self {
        write_matrix(self, t, accum, mask, replace)
    }
    fn positions(&self, t: &Self) -> Option<Vec<usize>> {
        if t.nvals() > self.nvals() {
            return None;
        }
        let mut at = Vec::with_capacity(t.nvals());
        for i in 0..t.nrows() {
            let base = self.row_ptr()[i];
            if !locate(self.row(i).0, t.row(i).0, base, self.ncols(), &mut at) {
                return None;
            }
        }
        Some(at)
    }
    fn vals(&self) -> &[T] {
        Csr::vals(self)
    }
    fn vals_mut(&mut self) -> &mut [T] {
        Csr::vals_mut(self)
    }
}

impl<T: Scalar> WriteTarget<T> for SparseVec<T> {
    type Mask = MaskVec;
    fn admits_all(mask: &MaskVec) -> bool {
        mask.admits_all()
    }
    fn write<Ac: Accumulate<T>>(&self, t: Self, accum: &Ac, mask: &MaskVec, replace: bool) -> Self {
        write_vector(self, t, accum, mask, replace)
    }
    fn positions(&self, t: &Self) -> Option<Vec<usize>> {
        let mut at = Vec::with_capacity(t.nvals());
        locate(self.indices(), t.indices(), 0, self.size(), &mut at).then_some(at)
    }
    fn vals(&self) -> &[T] {
        SparseVec::vals(self)
    }
    fn vals_mut(&mut self) -> &mut [T] {
        SparseVec::vals_mut(self)
    }
}

/// Append `base` plus the offset in `c_idx` of each index of `t_idx`
/// (both ascending); `false` at the first one `c_idx` lacks. A full row
/// (`width` entries) stores index `j` at offset `j`.
fn locate(
    c_idx: &[Index],
    t_idx: &[Index],
    base: usize,
    width: Index,
    at: &mut Vec<usize>,
) -> bool {
    if c_idx.len() == width {
        at.extend(t_idx.iter().map(|&j| base + j));
        return true;
    }
    let mut k = 0;
    for &j in t_idx {
        while c_idx.get(k).is_some_and(|&cj| cj < j) {
            k += 1;
        }
        if c_idx.get(k) != Some(&j) {
            return false;
        }
        at.push(base + k);
        k += 1;
    }
    true
}

/// `C ⊙= T` on values alone: fold each of `t`'s values into `c`'s at
/// its position from [`WriteTarget::positions`], with the operands in
/// [`write_row`]'s order, so the result is bitwise the full pass's.
pub(crate) fn fold<T: Scalar, V: WriteTarget<T>, Ac: Accumulate<T>>(
    mut c: V,
    t: &V,
    at: &[usize],
    accum: &Ac,
) -> V {
    debug_assert_eq!(at.len(), t.vals().len());
    let c_vals = c.vals_mut();
    for (&p, x) in at.iter().zip(t.vals()) {
        c_vals[p] = accum.combine(&c_vals[p], x);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{Accum, NoAccum};
    use crate::algebra::binary::Plus;

    fn c_old() -> Csr<i32> {
        // [ 1 2 . ]
        // [ . 3 . ]
        Csr::from_sorted_tuples(2, 3, vec![(0, 0, 1), (0, 1, 2), (1, 1, 3)])
    }

    fn t_new() -> Csr<i32> {
        // [ 10 .  20 ]
        // [ .  30 .  ]
        Csr::from_sorted_tuples(2, 3, vec![(0, 0, 10), (0, 2, 20), (1, 1, 30)])
    }

    fn mask_01_and_11() -> MaskCsr {
        // admit (0,1) and (1,1) only
        let m = Csr::from_sorted_tuples(2, 3, vec![(0, 1, true), (1, 1, true)]);
        MaskCsr::from_csr(&m, false, false)
    }

    #[test]
    fn no_mask_no_accum_is_assignment() {
        let r = write_matrix(&c_old(), t_new(), &NoAccum, &MaskCsr::All, false);
        assert_eq!(r, t_new());
        // old C(0,1)=2 is gone: assignment replaces the full content
        assert_eq!(r.get(0, 1), None);
    }

    #[test]
    fn no_mask_accum_is_union() {
        let r = write_matrix(
            &c_old(),
            t_new(),
            &Accum(Plus::<i32>::new()),
            &MaskCsr::All,
            false,
        );
        assert_eq!(
            r.to_tuples(),
            vec![(0, 0, 11), (0, 1, 2), (0, 2, 20), (1, 1, 33)]
        );
    }

    #[test]
    fn merge_mode_keeps_unmasked_old_values() {
        let r = write_matrix(&c_old(), t_new(), &NoAccum, &mask_01_and_11(), false);
        // (0,1): admitted, T absent -> deleted; (1,1): admitted -> 30
        // (0,0): not admitted -> old 1 kept; (0,2): not admitted -> absent
        assert_eq!(r.to_tuples(), vec![(0, 0, 1), (1, 1, 30)]);
    }

    #[test]
    fn replace_mode_clears_unmasked_positions() {
        let r = write_matrix(&c_old(), t_new(), &NoAccum, &mask_01_and_11(), true);
        assert_eq!(r.to_tuples(), vec![(1, 1, 30)]);
    }

    #[test]
    fn merge_with_accum_under_mask() {
        let r = write_matrix(
            &c_old(),
            t_new(),
            &Accum(Plus::<i32>::new()),
            &mask_01_and_11(),
            false,
        );
        // (0,1): admitted, Z = old 2 (T absent, accum keeps C) -> 2
        // (1,1): admitted, Z = 3+30
        // (0,0): not admitted -> old 1; (0,2) not admitted -> absent
        assert_eq!(r.to_tuples(), vec![(0, 0, 1), (0, 1, 2), (1, 1, 33)]);
    }

    #[test]
    fn complemented_mask_flips_selection() {
        let m = Csr::from_sorted_tuples(2, 3, vec![(0, 1, true), (1, 1, true)]);
        let scmp = MaskCsr::from_csr(&m, false, true);
        let r = write_matrix(&c_old(), t_new(), &NoAccum, &scmp, true);
        // admitted = everything except (0,1),(1,1)
        assert_eq!(r.to_tuples(), vec![(0, 0, 10), (0, 2, 20)]);
    }

    #[test]
    fn masked_vector_write() {
        let w = SparseVec::from_sorted_parts(4, vec![0, 2], vec![1, 2]);
        let t = SparseVec::from_sorted_parts(4, vec![1, 2], vec![10, 20]);
        let msrc = SparseVec::from_sorted_parts(4, vec![1, 3], vec![true, true]);
        let mask = MaskVec::from_vec(&msrc, false, false);
        // merge: 1 admitted -> 10; 0,2 not admitted -> old kept
        let r = write_vector(&w, t.clone(), &NoAccum, &mask, false);
        assert_eq!(r.to_tuples(), vec![(0, 1), (1, 10), (2, 2)]);
        // replace: only admitted survive
        let r = write_vector(&w, t, &NoAccum, &mask, true);
        assert_eq!(r.to_tuples(), vec![(1, 10)]);
    }

    #[test]
    fn unmasked_accumulate_into_a_full_vector_folds_by_position() {
        use crate::algebra::binary::Minus;
        let minus = Accum(Minus::<i32>::new());
        let w = SparseVec::from_dense(&[1, 2, 3]);
        let t = SparseVec::from_sorted_parts(3, vec![0, 2], vec![10, 20]);
        let at = w.positions(&t).expect("a full vector stores every index");
        let folded = fold(w.clone(), &t, &at, &minus);
        assert_eq!(folded.to_tuples(), vec![(0, -9), (1, 2), (2, -17)]);
        assert_eq!(folded, write_vector(&w, t, &minus, &MaskVec::All, false));
    }

    #[test]
    fn positions_need_a_subset_pattern() {
        // C = [ 1 2 . ]    its rows are searched; a full C's rows
        //     [ . 3 . ]    take positions by index
        let c = c_old();
        let t = Csr::from_sorted_tuples(2, 3, vec![(0, 1, 10), (1, 1, 30)]);
        assert_eq!(c.positions(&t), Some(vec![1, 2]));
        assert_eq!(c.positions(&t_new()), None, "(0, 2) is not in C");
        let full = Csr::full(2, 3, 0);
        assert_eq!(full.positions(&t_new()), Some(vec![0, 2, 4]));
        let at = c.positions(&t).unwrap();
        let folded = fold(c.clone(), &t, &at, &Accum(Plus::<i32>::new()));
        let pass = write_matrix(&c, t, &Accum(Plus::<i32>::new()), &MaskCsr::All, false);
        assert_eq!(folded, pass);
        let v = SparseVec::from_sorted_parts(4, vec![0, 2], vec![1, 2]);
        let miss = SparseVec::from_sorted_parts(4, vec![1], vec![5]);
        assert_eq!(v.positions(&miss), None);
        let hit = SparseVec::from_sorted_parts(4, vec![2], vec![5]);
        assert_eq!(v.positions(&hit), Some(vec![1]));
    }

    #[test]
    fn empty_t_with_mask_deletes_admitted_region() {
        let t = Csr::empty(2, 3);
        let r = write_matrix(&c_old(), t, &NoAccum, &mask_01_and_11(), false);
        // (0,1) admitted and Z empty -> deleted; others kept
        assert_eq!(r.to_tuples(), vec![(0, 0, 1)]);
    }

    #[test]
    fn write_is_exhaustive_against_model() {
        // brute-force model check on a 1x4 row over all patterns
        use crate::mask::MaskRow;
        let n = 4usize;
        for c_pat in 0u32..16 {
            for t_pat in 0u32..16 {
                for m_pat in 0u32..16 {
                    for &(comp, repl, acc) in &[
                        (false, false, false),
                        (false, true, false),
                        (true, false, false),
                        (true, true, false),
                        (false, false, true),
                        (false, true, true),
                        (true, false, true),
                        (true, true, true),
                    ] {
                        let bits = |p: u32| (0..n).filter(move |k| p & (1 << k) != 0);
                        let c_idx: Vec<_> = bits(c_pat).collect();
                        let c_vals: Vec<i32> = c_idx.iter().map(|&k| k as i32 + 1).collect();
                        let t_idx: Vec<_> = bits(t_pat).collect();
                        let t_vals: Vec<i32> = t_idx.iter().map(|&k| 10 * (k as i32 + 1)).collect();
                        let m_idx: Vec<_> = bits(m_pat).collect();
                        let mrow = MaskRow::from_cols(&m_idx, comp);

                        let mut got_i = Vec::new();
                        let mut got_v = Vec::new();
                        if acc {
                            write_row(
                                &c_idx,
                                &c_vals,
                                &t_idx,
                                &t_vals,
                                &Accum(Plus::<i32>::new()),
                                mrow,
                                repl,
                                &mut got_i,
                                &mut got_v,
                            );
                        } else {
                            write_row(
                                &c_idx, &c_vals, &t_idx, &t_vals, &NoAccum, mrow, repl, &mut got_i,
                                &mut got_v,
                            );
                        }

                        // model
                        let mut want: Vec<(usize, i32)> = Vec::new();
                        for j in 0..n {
                            let cv = c_idx.iter().position(|&x| x == j).map(|p| c_vals[p]);
                            let tv = t_idx.iter().position(|&x| x == j).map(|p| t_vals[p]);
                            let z = if acc {
                                match (cv, tv) {
                                    (Some(c), Some(t)) => Some(c + t),
                                    (Some(c), None) => Some(c),
                                    (None, Some(t)) => Some(t),
                                    (None, None) => None,
                                }
                            } else {
                                tv
                            };
                            let admitted = (m_idx.contains(&j)) != comp;
                            let out = if admitted {
                                z
                            } else if repl {
                                None
                            } else {
                                cv
                            };
                            if let Some(v) = out {
                                want.push((j, v));
                            }
                        }
                        let got: Vec<(usize, i32)> = got_i.into_iter().zip(got_v).collect();
                        assert_eq!(got, want,
                            "c={c_pat:04b} t={t_pat:04b} m={m_pat:04b} comp={comp} repl={repl} acc={acc}");
                    }
                }
            }
        }
    }
}
