//! Write masks (paper, Section III-C).
//!
//! A mask has *structure* but no values: it is the set of positions at
//! which an operation may write its output. Any matrix or vector whose
//! domain casts to Boolean can serve as a mask — a stored element belongs
//! to the mask structure iff its value casts to `true` (Figure 2: "the
//! elements of the boolean write mask that exist and are true"), or
//! unconditionally under the `GrB_STRUCTURE` descriptor extension.
//! The `GrB_SCMP` descriptor selects the *structural complement*
//! `L(¬M) = {(i,j) : (i,j) ∉ L(M)}`.
//!
//! This module holds the kernel-facing evaluated form ([`MaskCsr`],
//! [`MaskVec`]): an effective pattern plus a complement flag. The
//! complement is never materialized (it is dense); membership tests fold
//! the flag in.

use crate::index::Index;
use crate::scalar::AsBool;
use crate::storage::csr::Csr;
use crate::storage::vec::SparseVec;

/// Marker for "no mask supplied" (`Mask = GrB_NULL`): every position of
/// the output is admitted.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMask;

/// A structure-only pattern: CSR over the unit type.
pub type Pattern = Csr<()>;
/// A structure-only 1D pattern.
pub type VecPattern = SparseVec<()>;

/// A fully evaluated two-dimensional mask, as consumed by kernels and the
/// masked-write stage.
#[derive(Debug, Clone)]
pub enum MaskCsr {
    /// No mask: all positions admitted.
    All,
    /// Admit positions in (or, if `complement`, not in) `pattern`.
    Pattern { pattern: Pattern, complement: bool },
}

impl MaskCsr {
    /// Evaluate a mask from a Boolean-castable matrix, applying the
    /// descriptor's `STRUCTURE` and `SCMP` options.
    pub fn from_csr<M: AsBool>(m: &Csr<M>, structural: bool, complement: bool) -> MaskCsr {
        let pattern = if structural {
            m.map(|_| ())
        } else {
            let mut row_ptr = Vec::with_capacity(m.nrows() + 1);
            row_ptr.push(0);
            let mut cols = Vec::with_capacity(m.nvals());
            for i in 0..m.nrows() {
                let (mc, mv) = m.row(i);
                cols.extend(
                    mc.iter()
                        .zip(mv)
                        .filter(|(_, v)| v.as_bool())
                        .map(|(&j, _)| j),
                );
                row_ptr.push(cols.len());
            }
            let units = vec![(); cols.len()];
            Pattern::from_parts(m.nrows(), m.ncols(), row_ptr, cols, units)
        };
        MaskCsr::Pattern {
            pattern,
            complement,
        }
    }

    /// `true` when every position is admitted (fast-path check).
    pub fn admits_all(&self) -> bool {
        matches!(self, MaskCsr::All)
    }

    /// Membership test for a single position.
    pub fn admits(&self, i: Index, j: Index) -> bool {
        match self {
            MaskCsr::All => true,
            MaskCsr::Pattern {
                pattern,
                complement,
            } => pattern.get(i, j).is_some() != *complement,
        }
    }

    /// Row view for merge kernels.
    pub fn row(&self, i: Index) -> MaskRow<'_> {
        match self {
            MaskCsr::All => MaskRow {
                cols: None,
                complement: false,
            },
            MaskCsr::Pattern {
                pattern,
                complement,
            } => MaskRow {
                cols: Some(pattern.row(i).0),
                complement: *complement,
            },
        }
    }
}

/// One row of an evaluated 2D mask (or the whole of a 1D mask).
#[derive(Debug, Clone, Copy)]
pub struct MaskRow<'a> {
    /// Sorted admitted (or, under complement, excluded) columns; `None`
    /// means "no mask" (everything admitted).
    cols: Option<&'a [Index]>,
    complement: bool,
}

impl<'a> MaskRow<'a> {
    /// A row that admits everything.
    pub fn all() -> MaskRow<'static> {
        MaskRow {
            cols: None,
            complement: false,
        }
    }

    /// Build from a sorted pattern slice.
    pub fn from_cols(cols: &'a [Index], complement: bool) -> MaskRow<'a> {
        MaskRow {
            cols: Some(cols),
            complement,
        }
    }

    /// Membership test (binary search; O(log nnz(row))).
    #[inline]
    pub fn admits(&self, j: Index) -> bool {
        match self.cols {
            None => true,
            Some(cols) => cols.binary_search(&j).is_ok() != self.complement,
        }
    }

    /// `true` if no position in this row can be admitted (empty pattern,
    /// not complemented — lets kernels skip the row entirely).
    #[inline]
    pub fn admits_nothing(&self) -> bool {
        match self.cols {
            None => false,
            Some(cols) => cols.is_empty() && !self.complement,
        }
    }

    /// `true` if every position in this row is admitted.
    #[inline]
    pub fn admits_everything(&self) -> bool {
        match self.cols {
            None => true,
            Some(cols) => cols.is_empty() && self.complement,
        }
    }

    /// The underlying sorted pattern and complement flag
    /// (`None` pattern = admit all).
    pub fn raw(&self) -> (Option<&'a [Index]>, bool) {
        (self.cols, self.complement)
    }

    /// A monotone membership cursor over this row.
    pub(crate) fn cursor(self) -> MaskCursor<'a> {
        MaskCursor {
            cols: self.cols,
            complement: self.complement,
            pos: 0,
        }
    }

    /// Scatter admissibility into a dense Boolean workspace (used by the
    /// random-access SpGEMM kernel). `workspace` must be at least the row
    /// width and all-`false` on entry for the non-complement case; entries
    /// touched are recorded so the caller can reset them.
    ///
    /// Returns the complement flag the caller must XOR against lookups:
    /// `admitted(j) = workspace[j] != returned_flag`.
    pub fn scatter(&self, workspace: &mut [bool], touched: &mut Vec<Index>) -> bool {
        if let Some(cols) = self.cols {
            for &j in cols {
                if !workspace[j] {
                    workspace[j] = true;
                    touched.push(j);
                }
            }
        }
        match self.cols {
            None => true, // workspace all false, admitted = !false != ... => with flag true: false != true = true
            Some(_) => self.complement,
        }
    }
}

/// Monotone membership cursor over a sorted mask row: queries must come
/// with non-decreasing `j`, giving O(nnz(mask row)) total instead of a
/// binary search per query.
pub(crate) struct MaskCursor<'a> {
    cols: Option<&'a [Index]>,
    complement: bool,
    pos: usize,
}

impl MaskCursor<'_> {
    #[inline]
    pub(crate) fn admits(&mut self, j: Index) -> bool {
        match self.cols {
            None => true,
            Some(cols) => {
                while self.pos < cols.len() && cols[self.pos] < j {
                    self.pos += 1;
                }
                let stored = self.pos < cols.len() && cols[self.pos] == j;
                stored != self.complement
            }
        }
    }
}

/// A fully evaluated one-dimensional mask.
#[derive(Debug, Clone)]
pub enum MaskVec {
    All,
    Pattern {
        indices: Vec<Index>,
        complement: bool,
    },
}

impl MaskVec {
    /// Evaluate from a Boolean-castable vector.
    pub fn from_vec<M: AsBool>(m: &SparseVec<M>, structural: bool, complement: bool) -> MaskVec {
        let indices: Vec<Index> = m
            .iter()
            .filter(|(_, v)| structural || v.as_bool())
            .map(|(i, _)| i)
            .collect();
        MaskVec::Pattern {
            indices,
            complement,
        }
    }

    pub fn admits_all(&self) -> bool {
        matches!(self, MaskVec::All)
    }

    pub fn admits(&self, i: Index) -> bool {
        match self {
            MaskVec::All => true,
            MaskVec::Pattern {
                indices,
                complement,
            } => indices.binary_search(&i).is_ok() != *complement,
        }
    }

    /// View as a [`MaskRow`] for the shared merge kernels.
    pub fn as_row(&self) -> MaskRow<'_> {
        match self {
            MaskVec::All => MaskRow::all(),
            MaskVec::Pattern {
                indices,
                complement,
            } => MaskRow::from_cols(indices, *complement),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::csr::Csr;

    fn mask_src() -> Csr<i32> {
        // values: stored-but-false entries (0) are NOT mask members unless
        // structural
        Csr::from_sorted_tuples(2, 4, vec![(0, 1, 1), (0, 2, 0), (1, 0, 7)])
    }

    #[test]
    fn value_mode_drops_stored_falses() {
        let m = MaskCsr::from_csr(&mask_src(), false, false);
        assert!(m.admits(0, 1));
        assert!(!m.admits(0, 2)); // stored 0 casts to false
        assert!(m.admits(1, 0));
        assert!(!m.admits(1, 3));
    }

    #[test]
    fn structural_mode_keeps_stored_falses() {
        let m = MaskCsr::from_csr(&mask_src(), true, false);
        assert!(m.admits(0, 2));
        assert!(!m.admits(0, 0));
    }

    #[test]
    fn complement_is_structural_complement() {
        // L(¬m) = all positions not in L(m) — paper §III-C
        let m = MaskCsr::from_csr(&mask_src(), false, true);
        assert!(!m.admits(0, 1));
        assert!(m.admits(0, 2)); // stored false -> not a member -> complement admits
        assert!(m.admits(0, 0));
        assert!(!m.admits(1, 0));
    }

    #[test]
    fn complement_partitions_positions() {
        let plain = MaskCsr::from_csr(&mask_src(), false, false);
        let comp = MaskCsr::from_csr(&mask_src(), false, true);
        for i in 0..2 {
            for j in 0..4 {
                assert_ne!(plain.admits(i, j), comp.admits(i, j));
            }
        }
    }

    #[test]
    fn no_mask_admits_everything() {
        let m = MaskCsr::All;
        assert!(m.admits_all());
        assert!(m.admits(5, 9));
        assert!(m.row(0).admits(3));
    }

    #[test]
    fn mask_row_queries() {
        let m = MaskCsr::from_csr(&mask_src(), false, false);
        let r0 = m.row(0);
        assert!(r0.admits(1));
        assert!(!r0.admits(2));
        assert!(!r0.admits_nothing());
        let r_empty = MaskCsr::from_csr(&Csr::<bool>::empty(2, 2), false, false);
        assert!(r_empty.row(0).admits_nothing());
        let r_full = MaskCsr::from_csr(&Csr::<bool>::empty(2, 2), false, true);
        assert!(r_full.row(1).admits_everything());
    }

    #[test]
    fn scatter_semantics() {
        let m = MaskCsr::from_csr(&mask_src(), false, false);
        let mut ws = vec![false; 4];
        let mut touched = Vec::new();
        let flag = m.row(0).scatter(&mut ws, &mut touched);
        // admitted(j) = ws[j] != flag
        assert!(ws[1] != flag); // admitted
        assert!(ws[3] == flag); // not admitted
        assert_eq!(touched, vec![1]);

        // complemented
        let mc = MaskCsr::from_csr(&mask_src(), false, true);
        let mut ws = vec![false; 4];
        let mut touched = Vec::new();
        let flag = mc.row(0).scatter(&mut ws, &mut touched);
        assert!(ws[1] == flag);
        assert!(ws[3] != flag);
    }

    #[test]
    fn vector_masks() {
        let v = SparseVec::from_sorted_parts(5, vec![1, 3], vec![true, false]);
        let m = MaskVec::from_vec(&v, false, false);
        assert!(m.admits(1));
        assert!(!m.admits(3)); // stored false
        assert!(!m.admits(0));
        let ms = MaskVec::from_vec(&v, true, false);
        assert!(ms.admits(3));
        let mc = MaskVec::from_vec(&v, false, true);
        assert!(!mc.admits(1));
        assert!(mc.admits(0));
        assert!(MaskVec::All.admits(4));
    }
}
