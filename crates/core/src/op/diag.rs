//! Diagonal constructors/extractors (documented extension; GraphBLAS
//! 2.0's `GrB_Matrix_diag` and SuiteSparse's `GxB_Vector_diag`):
//! build a matrix carrying a vector on diagonal `k`, and read a
//! diagonal back out as a vector.

use crate::error::{dim_check, Error, Result};
use crate::exec::Context;
use crate::index::Index;
use crate::object::{Matrix, Vector};
use crate::scalar::Scalar;
use crate::storage::csr::Csr;
use crate::storage::engine::MatrixStore;
use crate::storage::vec::SparseVec;

impl Context {
    /// `GrB_Matrix_diag`: `C` (square, `size(v) + |k|` wide) holds `v`
    /// on diagonal `k` and nothing else.
    pub fn diag_matrix<T: Scalar>(&self, c: &Matrix<T>, v: &Vector<T>, k: i64) -> Result<()> {
        let n = v.size() + k.unsigned_abs() as usize;
        dim_check(c.shape() == (n, n), || {
            format!(
                "diag output must be {n}x{n} for a size-{} vector on diagonal {k}, got {:?}",
                v.size(),
                c.shape()
            )
        })?;
        let v_node = v.handle.capture();
        let deps = vec![v_node.clone() as _];
        let policy = c.handle.policy();
        let eval = move || {
            let st = v_node.ready_storage()?;
            let tuples = st.iter().map(|(i, val)| {
                let (r, c) = if k >= 0 {
                    (i, i + k as usize)
                } else {
                    (i + (-k) as usize, i)
                };
                (r, c, val.clone())
            });
            let csr = Csr::from_sorted_tuples(n, n, tuples);
            Ok(MatrixStore::from_csr(csr, policy))
        };
        self.submit("diag", &c.handle, deps, Box::new(eval))
    }

    /// `GxB_Vector_diag`: `w(i) = A(i, i + k)` for `k >= 0`
    /// (`A(i - k, i)` mirrored for `k < 0`), over stored elements.
    pub fn diag_extract<T: Scalar>(&self, w: &Vector<T>, a: &Matrix<T>, k: i64) -> Result<()> {
        let (m, n) = a.shape();
        let len = if k >= 0 {
            n.saturating_sub(k as usize).min(m)
        } else {
            m.saturating_sub((-k) as usize).min(n)
        };
        if len == 0 {
            return Err(Error::InvalidValue(format!(
                "diagonal {k} of a {m}x{n} matrix is empty"
            )));
        }
        dim_check(w.size() == len, || {
            format!("diag output must have size {len}, got {}", w.size())
        })?;
        let a_node = a.handle.capture();
        let deps = vec![a_node.clone() as _];
        let eval = move || {
            let st = a_node.ready_storage()?;
            let mut idx: Vec<Index> = Vec::new();
            let mut vals: Vec<T> = Vec::new();
            for d in 0..len {
                let (i, j) = if k >= 0 {
                    (d, d + k as usize)
                } else {
                    (d + (-k) as usize, d)
                };
                if let Some(v) = st.get(i, j) {
                    idx.push(d);
                    vals.push(v.clone());
                }
            }
            Ok(SparseVec::from_sorted_parts(len, idx, vals))
        };
        self.submit("diag", &w.handle, deps, Box::new(eval))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_diagonal_round_trip() {
        let ctx = Context::blocking();
        let v = Vector::from_tuples(3, &[(0, 1.0), (2, 3.0)]).unwrap();
        let c = Matrix::<f64>::new(3, 3).unwrap();
        ctx.diag_matrix(&c, &v, 0).unwrap();
        assert_eq!(c.extract_tuples().unwrap(), vec![(0, 0, 1.0), (2, 2, 3.0)]);
        let back = Vector::<f64>::new(3).unwrap();
        ctx.diag_extract(&back, &c, 0).unwrap();
        assert_eq!(back.extract_tuples().unwrap(), v.extract_tuples().unwrap());
    }

    #[test]
    fn off_diagonals() {
        let ctx = Context::blocking();
        let v = Vector::from_dense(&[7, 8]).unwrap();
        let up = Matrix::<i32>::new(3, 3).unwrap();
        ctx.diag_matrix(&up, &v, 1).unwrap();
        assert_eq!(up.extract_tuples().unwrap(), vec![(0, 1, 7), (1, 2, 8)]);
        let down = Matrix::<i32>::new(3, 3).unwrap();
        ctx.diag_matrix(&down, &v, -1).unwrap();
        assert_eq!(down.extract_tuples().unwrap(), vec![(1, 0, 7), (2, 1, 8)]);
        // extract the sub-diagonal back
        let w = Vector::<i32>::new(2).unwrap();
        ctx.diag_extract(&w, &down, -1).unwrap();
        assert_eq!(w.to_dense().unwrap(), vec![Some(7), Some(8)]);
    }

    #[test]
    fn rectangular_diag_extract() {
        let ctx = Context::blocking();
        let a = Matrix::from_tuples(2, 4, &[(0, 0, 1), (1, 1, 2), (1, 3, 9)]).unwrap();
        let w = Vector::<i32>::new(2).unwrap();
        ctx.diag_extract(&w, &a, 0).unwrap();
        assert_eq!(w.to_dense().unwrap(), vec![Some(1), Some(2)]);
        let w2 = Vector::<i32>::new(2).unwrap();
        ctx.diag_extract(&w2, &a, 2).unwrap();
        // A(1,3) = 9 lies on diagonal 2 at offset 1
        assert_eq!(w2.extract_tuples().unwrap(), vec![(1, 9)]);
    }

    #[test]
    fn dimension_and_emptiness_errors() {
        let ctx = Context::blocking();
        let v = Vector::<i32>::from_dense(&[1, 2]).unwrap();
        let wrong = Matrix::<i32>::new(2, 2).unwrap(); // needs 3x3 for k=1
        assert!(ctx.diag_matrix(&wrong, &v, 1).is_err());
        let a = Matrix::<i32>::new(2, 2).unwrap();
        let w = Vector::<i32>::new(2).unwrap();
        assert!(ctx.diag_extract(&w, &a, 5).is_err()); // empty diagonal
    }
}
