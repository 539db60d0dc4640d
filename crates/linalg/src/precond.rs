//! Block-Jacobi preconditioning for the matrix-free PCG solvers.
//!
//! The scalar Jacobi preconditioner (`z = r ⊘ diag`) ignores all coupling
//! between rows of the normal-equations operator `A·W·Aᵀ + ridge·I`. On
//! partitioned topologies that coupling has strong block structure: rows
//! belonging to one cluster (its link rows plus its marginal rows)
//! interact heavily with each other and only weakly — through boundary
//! links — with the rest. [`BlockJacobiPreconditioner`] inverts exactly
//! those per-cluster diagonal blocks: each block of `A·W·Aᵀ + ridge·I` is
//! assembled densely (via the existing weighted gram kernel on the
//! block's row slice) and Cholesky-factored once per solve, and every
//! preconditioner application solves the small triangular systems instead
//! of dividing by the diagonal. Rows not covered by any block — and any
//! block whose submatrix is not numerically positive definite — fall back
//! to the scalar Jacobi rule, so the preconditioner is always SPD and
//! never worse-defined than the scalar one.

use crate::cholesky::Cholesky;
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use crate::{LinalgError, Result};

/// A block-Jacobi preconditioner for operators of the form
/// `A·diag(w)·Aᵀ + ridge·I`, with per-block dense Cholesky factors and a
/// scalar-Jacobi fallback for uncovered rows.
///
/// Usage: [`BlockJacobiPreconditioner::factor`] once per solve (weights
/// change per bin), then hand [`BlockJacobiPreconditioner::apply`] to
/// [`crate::PcgWorkspace::solve_preconditioned`]. Buffers are
/// reused across factorizations, so a warm workspace allocates only when
/// block shapes change.
///
/// # Examples
///
/// ```
/// use ic_linalg::{BlockJacobiPreconditioner, Matrix, SparseMatrix};
///
/// let a = SparseMatrix::from_dense(
///     &Matrix::from_rows(&[&[2.0, 0.0, 1.0], &[0.0, 3.0, 1.0]]).unwrap(),
/// );
/// let mut bj = BlockJacobiPreconditioner::new();
/// bj.factor(&a, &[1.0, 1.0, 1.0], 0.0, &[vec![0, 1]]).unwrap();
/// let mut z = vec![0.0; 2];
/// bj.apply(&[1.0, 1.0], &mut z).unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlockJacobiPreconditioner {
    blocks: Vec<Vec<usize>>,
    factors: Vec<Option<Cholesky>>,
    diag: Vec<f64>,
    ridge: f64,
    rows: usize,
    factored: bool,
    buf_b: Vec<f64>,
    buf_x: Vec<f64>,
}

impl BlockJacobiPreconditioner {
    /// An empty preconditioner; call
    /// [`BlockJacobiPreconditioner::factor`] before applying it.
    pub fn new() -> Self {
        BlockJacobiPreconditioner::default()
    }

    /// Factors the per-block diagonal blocks of `a·diag(weights)·aᵀ +
    /// ridge·I` for the given disjoint row blocks.
    ///
    /// Each block's dense submatrix is assembled with the weighted gram
    /// kernel on the block's row slice and Cholesky-factored; a block
    /// that is not numerically positive definite falls back to the
    /// scalar rule for its rows. Rows not covered by any block use the
    /// scalar Jacobi rule (same non-positive/non-finite guard as
    /// [`crate::PcgWorkspace::solve`]). Block row indices must be
    /// in-range and globally disjoint.
    pub fn factor(
        &mut self,
        a: &SparseMatrix,
        weights: &[f64],
        ridge: f64,
        blocks: &[Vec<usize>],
    ) -> Result<()> {
        let rows = a.rows();
        if weights.len() != a.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "block_jacobi_factor",
                lhs: a.shape(),
                rhs: (weights.len(), 1),
            });
        }
        if !(ridge >= 0.0) || !ridge.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "block_jacobi: ridge must be non-negative and finite",
            ));
        }
        let mut seen = vec![false; rows];
        for block in blocks {
            for &r in block {
                if r >= rows {
                    return Err(LinalgError::InvalidArgument(
                        "block_jacobi: block row index out of bounds",
                    ));
                }
                if seen[r] {
                    return Err(LinalgError::InvalidArgument(
                        "block_jacobi: blocks must be disjoint",
                    ));
                }
                seen[r] = true;
            }
        }
        self.factored = false;
        self.rows = rows;
        self.ridge = ridge;
        // Scalar fallback diagonal for uncovered rows and non-PD blocks.
        self.diag.resize(rows, 0.0);
        a.awat_diag_into(weights, &mut self.diag)?;
        self.blocks.clear();
        self.blocks.extend(blocks.iter().cloned());
        self.factors.clear();
        let mut max_block = 0usize;
        for block in blocks {
            let s = block.len();
            max_block = max_block.max(s);
            if s == 0 {
                self.factors.push(None);
                continue;
            }
            // Dense block of A·W·Aᵀ restricted to this block's rows:
            // the weighted gram of the row slice, which costs O(nnz of
            // the slice · rows sharing each column) — cheap for cluster
            // blocks whose columns are shared by few rows.
            let sub = a.select_rows(block)?;
            let sub_t = sub.transpose();
            let mut dense = Matrix::zeros(s, s);
            sub.awat_into(weights, &sub_t, &mut dense)?;
            for i in 0..s {
                dense[(i, i)] += ridge;
            }
            self.factors.push(Cholesky::factor(&dense).ok());
        }
        self.buf_b.resize(max_block, 0.0);
        self.buf_x.resize(max_block, 0.0);
        self.factored = true;
        Ok(())
    }

    /// Applies the preconditioner: `z = P⁻¹·r`, block solves for covered
    /// rows and the scalar Jacobi rule elsewhere. Allocation-free.
    pub fn apply(&mut self, r: &[f64], z: &mut [f64]) -> Result<()> {
        if !self.factored {
            return Err(LinalgError::InvalidArgument(
                "block_jacobi: apply before factor",
            ));
        }
        if r.len() != self.rows || z.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "block_jacobi_apply",
                lhs: (self.rows, 1),
                rhs: (r.len(), z.len()),
            });
        }
        // Scalar Jacobi everywhere first (same guard as the PCG solver);
        // block solves overwrite their rows below.
        for (i, (zi, &ri)) in z.iter_mut().zip(r.iter()).enumerate() {
            let m = self.diag[i] + self.ridge;
            let m = if m > 0.0 && m.is_finite() { m } else { 1.0 };
            *zi = ri / m;
        }
        for (block, factor) in self.blocks.iter().zip(self.factors.iter()) {
            let Some(chol) = factor else { continue };
            let s = block.len();
            for (t, &row) in block.iter().enumerate() {
                self.buf_b[t] = r[row];
            }
            chol.solve_into(&self.buf_b[..s], &mut self.buf_x[..s])?;
            for (t, &row) in block.iter().enumerate() {
                z[row] = self.buf_x[t];
            }
        }
        Ok(())
    }

    /// Number of blocks in the last factorization.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks of the last factorization that fell back to the scalar
    /// rule (not numerically positive definite, or empty).
    pub fn fallback_blocks(&self) -> usize {
        self.factors.iter().filter(|f| f.is_none()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcgWorkspace;

    /// A 6x4 operator whose gram has two tightly coupled 3-row blocks
    /// joined by one shared column.
    fn clustered() -> (SparseMatrix, Vec<f64>) {
        let dense = Matrix::from_rows(&[
            &[2.0, 1.0, 0.0, 0.0],
            &[1.0, 2.0, 0.0, 0.0],
            &[0.5, 0.5, 0.1, 0.0],
            &[0.0, 0.0, 2.0, 1.0],
            &[0.0, 0.0, 1.0, 2.0],
            &[0.0, 0.1, 0.5, 0.5],
        ])
        .unwrap();
        let weights = vec![1.0, 0.5, 2.0, 1.5];
        (SparseMatrix::from_dense(&dense), weights)
    }

    #[test]
    fn blocks_invert_exactly() {
        let (a, w) = clustered();
        let ridge = 1e-3;
        let mut bj = BlockJacobiPreconditioner::new();
        bj.factor(&a, &w, ridge, &[vec![0, 1, 2], vec![3, 4, 5]])
            .unwrap();
        assert_eq!(bj.block_count(), 2);
        assert_eq!(bj.fallback_blocks(), 0);
        // Applying P⁻¹ to each column of the true block-diagonal matrix
        // must return the identity columns on block rows.
        let mut full = a.awat(&w).unwrap();
        for i in 0..6 {
            full[(i, i)] += ridge;
        }
        // Zero the off-diagonal coupling between the two blocks to get P.
        for i in 0..3 {
            for j in 3..6 {
                full[(i, j)] = 0.0;
                full[(j, i)] = 0.0;
            }
        }
        let mut z = vec![0.0; 6];
        for j in 0..6 {
            let col: Vec<f64> = (0..6).map(|i| full[(i, j)]).collect();
            bj.apply(&col, &mut z).unwrap();
            for (i, &v) in z.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-10, "P⁻¹P[{i},{j}] = {v}");
            }
        }
    }

    #[test]
    fn uncovered_rows_use_scalar_rule() {
        let (a, w) = clustered();
        let ridge = 0.5;
        let mut bj = BlockJacobiPreconditioner::new();
        bj.factor(&a, &w, ridge, &[vec![0, 1]]).unwrap();
        let mut diag = vec![0.0; 6];
        a.awat_diag_into(&w, &mut diag).unwrap();
        let r = vec![1.0; 6];
        let mut z = vec![0.0; 6];
        bj.apply(&r, &mut z).unwrap();
        for i in 2..6 {
            assert_eq!(z[i], 1.0 / (diag[i] + ridge), "row {i}");
        }
    }

    #[test]
    fn preconditioned_pcg_matches_scalar_and_iterates_less() {
        let (a, w) = clustered();
        let at = a.transpose();
        let ridge = 1e-6;
        let b: Vec<f64> = (0..6).map(|i| (i as f64 - 2.0) * 1.5 + 0.25).collect();
        let apply = |v: &[f64], y: &mut [f64]| {
            let mut tmp = a.matvec_transposed(v).unwrap();
            for (t, &wc) in tmp.iter_mut().zip(w.iter()) {
                *t *= wc;
            }
            at.matvec_transposed_into(&tmp, y)
        };

        let mut diag = vec![0.0; 6];
        a.awat_diag_into(&w, &mut diag).unwrap();
        let mut scalar_ws = PcgWorkspace::new();
        let mut x_scalar = vec![0.0; 6];
        let scalar = scalar_ws
            .solve(&diag, ridge, &b, &mut x_scalar, apply)
            .unwrap();
        assert!(scalar.converged);

        let mut bj = BlockJacobiPreconditioner::new();
        bj.factor(&a, &w, ridge, &[vec![0, 1, 2], vec![3, 4, 5]])
            .unwrap();
        let mut block_ws = PcgWorkspace::new();
        let mut x_block = vec![0.0; 6];
        let block = block_ws
            .solve_preconditioned(ridge, &b, &mut x_block, apply, |r, z| bj.apply(r, z))
            .unwrap();
        assert!(block.converged);
        assert!(
            block.iterations < scalar.iterations,
            "block-Jacobi should converge faster on a clustered operator: {} vs {}",
            block.iterations,
            scalar.iterations
        );
        for (s, bl) in x_scalar.iter().zip(x_block.iter()) {
            assert!((s - bl).abs() <= 1e-10 * (1.0 + s.abs()), "{s} vs {bl}");
        }
    }

    #[test]
    fn non_pd_block_falls_back_to_scalar() {
        // A row of zeros makes its 1x1 gram block 0 — not PD.
        let dense = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]).unwrap();
        let a = SparseMatrix::from_dense(&dense);
        let mut bj = BlockJacobiPreconditioner::new();
        bj.factor(&a, &[1.0, 1.0], 0.0, &[vec![0], vec![1]])
            .unwrap();
        assert_eq!(bj.fallback_blocks(), 1);
        let mut z = vec![0.0; 2];
        bj.apply(&[3.0, 5.0], &mut z).unwrap();
        assert_eq!(z[0], 3.0);
        // Zero diagonal, zero ridge → identity scaling, as in the solver.
        assert_eq!(z[1], 5.0);
    }

    #[test]
    fn rejects_bad_arguments() {
        let (a, w) = clustered();
        let mut bj = BlockJacobiPreconditioner::new();
        let mut z = vec![0.0; 6];
        // Apply before factor.
        assert!(bj.apply(&[0.0; 6], &mut z).is_err());
        // Bad weights length, ridge, indices, overlap.
        assert!(bj.factor(&a, &[1.0], 0.0, &[]).is_err());
        assert!(bj.factor(&a, &w, -1.0, &[]).is_err());
        assert!(bj.factor(&a, &w, f64::NAN, &[]).is_err());
        assert!(bj.factor(&a, &w, 0.0, &[vec![9]]).is_err());
        assert!(bj.factor(&a, &w, 0.0, &[vec![0], vec![0]]).is_err());
        // Shape mismatch on apply.
        bj.factor(&a, &w, 0.0, &[vec![0, 1]]).unwrap();
        assert!(bj.apply(&[0.0; 3], &mut z).is_err());
    }
}
