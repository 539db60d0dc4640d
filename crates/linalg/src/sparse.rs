//! Compressed sparse row (CSR) matrices for the estimation hot path.
//!
//! Routing matrices are overwhelmingly sparse: a column of `R` holds one
//! entry per hop of one OD pair's path, so the density of a realistic
//! `links x n²` routing matrix falls like `1/links`. The dense kernels in
//! [`crate::matrix`] make every tomogravity/IPF/fit iteration
//! `O(links · n²)` regardless; [`SparseMatrix`] restores the
//! `O(nnz)` cost that lets the pipelines reach hundreds-of-nodes
//! topologies.
//!
//! The format is classic CSR: `row_ptr` (length `rows + 1`) delimits each
//! row's slice of `col_idx`/`values`, with column indices strictly
//! increasing inside a row. All operations are deterministic and
//! allocation-free in their `_into` variants, which is what the per-bin
//! estimation workspaces build on.

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// A sparse, row-major (CSR) matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use ic_linalg::{Matrix, SparseMatrix};
///
/// let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 3.0]]).unwrap();
/// let s = SparseMatrix::from_dense(&d);
/// assert_eq!(s.nnz(), 3);
/// assert_eq!(s.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![3.0, 3.0]);
/// assert_eq!(s.to_dense(), d);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Creates an empty `rows x cols` matrix (no stored entries).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SparseMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a CSR matrix from a dense one, dropping exact zeros.
    pub fn from_dense(dense: &Matrix) -> Self {
        let (rows, cols) = dense.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..rows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order; duplicates are summed and entries
    /// that cancel to exactly zero are dropped. Returns
    /// [`LinalgError::InvalidArgument`] when an index is out of bounds.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self> {
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        for (r, c, v) in triplets {
            if r >= rows || c >= cols {
                return Err(LinalgError::InvalidArgument(
                    "from_triplets: index out of bounds",
                ));
            }
            if v != 0.0 {
                entries.push((r, c, v));
            }
        }
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates, then drop anything that cancelled to exactly
        // zero so nnz/density/equality reflect the stored values.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(entries.len());
        for (r, c, v) in entries {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        merged.retain(|&(_, _, v)| v != 0.0);
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = merged.iter().map(|e| e.1).collect();
        let values = merged.iter().map(|e| e.2).collect();
        Ok(SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Materializes the dense equivalent.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let row = out.row_mut(i);
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                row[c] += v;
            }
        }
        out
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries stored: `nnz / (rows * cols)` (0 for an empty
    /// shape).
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Row `i` as parallel `(column indices, values)` slices.
    ///
    /// # Panics
    /// Panics if `i >= rows` (consistent with slice indexing).
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Copies column `j` into a dense vector (an `O(nnz)` scan; use the
    /// transpose for repeated column access).
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            if let Ok(k) = cols.binary_search(&j) {
                out[i] = vals[k];
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product into a caller-provided buffer
    /// (allocation-free).
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if v.len() != self.cols || out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        for (i, o) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut s = 0.0;
            for (&c, &a) in cols.iter().zip(vals.iter()) {
                s += a * v[c];
            }
            *o = s;
        }
        Ok(())
    }

    /// Transposed matrix-vector product `selfᵀ * v`, computed by row
    /// scatter (no transpose materialized).
    pub fn matvec_transposed(&self, v: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.cols];
        self.matvec_transposed_into(v, &mut out)?;
        Ok(out)
    }

    /// Transposed matrix-vector product into a caller-provided buffer.
    pub fn matvec_transposed_into(&self, v: &[f64], out: &mut [f64]) -> Result<()> {
        if v.len() != self.rows || out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_matvec_transposed",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        out.fill(0.0);
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(i);
            for (&c, &a) in cols.iter().zip(vals.iter()) {
                out[c] += vi * a;
            }
        }
        Ok(())
    }

    /// Builds a CSR matrix from compressed sparse column (CSC) arrays:
    /// column `j` holds the entries `row_idx[k]`, `values[k]` for `k` in
    /// `col_ptr[j]..col_ptr[j + 1]`.
    ///
    /// Within a column the rows may come in any order, but none may
    /// repeat. Every entry is stored as given, explicit zeros included.
    /// The conversion is a counting sort by row, `O(nnz + rows + cols)`,
    /// with no comparison sort. Returns [`LinalgError::InvalidArgument`]
    /// when the pointers are malformed, a row index is out of bounds or a
    /// column repeats a row.
    pub fn from_csc(
        rows: usize,
        cols: usize,
        col_ptr: &[usize],
        row_idx: &[usize],
        values: &[f64],
    ) -> Result<Self> {
        let well_formed = col_ptr.len() == cols + 1
            && col_ptr[0] == 0
            && col_ptr.windows(2).all(|w| w[0] <= w[1])
            && col_ptr[cols] == row_idx.len()
            && row_idx.len() == values.len();
        if !well_formed {
            return Err(LinalgError::InvalidArgument(
                "from_csc: column pointers do not delimit the entries",
            ));
        }
        if row_idx.iter().any(|&r| r >= rows) {
            return Err(LinalgError::InvalidArgument(
                "from_csc: row index out of bounds",
            ));
        }
        let out = csc_to_csr(rows, cols, col_ptr, row_idx, values);
        // Columns arrive in ascending order, so a repeated row inside a
        // column shows as two equal neighbours in that row.
        let repeated = (0..rows).any(|i| {
            out.col_idx[out.row_ptr[i]..out.row_ptr[i + 1]]
                .windows(2)
                .any(|w| w[0] == w[1])
        });
        if repeated {
            return Err(LinalgError::InvalidArgument(
                "from_csc: a column repeats a row",
            ));
        }
        Ok(out)
    }

    /// Returns the transpose as a new CSR matrix (counting sort; `O(nnz +
    /// rows + cols)`).
    pub fn transpose(&self) -> SparseMatrix {
        // The CSR arrays of `self` are the CSC arrays of its transpose.
        csc_to_csr(
            self.cols,
            self.rows,
            &self.row_ptr,
            &self.col_idx,
            &self.values,
        )
    }

    /// Computes `self · diag(weights) · selfᵀ` as a dense `rows x rows`
    /// matrix (the tomogravity normal-equations operator `A W Aᵀ`).
    ///
    /// The result is small and dense even when `self` is huge and sparse,
    /// so dense output is the right container. `transpose` must be the
    /// precomputed [`SparseMatrix::transpose`] of `self`; passing it in
    /// lets per-bin callers amortize the transposition.
    pub fn awat_into(
        &self,
        weights: &[f64],
        transpose: &SparseMatrix,
        out: &mut Matrix,
    ) -> Result<()> {
        if weights.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_awat",
                lhs: self.shape(),
                rhs: (weights.len(), 1),
            });
        }
        if transpose.shape() != (self.cols, self.rows) || out.shape() != (self.rows, self.rows) {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_awat",
                lhs: transpose.shape(),
                rhs: out.shape(),
            });
        }
        out.as_mut_slice().fill(0.0);
        for r1 in 0..self.rows {
            let (cols, vals) = self.row(r1);
            let out_row = out.row_mut(r1);
            for (&c, &v1) in cols.iter().zip(vals.iter()) {
                let coeff = v1 * weights[c];
                if coeff == 0.0 {
                    continue;
                }
                let (r2s, v2s) = transpose.row(c);
                for (&r2, &v2) in r2s.iter().zip(v2s.iter()) {
                    out_row[r2] += coeff * v2;
                }
            }
        }
        Ok(())
    }

    /// Convenience allocating form of [`SparseMatrix::awat_into`].
    pub fn awat(&self, weights: &[f64]) -> Result<Matrix> {
        let t = self.transpose();
        let mut out = Matrix::zeros(self.rows, self.rows);
        self.awat_into(weights, &t, &mut out)?;
        Ok(out)
    }

    /// Writes the diagonal of `self · diag(weights) · selfᵀ` into `out`
    /// without materializing the `rows x rows` matrix:
    /// `out[r] = Σ_c a_rc² · w_c`, an `O(nnz)` scan.
    ///
    /// This is the Jacobi preconditioner of the matrix-free PCG solver;
    /// for a PSD operator it also bounds the largest entry of the full
    /// gram matrix (the maximum of a PSD matrix lies on its diagonal), so
    /// the scale-aware ridge can be chosen from it alone.
    pub fn awat_diag_into(&self, weights: &[f64], out: &mut [f64]) -> Result<()> {
        if weights.len() != self.cols || out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_awat_diag",
                lhs: self.shape(),
                rhs: (weights.len(), out.len()),
            });
        }
        for (i, o) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut s = 0.0;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                s += v * v * weights[c];
            }
            *o = s;
        }
        Ok(())
    }

    /// Vertical concatenation `[self ; rhs]`; column counts must match.
    pub fn vstack(&self, rhs: &SparseMatrix) -> Result<SparseMatrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "sparse_vstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut row_ptr = Vec::with_capacity(self.rows + rhs.rows + 1);
        row_ptr.extend_from_slice(&self.row_ptr);
        let base = self.nnz();
        row_ptr.extend(rhs.row_ptr.iter().skip(1).map(|&p| p + base));
        let mut col_idx = Vec::with_capacity(self.nnz() + rhs.nnz());
        col_idx.extend_from_slice(&self.col_idx);
        col_idx.extend_from_slice(&rhs.col_idx);
        let mut values = Vec::with_capacity(self.nnz() + rhs.nnz());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&rhs.values);
        Ok(SparseMatrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// True when every stored value is finite.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

/// The CSR form of a `rows x cols` matrix given by CSC arrays whose
/// pointers and row indices are in bounds: a counting sort by row that
/// visits columns in ascending order, so each row's columns come out
/// ascending.
fn csc_to_csr(
    rows: usize,
    cols: usize,
    col_ptr: &[usize],
    row_idx: &[usize],
    values: &[f64],
) -> SparseMatrix {
    let mut row_ptr = vec![0usize; rows + 1];
    for &r in row_idx {
        row_ptr[r + 1] += 1;
    }
    for i in 0..rows {
        row_ptr[i + 1] += row_ptr[i];
    }
    let mut col_idx = vec![0usize; row_idx.len()];
    let mut out_values = vec![0.0; row_idx.len()];
    let mut next = row_ptr[..rows].to_vec();
    for j in 0..cols {
        let span = col_ptr[j]..col_ptr[j + 1];
        for (&r, &v) in row_idx[span.clone()].iter().zip(&values[span]) {
            let pos = next[r];
            next[r] += 1;
            col_idx[pos] = j;
            out_values[pos] = v;
        }
    }
    SparseMatrix {
        rows,
        cols,
        row_ptr,
        col_idx,
        values: out_values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 0.0, 2.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[3.0, 4.0, 0.0, 5.0],
        ])
        .unwrap()
    }

    #[test]
    fn dense_round_trip() {
        let d = sample_dense();
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.shape(), (3, 4));
        assert_eq!(s.nnz(), 5);
        assert_eq!(s.to_dense(), d);
        assert!((s.density() - 5.0 / 12.0).abs() < 1e-15);
        assert!(s.all_finite());
    }

    #[test]
    fn triplets_match_dense_build() {
        let d = sample_dense();
        let mut trips = Vec::new();
        for i in 0..3 {
            for j in 0..4 {
                if d[(i, j)] != 0.0 {
                    trips.push((i, j, d[(i, j)]));
                }
            }
        }
        // Out-of-order with a duplicate split in two halves.
        trips.reverse();
        trips.push((2, 1, 2.0));
        trips.push((2, 1, 2.0));
        let s = SparseMatrix::from_triplets(3, 4, trips).unwrap();
        let mut expect = d.clone();
        expect[(2, 1)] += 4.0;
        assert_eq!(s.to_dense(), expect);
        assert!(SparseMatrix::from_triplets(2, 2, [(2, 0, 1.0)]).is_err());
        assert!(SparseMatrix::from_triplets(2, 2, [(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn cancelled_duplicates_are_dropped() {
        let s =
            SparseMatrix::from_triplets(2, 2, [(0, 0, 1.0), (0, 0, -1.0), (1, 1, 2.0)]).unwrap();
        assert_eq!(s.nnz(), 1);
        assert_eq!(s, SparseMatrix::from_triplets(2, 2, [(1, 1, 2.0)]).unwrap());
        assert_eq!(s.to_dense()[(1, 1)], 2.0);
    }

    #[test]
    fn empty_rows_and_zeros() {
        let s = SparseMatrix::zeros(3, 5);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.to_dense(), Matrix::zeros(3, 5));
        let s = SparseMatrix::from_triplets(3, 5, [(1, 1, 0.0)]).unwrap();
        assert_eq!(s.nnz(), 0);
        assert_eq!(SparseMatrix::zeros(0, 0).density(), 0.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let d = sample_dense();
        let s = SparseMatrix::from_dense(&d);
        let v = [1.0, -2.0, 0.5, 3.0];
        assert_eq!(s.matvec(&v).unwrap(), d.matvec(&v).unwrap());
        assert!(s.matvec(&[1.0]).is_err());
        let mut out = vec![0.0; 2];
        assert!(s.matvec_into(&v, &mut out).is_err());
    }

    #[test]
    fn matvec_transposed_matches_dense() {
        let d = sample_dense();
        let s = SparseMatrix::from_dense(&d);
        let v = [2.0, -1.0, 0.25];
        assert_eq!(
            s.matvec_transposed(&v).unwrap(),
            d.matvec_transposed(&v).unwrap()
        );
        assert!(s.matvec_transposed(&[1.0]).is_err());
    }

    #[test]
    fn transpose_matches_dense() {
        let d = sample_dense();
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.transpose().to_dense(), d.transpose());
        assert_eq!(s.transpose().transpose().to_dense(), d);
    }

    #[test]
    fn csc_arrays_build_the_same_csr() {
        let d = sample_dense();
        // Column by column, rows out of order inside column 0.
        let col_ptr = [0, 2, 3, 4, 5];
        let row_idx = [2, 0, 2, 0, 2];
        let values = [3.0, 1.0, 4.0, 2.0, 5.0];
        let s = SparseMatrix::from_csc(3, 4, &col_ptr, &row_idx, &values).unwrap();
        assert_eq!(s, SparseMatrix::from_dense(&d));
        // An explicit zero is stored as given.
        let z = SparseMatrix::from_csc(2, 1, &[0, 1], &[1], &[0.0]).unwrap();
        assert_eq!((z.nnz(), z.row(1)), (1, (&[0][..], &[0.0][..])));
        let empty = SparseMatrix::from_csc(2, 0, &[0], &[], &[]).unwrap();
        assert_eq!(empty, SparseMatrix::zeros(2, 0));
        // Malformed pointers, an out-of-bounds row, a repeated row.
        for (ptr, rows) in [
            (&[0, 1][..], &[0][..]),
            (&[1, 1, 1], &[0]),
            (&[0, 2, 1], &[0, 1]),
            (&[0, 1, 3], &[0, 1]),
            (&[0, 1, 2], &[0, 3]),
            (&[0, 2, 2], &[1, 1]),
        ] {
            let values = vec![1.0; rows.len()];
            assert!(
                SparseMatrix::from_csc(3, 2, ptr, rows, &values).is_err(),
                "{ptr:?} {rows:?}"
            );
        }
        assert!(SparseMatrix::from_csc(3, 1, &[0, 1], &[0], &[]).is_err());
    }

    #[test]
    fn col_extraction() {
        let d = sample_dense();
        let s = SparseMatrix::from_dense(&d);
        for j in 0..4 {
            assert_eq!(s.col(j), d.col(j));
        }
    }

    #[test]
    fn awat_matches_dense_computation() {
        let d = sample_dense();
        let s = SparseMatrix::from_dense(&d);
        let w = [0.5, 2.0, 1.0, 3.0];
        // Dense reference: A · diag(w) · Aᵀ.
        let aw = {
            let mut m = d.clone();
            for i in 0..m.rows() {
                for (j, v) in m.row_mut(i).iter_mut().enumerate() {
                    *v *= w[j];
                }
            }
            m
        };
        let expect = aw.matmul(&d.transpose()).unwrap();
        let got = s.awat(&w).unwrap();
        assert!(got.approx_eq(&expect, 1e-12));
        // The _into variant with a stale transpose shape errors.
        let mut out = Matrix::zeros(3, 3);
        assert!(s.awat_into(&w, &s, &mut out).is_err());
        assert!(s.awat(&[1.0]).is_err());
    }

    #[test]
    fn awat_diag_matches_full_awat() {
        let d = sample_dense();
        let s = SparseMatrix::from_dense(&d);
        let w = [0.5, 2.0, 1.0, 3.0];
        let full = s.awat(&w).unwrap();
        let mut diag = vec![0.0; 3];
        s.awat_diag_into(&w, &mut diag).unwrap();
        for (i, &v) in diag.iter().enumerate() {
            assert!((v - full[(i, i)]).abs() < 1e-15, "diag[{i}] {v}");
        }
        assert!(s.awat_diag_into(&[1.0], &mut diag).is_err());
        let mut short = vec![0.0; 2];
        assert!(s.awat_diag_into(&w, &mut short).is_err());
    }

    #[test]
    fn vstack_matches_dense() {
        let d = sample_dense();
        let s = SparseMatrix::from_dense(&d);
        let stacked = s.vstack(&s).unwrap();
        assert_eq!(stacked.to_dense(), d.vstack(&d).unwrap());
        let other = SparseMatrix::zeros(1, 3);
        assert!(s.vstack(&other).is_err());
    }
}
