//! Row-major dense matrix type and elementwise / BLAS-like operations.
//!
//! [`Matrix`] is the workhorse container for every numerical pipeline in the
//! workspace: traffic matrices organized as vectors, routing matrices and
//! the design matrices of the fitting sub-problems all live in this type.

use crate::{LinalgError, Result};

/// A dense, row-major matrix of `f64` values.
///
/// The storage is a single `Vec<f64>` of length `rows * cols`; element
/// `(i, j)` lives at index `i * cols + j`. Indexing via `m[(i, j)]` panics
/// on out-of-bounds exactly like slice indexing; all *algebraic* operations
/// return [`Result`] and never panic on shape errors.
///
/// # Examples
///
/// ```
/// use ic_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every entry equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != rows *
    /// cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(
                "data length does not match rows * cols",
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of row slices.
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the rows are ragged or
    /// the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidArgument("from_rows: empty input"));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::InvalidArgument("from_rows: ragged rows"));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a square diagonal matrix from the given diagonal entries.
    pub fn diag(values: &[f64]) -> Self {
        let n = values.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in values.iter().enumerate() {
            m.data[i * n + i] = v;
        }
        m
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

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Gives the matrix the shape `rows x cols` within its allocation: a
    /// matrix of that shape keeps its entries, one of any other shape
    /// becomes all zeros. The storage grows only past its capacity, so a
    /// workspace matrix that alternates between shapes stops reallocating
    /// once it has held the largest.
    pub fn ensure_shape(&mut self, rows: usize, cols: usize) {
        if self.shape() != (rows, cols) {
            self.data.clear();
            self.data.resize(rows * cols, 0.0);
            self.rows = rows;
            self.cols = cols;
        }
    }

    /// Immutable access to the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major storage.
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Immutable view of row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= rows` (consistent with slice indexing).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh `Vec`.
    ///
    /// # Panics
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds");
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Checked element access; `None` when out of bounds.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Sets element `(i, j)`, returning an error when out of bounds.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> Result<()> {
        if i < self.rows && j < self.cols {
            self.data[i * self.cols + j] = value;
            Ok(())
        } else {
            Err(LinalgError::InvalidArgument("set: index out of bounds"))
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless
    /// `self.cols == rhs.rows`. The kernel is a cache-friendly i-k-j loop.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless `self.cols == v.len()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *o = dot(row, v);
        }
        Ok(out)
    }

    /// Transposed matrix-vector product `selfᵀ * v`.
    ///
    /// Computed without materializing the transpose.
    pub fn matvec_transposed(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.rows != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_transposed",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &r) in out.iter_mut().zip(row.iter()) {
                *o += vi * r;
            }
        }
        Ok(out)
    }

    /// Computes the Gram matrix `selfᵀ * self` (symmetric `cols x cols`)
    /// without materializing the transpose.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        for i in 0..self.rows {
            let row = &self.data[i * n..(i + 1) * n];
            for (a, &ra) in row.iter().enumerate() {
                if ra == 0.0 {
                    continue;
                }
                for (b, &rb) in row.iter().enumerate().skip(a) {
                    out.data[a * n + b] += ra * rb;
                }
            }
        }
        // Mirror the upper triangle.
        for a in 0..n {
            for b in (a + 1)..n {
                out.data[b * n + a] = out.data[a * n + b];
            }
        }
        out
    }

    /// Elementwise sum; shapes must match.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference; shapes must match.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product; shapes must match.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every entry by `s`, in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_in_place(s);
        out
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Frobenius norm `sqrt(Σ a_ij²)`.
    pub fn frobenius_norm(&self) -> f64 {
        norm2(&self.data)
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum absolute entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Per-row sums as a vector of length `rows`.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Per-column sums as a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(i).iter()) {
                *o += v;
            }
        }
        out
    }

    /// Horizontal concatenation `[self | rhs]`; row counts must match.
    pub fn hstack(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let cols = self.cols + rhs.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
            data.extend_from_slice(rhs.row(i));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Vertical concatenation `[self ; rhs]`; column counts must match.
    pub fn vstack(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = Vec::with_capacity((self.rows + rhs.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Ok(Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        })
    }

    /// True when every entry is finite (no NaN / infinities).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Approximate equality: every entry within `tol` of `rhs`'s.
    pub fn approx_eq(&self, rhs: &Matrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self
                .data
                .iter()
                .zip(rhs.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl core::fmt::Display for Matrix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>12.5} ", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length (programmer error at call sites
/// inside this workspace; all external entry points validate shapes first).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Euclidean norm of a slice, computed with scaling to avoid overflow.
pub fn norm2(v: &[f64]) -> f64 {
    let max = v.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
    if max == 0.0 || !max.is_finite() {
        return if max.is_finite() { 0.0 } else { f64::INFINITY };
    }
    let sum: f64 = v.iter().map(|&x| (x / max) * (x / max)).sum();
    max * sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn indexing_round_trips() {
        let mut m = sample();
        assert_eq!(m[(1, 2)], 6.0);
        m[(1, 2)] = 9.0;
        assert_eq!(m[(1, 2)], 9.0);
        assert_eq!(m.get(5, 0), None);
        assert!(m.set(0, 0, 7.0).is_ok());
        assert!(m.set(9, 9, 7.0).is_err());
        assert_eq!(m[(0, 0)], 7.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = sample();
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul(&i3).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = sample();
        assert!(matches!(
            a.matmul(&a),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = sample();
        let v = [1.0, -1.0, 2.0];
        let got = m.matvec(&v).unwrap();
        assert_eq!(got, vec![5.0, 11.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = sample();
        let v = [1.0, 2.0];
        let got = m.matvec_transposed(&v).unwrap();
        let expect = m.transpose().matvec(&v).unwrap();
        assert_eq!(got, expect);
        assert!(m.matvec_transposed(&[1.0]).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let m = sample();
        let g = m.gram();
        let expect = m.transpose().matmul(&m).unwrap();
        assert!(g.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 5.0]]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[3.0, 10.0]);
        let c = Matrix::zeros(2, 2);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn scaling_and_map() {
        let mut a = Matrix::from_rows(&[&[1.0, -2.0]]).unwrap();
        a.scale_in_place(3.0);
        assert_eq!(a.as_slice(), &[3.0, -6.0]);
        assert_eq!(a.scaled(0.5).as_slice(), &[1.5, -3.0]);
        assert_eq!(a.map(f64::abs).as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn norms_and_sums() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.sum(), 7.0);
        assert_eq!(m.max_abs(), 4.0);
        let s = sample();
        assert_eq!(s.row_sums(), vec![6.0, 15.0]);
        assert_eq!(s.col_sums(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let c = Matrix::zeros(2, 3);
        assert!(a.hstack(&c).is_err());
        assert!(a.vstack(&c).is_err());
    }

    #[test]
    fn rows_cols_views() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn finite_checks() {
        let mut m = sample();
        assert!(m.all_finite());
        m[(0, 0)] = f64::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn norm2_handles_extremes() {
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        // Values that would overflow a naive sum of squares.
        let big = 1e200;
        let n = norm2(&[big, big]);
        assert!((n - big * core::f64::consts::SQRT_2).abs() / n < 1e-12);
    }

    #[test]
    fn dot_of_equal_length_slices() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn ensure_shape_reshapes_within_capacity_to_zeros() {
        let mut m = Matrix::filled(4, 5, 3.0);
        let capacity = m.data.capacity();
        // The same shape keeps its entries.
        m.ensure_shape(4, 5);
        assert_eq!(m, Matrix::filled(4, 5, 3.0));
        m.ensure_shape(2, 3);
        assert_eq!(m, Matrix::zeros(2, 3));
        m.as_mut_slice().fill(7.0);
        m.ensure_shape(5, 4);
        assert_eq!(m, Matrix::zeros(5, 4));
        assert_eq!(
            m.data.capacity(),
            capacity,
            "no reallocation within capacity"
        );
        // Past the capacity the storage grows.
        m.ensure_shape(6, 6);
        assert_eq!(m, Matrix::zeros(6, 6));
    }

    #[test]
    fn display_does_not_panic_on_large() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains("..."));
    }

    #[test]
    fn diag_builds_diagonal() {
        let d = Matrix::diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.shape(), (3, 3));
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }
}
