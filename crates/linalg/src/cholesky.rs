//! Cholesky factorization for symmetric positive-definite systems.
//!
//! The per-timestep activity solves of the Section 5.1 fitting program share
//! one normal-equations matrix `MᵀM` across all 2016 bins of a week; we
//! factor it once with [`Cholesky`] and back-substitute per bin, which is
//! what makes whole-week fits cheap.
//!
//! The factorization is right-looking, in panels of four columns, but every
//! entry of `L` still goes through the textbook order of operations:
//! `l_ij = (a_ij − l_i0·l_j0 − l_i1·l_j1 − …) / l_jj` (or its square root on
//! the diagonal), with `k` ascending, one rounded product and one rounded
//! subtraction per term, and no fused multiply-add. That order is why `L`,
//! and every dense result built on it, is bit-identical to the one-entry-
//! at-a-time dot-product kernel it replaced, which the `ic-linalg`
//! proptests keep as their oracle.
//!
//! One kernel, `factor_regularized_in_place`, factors for every caller:
//! [`Cholesky`] runs it on a copy of its input, and the dense side of
//! [`crate::NormalSolverWorkspace`] runs it on the Gram it has just
//! assembled, so a solve holds one `rows × rows` matrix, not two.

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// # Examples
///
/// ```
/// use ic_linalg::{Cholesky, Matrix};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
/// let ch = Cholesky::factor(&a).unwrap();
/// let x = ch.solve(&[8.0, 7.0]).unwrap();
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is trusted (callers in this workspace construct Gram
    /// matrices, which are symmetric by construction). Returns
    /// [`LinalgError::NotPositiveDefinite`] when a non-positive pivot is
    /// encountered.
    pub fn factor(a: &Matrix) -> Result<Self> {
        Cholesky::factor_regularized(a, 0.0)
    }

    /// Factors with a ridge term: `A + ridge * I`.
    ///
    /// Used to regularize nearly-singular normal equations (e.g. a
    /// preference solve when one node carries no traffic). Returns
    /// [`LinalgError::InvalidArgument`] for a negative ridge.
    pub fn factor_regularized(a: &Matrix, ridge: f64) -> Result<Self> {
        let mut l = a.clone();
        factor_regularized_in_place(&mut l, ridge)?;
        Ok(Cholesky { l })
    }

    /// Solves `A x = b` via forward + back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.l.rows()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-provided buffer (allocation-free;
    /// `x` may not alias `b`). Bit-identical to [`Cholesky::solve`].
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        solve_with_factor(&self.l, b, x)
    }

    /// Solves `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let x = self.solve(&b.col(j))?;
            for (i, &v) in x.iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Determinant of `A`, computed as `Π L_ii²`.
    pub fn det(&self) -> f64 {
        let mut d = 1.0;
        for i in 0..self.l.rows() {
            let lii = self.l[(i, i)];
            d *= lii * lii;
        }
        d
    }

    /// Log-determinant of `A` (numerically safer than `det().ln()`).
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| 2.0 * self.l[(i, i)].ln()).sum()
    }
}

fn validate_square(a: &Matrix) -> Result<()> {
    let (m, n) = a.shape();
    if m != n {
        return Err(LinalgError::InvalidArgument("cholesky: matrix not square"));
    }
    if n == 0 {
        return Err(LinalgError::InvalidArgument("cholesky: empty matrix"));
    }
    Ok(())
}

/// Factors `a + ridge·I` in place: on success `a` holds `L` with a zeroed
/// upper triangle. Only the lower triangle of `a` is read. On failure
/// (a negative ridge, a non-square or empty matrix, or a non-positive
/// pivot) `a` holds a partial factor and must be assembled again before
/// any other use.
pub(crate) fn factor_regularized_in_place(a: &mut Matrix, ridge: f64) -> Result<()> {
    if ridge < 0.0 {
        return Err(LinalgError::InvalidArgument(
            "cholesky: ridge must be non-negative",
        ));
    }
    validate_square(a)?;
    for i in 0..a.rows() {
        a[(i, i)] += ridge;
    }
    factor_in_place(a)
}

/// Columns per panel of [`factor_in_place`], whose trailing update is
/// written out for four.
const PANEL: usize = 4;

/// In-place lower-triangular factorization: on entry `l` holds `A` (only
/// the lower triangle is read), on success it holds `L` with a zeroed
/// upper triangle.
///
/// Right-looking, one panel of [`PANEL`] columns at a time: factor the
/// panel (pivots, square roots, divisions and the updates between its own
/// columns) while staging its columns transposed in the panel rows' upper
/// triangle, then subtract the panel's products from every trailing lower
/// entry. Each trailing entry is loaded and stored once per panel, and the
/// inner loop runs over contiguous slices with no loop-carried dependency.
///
/// The order invariant: entry `(i, j)` starts at `a_ij`, subtracts the
/// rounded products `l_ik·l_jk` one at a time for `k = 0, 1, …, j − 1`,
/// and then is divided by `l_jj` (or square-rooted on the diagonal). That
/// is exactly the order of the row-by-row dot-product kernel, so `L` is
/// bit-identical to it, pivots are computed in the same order and a
/// factorization fails at the same pivot.
fn factor_in_place(l: &mut Matrix) -> Result<()> {
    let n = l.rows();
    let a = l.as_mut_slice();
    for p in (0..n).step_by(PANEL) {
        let pe = (p + PANEL).min(n);
        // The panel's columns, row by row: the updates from k < p arrived
        // with the earlier panels, those from this panel's columns come
        // here. `l_ij` is also staged at `(j, i)`, in row `j`'s upper
        // triangle.
        for i in p..n {
            for j in p..pe.min(i + 1) {
                let mut s = a[i * n + j];
                for k in p..j {
                    s -= a[i * n + k] * a[j * n + k];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    a[i * n + i] = s.sqrt();
                } else {
                    a[i * n + j] = s / a[j * n + j];
                    a[j * n + i] = a[i * n + j];
                }
            }
        }
        // Trailing update of columns `pe..=i` of each row `i`. A panel that
        // ends before `n` is a full one.
        if pe < n {
            let (head, tail) = a.split_at_mut(pe * n);
            let staged = |k: usize| &head[(p + k) * n + pe..(p + k + 1) * n];
            let (t0, t1, t2, t3) = (staged(0), staged(1), staged(2), staged(3));
            for (m, row) in tail.chunks_exact_mut(n).enumerate() {
                let (done, rest) = row.split_at_mut(pe);
                let (l0, l1, l2, l3) = (done[p], done[p + 1], done[p + 2], done[p + 3]);
                for ((((x, &u0), &u1), &u2), &u3) in rest[..=m]
                    .iter_mut()
                    .zip(&t0[..=m])
                    .zip(&t1[..=m])
                    .zip(&t2[..=m])
                    .zip(&t3[..=m])
                {
                    *x = *x - l0 * u0 - l1 * u1 - l2 * u2 - l3 * u3;
                }
            }
        }
        // The staged columns, and any input above the diagonal, are done.
        for i in p..pe {
            a[i * n + i + 1..(i + 1) * n].fill(0.0);
        }
    }
    Ok(())
}

/// Forward + back substitution with a given factor, into `x`.
///
/// Uses `x` as the intermediate buffer: the forward pass writes `y` into
/// `x`, and the backward pass overwrites each slot only after its original
/// `y` value has been consumed.
pub(crate) fn solve_with_factor(l: &Matrix, b: &[f64], x: &mut [f64]) -> Result<()> {
    let n = l.rows();
    if b.len() != n || x.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky_solve",
            lhs: (n, n),
            rhs: (b.len(), 1),
        });
    }
    // Forward: L y = b.
    for i in 0..n {
        let mut s = b[i];
        for j in 0..i {
            s -= l[(i, j)] * x[j];
        }
        x[i] = s / l[(i, i)];
    }
    // Back: Lᵀ x = y.
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= l[(j, i)] * x[j];
        }
        x[i] = s / l[(i, i)];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I for a random-ish B, guaranteed SPD.
        let b = Matrix::from_rows(&[
            &[1.0, 2.0, 0.0],
            &[0.0, 1.0, 3.0],
            &[2.0, 0.0, 1.0],
            &[1.0, 1.0, 1.0],
        ])
        .unwrap();
        let mut a = b.gram();
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.l();
        let llt = l.matmul(&l.transpose()).unwrap();
        assert!(llt.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_round_trips() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = ch.solve(&b).unwrap();
        for (got, want) in x.iter().zip(x_true.iter()) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(Cholesky::factor(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn rejects_empty() {
        assert!(Cholesky::factor(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_negative_definite() {
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = [0.5, -1.0, 2.0];
        let mut x = [0.0; 3];
        ch.solve_into(&b, &mut x).unwrap();
        assert_eq!(x.to_vec(), ch.solve(&b).unwrap());
        assert!(ch.solve_into(&b, &mut [0.0; 2]).is_err());
    }

    #[test]
    fn ridge_rescues_singular() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
        let ch = Cholesky::factor_regularized(&a, 1e-6).unwrap();
        let x = ch.solve(&[2.0, 2.0]).unwrap();
        // Regularized solution is near (1, 1).
        assert!((x[0] - 1.0).abs() < 1e-3);
        assert!((x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn ridge_must_be_nonnegative() {
        let a = Matrix::identity(2);
        assert!(Cholesky::factor_regularized(&a, -1.0).is_err());
    }

    #[test]
    fn solve_validates_length() {
        let ch = Cholesky::factor(&Matrix::identity(3)).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let x = ch.solve_matrix(&b).unwrap();
        let back = a.matmul(&x).unwrap();
        assert!(back.approx_eq(&b, 1e-9));
        assert!(ch.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn determinant_of_identity() {
        let ch = Cholesky::factor(&Matrix::identity(4)).unwrap();
        assert!((ch.det() - 1.0).abs() < 1e-12);
        assert!(ch.log_det().abs() < 1e-12);
    }

    #[test]
    fn determinant_of_diagonal() {
        let a = Matrix::diag(&[2.0, 3.0, 4.0]);
        let ch = Cholesky::factor(&a).unwrap();
        assert!((ch.det() - 24.0).abs() < 1e-9);
        assert!((ch.log_det() - 24.0_f64.ln()).abs() < 1e-12);
    }
}
