//! One-sided Jacobi singular value decomposition.
//!
//! The pseudo-inverse ([`crate::pinv`]) factors through this SVD. What it
//! meets is rank-deficient: a normal matrix `A·W·Aᵀ` whose routing rows
//! are dependent (ingress and egress totals always agree). A
//! rank-revealing SVD is therefore required; one-sided Jacobi is simple,
//! numerically robust, and plenty fast at traffic-matrix scales (a few
//! hundred columns).

use crate::matrix::{dot, norm2, Matrix};
use crate::{rank_tolerance, LinalgError, Result};

/// Thin singular value decomposition `A = U Σ Vᵀ`.
///
/// For an `m x n` input with `m >= n`: `U` is `m x n` with orthonormal
/// columns, `Σ` is the vector of `n` non-negative singular values in
/// non-increasing order, and `V` is `n x n` orthogonal. Inputs with
/// `m < n` are factored via the transpose.
///
/// # Examples
///
/// ```
/// use ic_linalg::{Matrix, Svd};
///
/// let a = Matrix::diag(&[3.0, 2.0]);
/// let svd = Svd::factor(&a).unwrap();
/// assert!((svd.singular_values()[0] - 3.0).abs() < 1e-12);
/// assert!((svd.singular_values()[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    u: Matrix,
    sigma: Vec<f64>,
    v: Matrix,
    /// True when the factorization was computed on `Aᵀ` and U/V are swapped
    /// views of the original problem.
    transposed: bool,
}

/// Maximum number of Jacobi sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 60;

impl Svd {
    /// Computes the thin SVD of `a`.
    pub fn factor(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::InvalidArgument("svd: empty matrix"));
        }
        if !a.all_finite() {
            return Err(LinalgError::InvalidArgument(
                "svd: input contains non-finite values",
            ));
        }
        if m < n {
            let inner = Svd::factor(&a.transpose())?;
            return Ok(Svd {
                u: inner.v,
                sigma: inner.sigma,
                v: inner.u,
                transposed: true,
            });
        }
        // One-sided Jacobi: orthogonalize the columns of W = A V by plane
        // rotations accumulated into V.
        let mut w = a.clone();
        let mut v = Matrix::identity(n);
        let eps = 1e-15;
        let mut converged = false;
        for _sweep in 0..MAX_SWEEPS {
            let mut off = 0.0_f64;
            for p in 0..n {
                for q in (p + 1)..n {
                    let col_p: Vec<f64> = w.col(p);
                    let col_q: Vec<f64> = w.col(q);
                    let alpha = dot(&col_p, &col_p);
                    let beta = dot(&col_q, &col_q);
                    let gamma = dot(&col_p, &col_q);
                    if alpha * beta == 0.0 {
                        continue;
                    }
                    let denom = (alpha * beta).sqrt();
                    off = off.max(gamma.abs() / denom);
                    if gamma.abs() <= eps * denom {
                        continue;
                    }
                    // Jacobi rotation zeroing the (p,q) off-diagonal of WᵀW.
                    let zeta = (beta - alpha) / (2.0 * gamma);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for i in 0..m {
                        let wp = w[(i, p)];
                        let wq = w[(i, q)];
                        w[(i, p)] = c * wp - s * wq;
                        w[(i, q)] = s * wp + c * wq;
                    }
                    for i in 0..n {
                        let vp = v[(i, p)];
                        let vq = v[(i, q)];
                        v[(i, p)] = c * vp - s * vq;
                        v[(i, q)] = s * vp + c * vq;
                    }
                }
            }
            if off <= eps {
                converged = true;
                break;
            }
        }
        if !converged {
            // One-sided Jacobi converges in practice well before MAX_SWEEPS
            // on finite input (validated above).
            return Err(LinalgError::NoConvergence {
                routine: "jacobi_svd",
                iterations: MAX_SWEEPS,
            });
        }
        // Extract singular values as column norms, normalize U, sort.
        let mut order: Vec<usize> = (0..n).collect();
        let norms: Vec<f64> = (0..n).map(|j| norm2(&w.col(j))).collect();
        order.sort_by(|&a, &b| norms[b].partial_cmp(&norms[a]).expect("finite norms"));
        let mut u = Matrix::zeros(m, n);
        let mut vv = Matrix::zeros(n, n);
        let mut sigma = vec![0.0; n];
        for (dst, &src) in order.iter().enumerate() {
            sigma[dst] = norms[src];
            if norms[src] > 0.0 {
                for i in 0..m {
                    u[(i, dst)] = w[(i, src)] / norms[src];
                }
            }
            for i in 0..n {
                vv[(i, dst)] = v[(i, src)];
            }
        }
        Ok(Svd {
            u,
            sigma,
            v: vv,
            transposed: false,
        })
    }

    /// Left singular vectors (orthonormal columns).
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// Singular values in non-increasing order.
    pub fn singular_values(&self) -> &[f64] {
        &self.sigma
    }

    /// Right singular vectors.
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Whether the decomposition was computed through the transpose.
    pub fn was_transposed(&self) -> bool {
        self.transposed
    }

    /// Numerical rank with a LAPACK-style tolerance.
    pub fn rank(&self) -> usize {
        let tol = self.default_tolerance();
        self.sigma.iter().filter(|&&s| s > tol).count()
    }

    /// The tolerance used by [`Svd::rank`] and pseudo-inversion.
    pub fn default_tolerance(&self) -> f64 {
        let largest = self.sigma.first().copied().unwrap_or(0.0);
        rank_tolerance(self.u.rows(), self.v.rows(), largest)
    }

    /// Condition number `σ_max / σ_min` (infinite for rank-deficient).
    pub fn condition_number(&self) -> f64 {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        let smin = self.sigma.last().copied().unwrap_or(0.0);
        if smin <= self.default_tolerance() {
            f64::INFINITY
        } else {
            smax / smin
        }
    }

    /// Reconstructs `A = U Σ Vᵀ` (mainly for testing and diagnostics).
    pub fn reconstruct(&self) -> Result<Matrix> {
        let us = {
            let mut us = self.u.clone();
            for j in 0..self.sigma.len() {
                for i in 0..us.rows() {
                    us[(i, j)] *= self.sigma[j];
                }
            }
            us
        };
        us.matmul(&self.v.transpose())
    }

    /// Applies the pseudo-inverse to a vector: `x = V Σ⁺ Uᵀ b`.
    ///
    /// Singular values at or below `tolerance` are treated as zero; pass
    /// `None` to use [`Svd::default_tolerance`].
    pub fn pinv_apply(&self, b: &[f64], tolerance: Option<f64>) -> Result<Vec<f64>> {
        if b.len() != self.u.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "pinv_apply",
                lhs: self.u.shape(),
                rhs: (b.len(), 1),
            });
        }
        let tol = tolerance.unwrap_or_else(|| self.default_tolerance());
        let utb = self.u.matvec_transposed(b)?;
        let scaled: Vec<f64> = utb
            .iter()
            .zip(self.sigma.iter())
            .map(|(&x, &s)| if s > tol { x / s } else { 0.0 })
            .collect();
        self.v.matvec(&scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svd_of_diagonal() {
        let a = Matrix::diag(&[1.0, 5.0, 3.0]);
        let svd = Svd::factor(&a).unwrap();
        let s = svd.singular_values();
        assert!((s[0] - 5.0).abs() < 1e-12);
        assert!((s[1] - 3.0).abs() < 1e-12);
        assert!((s[2] - 1.0).abs() < 1e-12);
        assert_eq!(svd.rank(), 3);
    }

    #[test]
    fn svd_reconstructs_general_matrix() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[4.0, 5.0, 6.0],
            &[7.0, 8.0, 10.0],
            &[1.0, -1.0, 0.5],
        ])
        .unwrap();
        let svd = Svd::factor(&a).unwrap();
        let back = svd.reconstruct().unwrap();
        assert!(back.approx_eq(&a, 1e-9));
    }

    #[test]
    fn u_and_v_orthonormal() {
        let a = Matrix::from_rows(&[
            &[2.0, 0.0, 1.0],
            &[-1.0, 3.0, 0.0],
            &[0.5, 1.0, 2.0],
            &[1.0, 1.0, 1.0],
        ])
        .unwrap();
        let svd = Svd::factor(&a).unwrap();
        assert!(svd.u().gram().approx_eq(&Matrix::identity(3), 1e-10));
        assert!(svd.v().gram().approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn rank_deficient_detected() {
        // Rank-1 matrix.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let svd = Svd::factor(&a).unwrap();
        assert_eq!(svd.rank(), 1);
        assert!(svd.condition_number().is_infinite());
    }

    #[test]
    fn wide_matrix_goes_through_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 2.0, 0.0]]).unwrap();
        let svd = Svd::factor(&a).unwrap();
        assert!(svd.was_transposed());
        let back = svd.reconstruct().unwrap();
        assert!(back.approx_eq(&a, 1e-10));
    }

    #[test]
    fn pinv_apply_solves_consistent_system() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0], &[0.0, 0.0]]).unwrap();
        let svd = Svd::factor(&a).unwrap();
        let x = svd.pinv_apply(&[2.0, 8.0, 0.0], None).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pinv_apply_ignores_null_directions() {
        let a = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let svd = Svd::factor(&a).unwrap();
        let x = svd.pinv_apply(&[2.0], None).unwrap();
        // Minimum-norm solution of x + y = 2.
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pinv_apply_validates_length() {
        let svd = Svd::factor(&Matrix::identity(2)).unwrap();
        assert!(svd.pinv_apply(&[1.0, 2.0, 3.0], None).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(Svd::factor(&Matrix::zeros(0, 3)).is_err());
    }

    #[test]
    fn non_finite_rejected() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(Svd::factor(&a).is_err());
    }

    #[test]
    fn zero_matrix_has_zero_rank() {
        let a = Matrix::zeros(3, 2);
        let svd = Svd::factor(&a).unwrap();
        assert_eq!(svd.rank(), 0);
        assert_eq!(svd.singular_values(), &[0.0, 0.0]);
    }
}
