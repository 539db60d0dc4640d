//! Moore–Penrose pseudo-inverse.
//!
//! Materializes `A⁺ = V Σ⁺ Uᵀ` from the Jacobi SVD. Its one library caller
//! is the normal solver's fallback, for a normal matrix the ridged
//! Cholesky cannot factor.

use crate::matrix::Matrix;
use crate::svd::Svd;
use crate::Result;

/// Computes the Moore–Penrose pseudo-inverse of `a`.
///
/// Singular values at or below `tolerance` (default: LAPACK-style
/// `max(m,n)·eps·σ_max`) are treated as zero, which makes the routine safe
/// on the rank-deficient operators that arise from redundant
/// ingress/egress constraints.
///
/// # Examples
///
/// ```
/// use ic_linalg::{pseudo_inverse, Matrix};
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]]).unwrap();
/// let p = pseudo_inverse(&a, None).unwrap();
/// assert_eq!(p.shape(), (2, 3));
/// assert!((p[(1, 1)] - 0.5).abs() < 1e-12);
/// ```
pub fn pseudo_inverse(a: &Matrix, tolerance: Option<f64>) -> Result<Matrix> {
    let svd = Svd::factor(a)?;
    let tol = tolerance.unwrap_or_else(|| svd.default_tolerance());
    let (m, _) = a.shape();
    let k = svd.singular_values().len();
    // A⁺ = V Σ⁺ Uᵀ: build (Σ⁺ Uᵀ) first, then multiply by V.
    let mut sut = Matrix::zeros(k, m);
    for r in 0..k {
        let s = svd.singular_values()[r];
        if s > tol {
            for c in 0..m {
                sut[(r, c)] = svd.u()[(c, r)] / s;
            }
        }
    }
    svd.v().matmul(&sut)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four Moore–Penrose conditions to tolerance `tol`:
    /// `A A⁺ A = A`, `A⁺ A A⁺ = A⁺`, and `A A⁺`, `A⁺ A` symmetric.
    fn satisfies_moore_penrose(a: &Matrix, p: &Matrix, tol: f64) -> bool {
        let Ok(ap) = a.matmul(p) else { return false };
        let Ok(pa) = p.matmul(a) else { return false };
        let Ok(apa) = ap.matmul(a) else { return false };
        let Ok(pap) = pa.matmul(p) else { return false };
        apa.approx_eq(a, tol)
            && pap.approx_eq(p, tol)
            && ap.approx_eq(&ap.transpose(), tol)
            && pa.approx_eq(&pa.transpose(), tol)
    }

    #[test]
    fn pinv_of_invertible_is_inverse() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let p = pseudo_inverse(&a, None).unwrap();
        let prod = a.matmul(&p).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(2), 1e-10));
    }

    #[test]
    fn pinv_satisfies_moore_penrose_full_rank() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let p = pseudo_inverse(&a, None).unwrap();
        assert!(satisfies_moore_penrose(&a, &p, 1e-9));
    }

    #[test]
    fn pinv_satisfies_moore_penrose_rank_deficient() {
        let a =
            Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0], &[-1.0, -2.0, -3.0]]).unwrap();
        let p = pseudo_inverse(&a, None).unwrap();
        assert!(satisfies_moore_penrose(&a, &p, 1e-9));
    }

    #[test]
    fn pinv_of_zero_is_zero() {
        let a = Matrix::zeros(2, 3);
        let p = pseudo_inverse(&a, None).unwrap();
        assert_eq!(p.shape(), (3, 2));
        assert!(p.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pinv_of_wide_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]).unwrap();
        let p = pseudo_inverse(&a, None).unwrap();
        assert_eq!(p.shape(), (3, 2));
        assert!(satisfies_moore_penrose(&a, &p, 1e-9));
    }

    #[test]
    fn pinv_transpose_identity() {
        // (Aᵀ)⁺ = (A⁺)ᵀ.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let p1 = pseudo_inverse(&a.transpose(), None).unwrap();
        let p2 = pseudo_inverse(&a, None).unwrap().transpose();
        assert!(p1.approx_eq(&p2, 1e-9));
    }

    #[test]
    fn custom_tolerance_truncates_small_singular_values() {
        let a = Matrix::diag(&[1.0, 1e-13]);
        // Default tolerance keeps both; a coarse tolerance kills the small one.
        let p = pseudo_inverse(&a, Some(1e-6)).unwrap();
        assert!((p[(0, 0)] - 1.0).abs() < 1e-12);
        assert_eq!(p[(1, 1)], 0.0);
    }

    #[test]
    fn moore_penrose_check_rejects_wrong_inverse() {
        let a = Matrix::identity(2);
        let wrong = Matrix::filled(2, 2, 0.5);
        assert!(!satisfies_moore_penrose(&a, &wrong, 1e-9));
    }

    #[test]
    fn moore_penrose_check_rejects_shape_mismatch() {
        let a = Matrix::identity(2);
        let wrong = Matrix::zeros(3, 3);
        assert!(!satisfies_moore_penrose(&a, &wrong, 1e-9));
    }
}
