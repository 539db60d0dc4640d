//! Lawson–Hanson non-negative least squares.
//!
//! The Section 5.1 fitting program constrains activities and preferences to
//! be non-negative, so its block-coordinate sub-problems are NNLS problems.
//! This module solves them with the active-set algorithm of Lawson & Hanson
//! (1974), which is exact for these small systems, in two forms:
//!
//! * [`nnls`] solves `min ‖A x − b‖₂ s.t. x ≥ 0` from the tall design
//!   matrix, with a fresh Householder QR per passive-set change. It is the
//!   reference implementation and the oracle the other form is tested
//!   against.
//! * [`nnls_from_normal_equations`] solves the same problem from the Gram
//!   `AᵀA` and moments `Aᵀb`, which is all the fitting program
//!   accumulates. Its passive subproblems are Cholesky solves of principal
//!   sub-Grams, and it starts from the support of the unconstrained
//!   optimum, so a problem where no constraint binds costs one
//!   factorization.

use crate::cholesky::Cholesky;
use crate::matrix::Matrix;
use crate::qr::Qr;
use crate::{LinalgError, Result};

/// Options controlling the NNLS active-set iteration.
#[derive(Debug, Clone, Copy)]
pub struct NnlsOptions {
    /// Maximum outer iterations; the default `3 * n` follows common
    /// practice (scipy uses the same bound).
    pub max_iterations: Option<usize>,
    /// Dual-feasibility tolerance for termination.
    pub tolerance: f64,
}

impl Default for NnlsOptions {
    fn default() -> Self {
        NnlsOptions {
            max_iterations: None,
            tolerance: 1e-10,
        }
    }
}

/// Solves `min ‖A x − b‖₂` subject to `x ≥ 0`.
///
/// Returns the optimal `x`. The active-set method maintains a passive set
/// `P` of coordinates allowed to be positive; at each step it solves the
/// unconstrained least-squares problem restricted to `P` and walks toward
/// it while keeping feasibility. A coordinate enters `P` only if its
/// passive solution comes out above `tolerance` and `P` stays within the
/// `m` rows (the classic Lawson–Hanson entry test); one that fails is
/// skipped until `x` next moves.
///
/// # Examples
///
/// ```
/// use ic_linalg::{nnls, Matrix, NnlsOptions};
///
/// // Unconstrained optimum is x = (-1, 2); NNLS clips the first coordinate.
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
/// let x = nnls(&a, &[-1.0, 2.0], NnlsOptions::default()).unwrap();
/// assert_eq!(x[0], 0.0);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// ```
pub fn nnls(a: &Matrix, b: &[f64], options: NnlsOptions) -> Result<Vec<f64>> {
    let (m, n) = a.shape();
    if b.len() != m {
        return Err(LinalgError::ShapeMismatch {
            op: "nnls",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let max_iter = options.max_iterations.unwrap_or(3 * n.max(8));
    let tol = options.tolerance;

    let mut x = vec![0.0; n];
    let mut passive = vec![false; n];
    // Coordinates whose dual was positive but that could not enter: their
    // dual is rounding noise, so they are skipped until `x` next moves.
    let mut rejected = vec![false; n];
    // Dual vector w = Aᵀ (b − A x); at the solution w ≤ 0 on the active set.
    let mut iterations = 0usize;
    loop {
        let ax = a.matvec(&x)?;
        let resid: Vec<f64> = b
            .iter()
            .zip(ax.iter())
            .map(|(&bi, &axi)| bi - axi)
            .collect();
        let w = a.matvec_transposed(&resid)?;
        // Pick the most violating active coordinate.
        let mut best: Option<(usize, f64)> = None;
        for j in 0..n {
            if !passive[j] && !rejected[j] && w[j] > tol {
                match best {
                    Some((_, wv)) if wv >= w[j] => {}
                    _ => best = Some((j, w[j])),
                }
            }
        }
        let Some((enter, _)) = best else {
            return Ok(x); // KKT satisfied.
        };
        // The classic Lawson–Hanson entry test: a passive set of `m`
        // columns already fits `b`, and an entering coordinate must come
        // out of the passive solve above `tol`.
        if passive.iter().filter(|&&p| p).count() >= m {
            rejected[enter] = true;
            continue;
        }
        passive[enter] = true;
        let mut entering = true;

        // Inner loop: solve restricted LS, backtrack while infeasible.
        loop {
            iterations += 1;
            if iterations > max_iter {
                return Err(LinalgError::NoConvergence {
                    routine: "nnls",
                    iterations: max_iter,
                });
            }
            let idx: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
            let z = solve_subproblem(a, b, &idx)?;
            if entering {
                entering = false;
                if idx.iter().zip(&z).any(|(&j, &zj)| j == enter && zj <= tol) {
                    passive[enter] = false;
                    rejected[enter] = true;
                    break;
                }
                rejected.fill(false);
            }
            if z.iter().all(|&v| v > tol) {
                // Fully feasible step.
                x.fill(0.0);
                for (&j, &zj) in idx.iter().zip(z.iter()) {
                    x[j] = zj;
                }
                break;
            }
            // Backtrack: find the largest alpha keeping x + alpha (z - x) >= 0.
            let mut alpha = f64::INFINITY;
            for (&j, &zj) in idx.iter().zip(z.iter()) {
                if zj <= tol {
                    let xj = x[j];
                    let denom = xj - zj;
                    if denom > 0.0 {
                        alpha = alpha.min(xj / denom);
                    }
                }
            }
            if !alpha.is_finite() {
                alpha = 0.0;
            }
            for (&j, &zj) in idx.iter().zip(z.iter()) {
                x[j] += alpha * (zj - x[j]);
            }
            // Move zeroed coordinates back to the active set.
            for &j in &idx {
                if x[j] <= tol {
                    x[j] = 0.0;
                    passive[j] = false;
                }
            }
        }
    }
}

/// Unconstrained least squares restricted to the columns in `idx`.
fn solve_subproblem(a: &Matrix, b: &[f64], idx: &[usize]) -> Result<Vec<f64>> {
    let m = a.rows();
    let k = idx.len();
    let mut sub = Matrix::zeros(m, k);
    for i in 0..m {
        let row = a.row(i);
        for (c, &j) in idx.iter().enumerate() {
            sub[(i, c)] = row[j];
        }
    }
    match Qr::factor(&sub).and_then(|qr| qr.solve_least_squares(b)) {
        Ok(z) => Ok(z),
        Err(LinalgError::Singular) => {
            // Degenerate passive set (collinear columns): fall back to the
            // minimum-norm solution via the pseudo-inverse.
            let p = crate::pinv::pseudo_inverse(&sub, None)?;
            p.matvec(b)
        }
        Err(e) => Err(e),
    }
}

/// NNLS against normal equations: `min ½xᵀGx − hᵀx` subject to `x ≥ 0`,
/// with `G = AᵀA` (`ata`) and `h = Aᵀb` (`atb`) already accumulated.
///
/// This is the activity/preference solve of the fitting program, which
/// accumulates normal equations across time bins without ever
/// materializing the tall design matrix. It is Lawson–Hanson run on the
/// Gram itself, with a scale-aware ridge `ρ = 1e-12·max|G|` that keeps
/// every factorization stable without visibly perturbing the solution:
///
/// * the passive subproblem is a Cholesky solve of the principal sub-Gram,
///   `(G + ρI)[P,P] z = h[P]`, and the dual is `w = h − (G + ρI)x`;
/// * the passive set starts at the support of the unconstrained optimum
///   `(G + ρI)⁻¹h`. When that optimum is strictly positive no constraint
///   binds and it is the answer. Otherwise coordinates that are not
///   positive are dropped until the passive solution is strictly positive,
///   and the usual outer loop adds the most violated coordinate until
///   `w ≤ tolerance` off the passive set.
///
/// `options.max_iterations` bounds the passive-set solves. The tall
/// [`nnls`] solves the same problem from `A` and `b`; it is the oracle
/// this routine is tested against.
pub fn nnls_from_normal_equations(
    ata: &Matrix,
    atb: &[f64],
    options: NnlsOptions,
) -> Result<Vec<f64>> {
    let n = ata.rows();
    if ata.cols() != n {
        return Err(LinalgError::InvalidArgument(
            "nnls_from_normal_equations: Gram matrix must be square",
        ));
    }
    if atb.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "nnls_from_normal_equations",
            lhs: ata.shape(),
            rhs: (atb.len(), 1),
        });
    }
    if !ata.all_finite() || !atb.iter().all(|v| v.is_finite()) {
        return Err(LinalgError::InvalidArgument(
            "nnls_from_normal_equations: Gram matrix and moment vector must be finite",
        ));
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    let ridge = ata.max_abs().max(f64::MIN_POSITIVE) * 1e-12;
    let unconstrained = Cholesky::factor_regularized(ata, ridge)?.solve(atb)?;
    if unconstrained.iter().all(|&v| v > 0.0) {
        return Ok(unconstrained);
    }
    let max_solves = options.max_iterations.unwrap_or(3 * n.max(8));
    let mut solves = 0;
    // Solves `(G + ρI)[P,P] z = h[P]` into `out`, zero off the passive set
    // P; each non-empty solve counts against the iteration budget.
    let mut solve_passive = |passive: &[bool], out: &mut [f64]| -> Result<()> {
        out.fill(0.0);
        let idx: Vec<usize> = (0..n).filter(|&j| passive[j]).collect();
        if idx.is_empty() {
            return Ok(());
        }
        solves += 1;
        if solves > max_solves {
            return Err(LinalgError::NoConvergence {
                routine: "nnls_from_normal_equations",
                iterations: max_solves,
            });
        }
        let k = idx.len();
        let mut sub = Matrix::zeros(k, k);
        for (r, &i) in idx.iter().enumerate() {
            let row = ata.row(i);
            for (slot, &j) in sub.row_mut(r).iter_mut().zip(&idx) {
                *slot = row[j];
            }
        }
        let rhs: Vec<f64> = idx.iter().map(|&j| atb[j]).collect();
        let z = Cholesky::factor_regularized(&sub, ridge)?.solve(&rhs)?;
        for (&j, &zj) in idx.iter().zip(&z) {
            out[j] = zj;
        }
        Ok(())
    };

    // Warm start: shrink the support until its solution is strictly positive.
    let mut passive: Vec<bool> = unconstrained.iter().map(|&v| v > 0.0).collect();
    let mut x = vec![0.0; n];
    loop {
        solve_passive(&passive, &mut x)?;
        let mut dropped = false;
        for (p, &xj) in passive.iter_mut().zip(&x) {
            if *p && xj <= 0.0 {
                *p = false;
                dropped = true;
            }
        }
        if !dropped {
            break;
        }
    }

    // Lawson–Hanson outer loop. `rejected` marks coordinates whose dual
    // was positive but whose passive solution was not: their dual is
    // rounding noise, so they are skipped until `x` next moves.
    let mut z = vec![0.0; n];
    let mut rejected = vec![false; n];
    loop {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..n {
            if passive[j] || rejected[j] {
                continue;
            }
            // x_j = 0 off the passive set, so the ridge term drops out.
            let wj = atb[j] - crate::matrix::dot(ata.row(j), &x);
            if wj > options.tolerance && best.is_none_or(|(_, wb)| wj > wb) {
                best = Some((j, wj));
            }
        }
        let Some((enter, _)) = best else {
            return Ok(x); // KKT satisfied.
        };
        passive[enter] = true;
        solve_passive(&passive, &mut z)?;
        if z[enter] <= 0.0 {
            passive[enter] = false;
            rejected[enter] = true;
            continue;
        }
        rejected.fill(false);
        // Inner loop: walk from x toward z, dropping the blocking
        // coordinates, until the passive solution is strictly positive.
        while let Some((block, alpha)) = step_to_boundary(&passive, &x, &z) {
            for j in 0..n {
                if passive[j] {
                    x[j] += alpha * (z[j] - x[j]);
                    if x[j] <= 0.0 || j == block {
                        x[j] = 0.0;
                        passive[j] = false;
                    }
                }
            }
            solve_passive(&passive, &mut z)?;
        }
        x.copy_from_slice(&z);
    }
}

/// The largest step `α ∈ (0, 1]` from `x` toward `z` that stays feasible,
/// with the coordinate that blocks it; `None` when `z` is strictly positive
/// on the passive set.
fn step_to_boundary(passive: &[bool], x: &[f64], z: &[f64]) -> Option<(usize, f64)> {
    let mut block: Option<(usize, f64)> = None;
    for j in 0..passive.len() {
        if passive[j] && z[j] <= 0.0 {
            let alpha = x[j] / (x[j] - z[j]);
            if block.is_none_or(|(_, a)| alpha < a) {
                block = Some((j, alpha));
            }
        }
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_optimum_feasible() {
        // If the LS optimum is already non-negative, NNLS returns it.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let x_true = [2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = nnls(&a, &b, NnlsOptions::default()).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn clips_negative_coordinates() {
        let a = Matrix::identity(3);
        let x = nnls(&a, &[-5.0, 0.0, 7.0], NnlsOptions::default()).unwrap();
        assert_eq!(x[0], 0.0);
        assert_eq!(x[1], 0.0);
        assert!((x[2] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn classic_lawson_hanson_example() {
        let a =
            Matrix::from_rows(&[&[1.0, 1.0, 2.0], &[10.0, 11.0, -9.0], &[-1.0, 0.0, 0.0]]).unwrap();
        let b = [-1.0, 11.0, 0.0];
        let x = nnls(&a, &b, NnlsOptions::default()).unwrap();
        // Solution must be feasible and satisfy KKT: Aᵀ(b−Ax) ≤ 0 where x=0,
        // = 0 where x>0.
        assert!(x.iter().all(|&v| v >= 0.0));
        let r: Vec<f64> = {
            let ax = a.matvec(&x).unwrap();
            b.iter()
                .zip(ax.iter())
                .map(|(&bi, &axi)| bi - axi)
                .collect()
        };
        let w = a.matvec_transposed(&r).unwrap();
        for (j, (&xj, &wj)) in x.iter().zip(w.iter()).enumerate() {
            if xj > 1e-9 {
                assert!(wj.abs() < 1e-7, "coordinate {j}: w = {wj}");
            } else {
                assert!(wj <= 1e-7, "coordinate {j}: w = {wj}");
            }
        }
    }

    #[test]
    fn nnls_never_beats_unconstrained_ls_but_is_close_when_feasible() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0], &[0.5, 0.5]]).unwrap();
        let b = [4.0, 3.0, 1.0];
        let x = nnls(&a, &b, NnlsOptions::default()).unwrap();
        let ls = Qr::factor(&a).unwrap().solve_least_squares(&b).unwrap();
        if ls.iter().all(|&v| v >= 0.0) {
            for (xn, xl) in x.iter().zip(ls.iter()) {
                assert!((xn - xl).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let x = nnls(&a, &[0.0, 0.0], NnlsOptions::default()).unwrap();
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn validates_shapes() {
        let a = Matrix::identity(2);
        assert!(nnls(&a, &[1.0], NnlsOptions::default()).is_err());
    }

    #[test]
    fn empty_columns_gives_empty_solution() {
        let a = Matrix::zeros(3, 0);
        let x = nnls(&a, &[1.0, 2.0, 3.0], NnlsOptions::default()).unwrap();
        assert!(x.is_empty());
    }

    #[test]
    fn handles_collinear_columns() {
        // Columns 0 and 1 are identical: solution mass is split or placed on
        // one of them; residual must still be optimal.
        let a = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[1.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let b = [2.0, 2.0, 5.0];
        let x = nnls(&a, &b, NnlsOptions::default()).unwrap();
        assert!((x[0] + x[1] - 2.0).abs() < 1e-8);
        assert!((x[2] - 5.0).abs() < 1e-8);
    }

    #[test]
    fn normal_equations_variant_matches_direct() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 0.5], &[0.3, 1.0], &[1.0, 1.0]]).unwrap();
        let b = [1.0, -2.0, 3.0, 0.5];
        let direct = nnls(&a, &b, NnlsOptions::default()).unwrap();
        let ata = a.gram();
        let atb = a.matvec_transposed(&b).unwrap();
        let viane = nnls_from_normal_equations(&ata, &atb, NnlsOptions::default()).unwrap();
        for (d, v) in direct.iter().zip(viane.iter()) {
            assert!((d - v).abs() < 1e-6, "direct {direct:?} vs NE {viane:?}");
        }
    }

    #[test]
    fn normal_equations_validates_shapes() {
        let ata = Matrix::zeros(2, 3);
        assert!(nnls_from_normal_equations(&ata, &[1.0, 2.0], NnlsOptions::default()).is_err());
        let ata = Matrix::identity(2);
        assert!(nnls_from_normal_equations(&ata, &[1.0], NnlsOptions::default()).is_err());
    }

    #[test]
    fn normal_equations_rejects_non_finite_input() {
        let opts = NnlsOptions::default();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let g = Matrix::identity(2);
            assert!(matches!(
                nnls_from_normal_equations(&g, &[1.0, bad], opts),
                Err(LinalgError::InvalidArgument(_))
            ));
            let g = Matrix::from_rows(&[&[1.0, bad], &[bad, 1.0]]).unwrap();
            assert!(matches!(
                nnls_from_normal_equations(&g, &[1.0, 1.0], opts),
                Err(LinalgError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn normal_equations_empty_problem_gives_empty_solution() {
        let x =
            nnls_from_normal_equations(&Matrix::zeros(0, 0), &[], NnlsOptions::default()).unwrap();
        assert!(x.is_empty());
    }

    #[test]
    fn normal_equations_positive_optimum_is_one_cholesky_solve() {
        // A preference-shaped Gram: three rank-one bins plus their diagonal.
        let bins = [
            [3.0, 1.0, 0.5, 2.0, 0.2],
            [2.5, 1.5, 0.4, 1.0, 0.3],
            [4.0, 0.8, 0.7, 2.2, 0.1],
        ];
        let mut g = Matrix::zeros(5, 5);
        for a in &bins {
            let s2: f64 = a.iter().map(|v| v * v).sum();
            for k in 0..5 {
                for l in 0..5 {
                    g[(k, l)] += 0.375 * a[k] * a[l];
                }
                g[(k, k)] += 0.625 * s2;
            }
        }
        // The last coordinate is positive but below the dual tolerance.
        let h = g.matvec(&[0.3, 0.25, 0.2, 0.15, 1e-11]).unwrap();
        let want = Cholesky::factor_regularized(&g, 1e-12 * g.max_abs())
            .unwrap()
            .solve(&h)
            .unwrap();
        assert!(want.iter().all(|&v| v > 0.0));
        let x = nnls_from_normal_equations(&g, &h, NnlsOptions::default()).unwrap();
        assert_eq!(x, want);
    }

    #[test]
    fn normal_equations_all_binding_gives_zero() {
        // The unconstrained optimum (-3, 1) is partly positive, but x = 0
        // already meets KKT: w = h ≤ 0.
        let g = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]).unwrap();
        let x = nnls_from_normal_equations(&g, &[-1.0, -1.0], NnlsOptions::default()).unwrap();
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn normal_equations_diagonal_gram_clips_each_coordinate() {
        let d = [2.0, 4.0, 0.5, 1.0];
        let h = [3.0, -1.0, 0.25, 0.0];
        let x = nnls_from_normal_equations(&Matrix::diag(&d), &h, NnlsOptions::default()).unwrap();
        for ((&xi, &di), &hi) in x.iter().zip(&d).zip(&h) {
            let want = (hi / di).max(0.0);
            assert!((xi - want).abs() <= 1e-10 * want, "{xi} vs {want}");
        }
    }

    #[test]
    fn normal_equations_iteration_budget_respected() {
        // The unconstrained optimum (1, -1) binds, so one passive solve is needed.
        let opts = NnlsOptions {
            max_iterations: Some(0),
            tolerance: 1e-10,
        };
        assert!(matches!(
            nnls_from_normal_equations(&Matrix::identity(2), &[1.0, -1.0], opts),
            Err(LinalgError::NoConvergence { .. })
        ));
    }

    #[test]
    fn normal_equations_skips_a_coordinate_that_cannot_enter() {
        // A negative tolerance admits w₁ = -0.5, whose passive solution is
        // not positive: the coordinate is rejected instead of re-entering
        // until the budget runs out.
        let opts = NnlsOptions {
            max_iterations: None,
            tolerance: -1.0,
        };
        let x = nnls_from_normal_equations(&Matrix::identity(2), &[1.0, -0.5], opts).unwrap();
        assert_eq!(x[1], 0.0);
        assert!((x[0] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn passive_set_never_outgrows_the_rows() {
        // Two rows, three columns, the outer two nearly anti-parallel: they
        // fit b exactly, so the middle column's positive dual is rounding
        // noise. Letting it enter asked QR for a 2×3 solve and errored.
        let a = Matrix::from_rows(&[
            &[4.501861885588225, 4.5118244280339415, -6.687706201219219],
            &[-4.580856575819992, -1.586803576827819, 6.804062744785252],
        ])
        .unwrap();
        let b = [-8.260877088492352, -8.616124700481201];
        let x = nnls(&a, &b, NnlsOptions::default()).unwrap();
        assert!(x[0] > 0.0 && x[2] > 0.0);
        assert_eq!(x[1], 0.0);
        for (axi, bi) in a.matvec(&x).unwrap().iter().zip(&b) {
            assert!((axi - bi).abs() <= 1e-9 * bi.abs(), "{axi} vs {bi}");
        }
    }

    #[test]
    fn iteration_budget_respected() {
        let a = Matrix::identity(2);
        let opts = NnlsOptions {
            max_iterations: Some(0),
            tolerance: 1e-10,
        };
        assert!(matches!(
            nnls(&a, &[1.0, 1.0], opts),
            Err(LinalgError::NoConvergence { .. })
        ));
    }
}
