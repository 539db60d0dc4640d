//! Lawson–Hanson non-negative least squares on the normal equations.
//!
//! The Section 5.1 fitting program constrains activities and preferences to
//! be non-negative, so its block-coordinate sub-problems are NNLS problems.
//! All but one have closed forms; the stable-fP fit's pooled preference
//! step runs [`nnls_from_normal_equations`], the active-set algorithm of
//! Lawson & Hanson (1974) on the Gram `AᵀA` and moments `Aᵀb` the fit
//! accumulates, which is exact for these small systems. Its passive
//! subproblems are Cholesky solves of principal sub-Grams, and it starts
//! from the support of the unconstrained optimum, so a problem where no
//! constraint binds costs one factorization.

use crate::cholesky::{factor_regularized_in_place, solve_with_factor};
use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// Passive-set solves allowed per coordinate: the budget is
/// `3 · max(n, 8)` solves, following common practice (scipy bounds its
/// iterations by `3n`).
const SOLVES_PER_COORDINATE: usize = 3;

/// Dual-feasibility tolerance for termination.
const DUAL_TOLERANCE: f64 = 1e-10;

/// Reusable buffers of [`nnls_from_normal_equations_with`]. A workspace
/// made by [`NnlsWorkspace::new`] for `n` coordinates solves any problem
/// of up to `n` coordinates without allocating; a smaller one grows on
/// first use. Results never depend on the workspace's history.
#[derive(Debug, Clone)]
pub struct NnlsWorkspace {
    /// The factor of `G + ρI` or of a principal sub-Gram.
    factor: Matrix,
    /// The passive coordinates of the current sub-problem.
    idx: Vec<usize>,
    /// Right-hand side and solution of the current sub-problem.
    rhs: Vec<f64>,
    sol: Vec<f64>,
    /// The iterate, which ends as the solution.
    x: Vec<f64>,
    /// The passive solution the iterate walks toward.
    z: Vec<f64>,
    passive: Vec<bool>,
    rejected: Vec<bool>,
}

impl NnlsWorkspace {
    /// A workspace sized for problems of up to `n` coordinates.
    pub fn new(n: usize) -> Self {
        NnlsWorkspace {
            factor: Matrix::zeros(n, n),
            idx: Vec::with_capacity(n),
            rhs: Vec::with_capacity(n),
            sol: Vec::with_capacity(n),
            x: Vec::with_capacity(n),
            z: Vec::with_capacity(n),
            passive: Vec::with_capacity(n),
            rejected: Vec::with_capacity(n),
        }
    }
}

/// NNLS against normal equations: `min ½xᵀGx − hᵀx` subject to `x ≥ 0`,
/// with `G = AᵀA` (`ata`) and `h = Aᵀb` (`atb`) already accumulated.
///
/// This is the stable-fP fit's pooled preference solve, which
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
///   `w ≤ 1e-10` off the passive set.
///
/// At most `3 · max(n, 8)` passive-set solves run; a problem that needs
/// more is [`LinalgError::NoConvergence`].
pub fn nnls_from_normal_equations(ata: &Matrix, atb: &[f64]) -> Result<Vec<f64>> {
    let mut ws = NnlsWorkspace::new(ata.rows());
    nnls_from_normal_equations_with(ata, atb, &mut ws).map(<[f64]>::to_vec)
}

/// [`nnls_from_normal_equations`] on reusable buffers, returning the
/// solution as a slice of `ws`. Bit-identical to the allocating form.
pub fn nnls_from_normal_equations_with<'w>(
    ata: &Matrix,
    atb: &[f64],
    ws: &'w mut NnlsWorkspace,
) -> Result<&'w [f64]> {
    let max_solves = SOLVES_PER_COORDINATE * ata.rows().max(8);
    nnls_within(ata, atb, max_solves, DUAL_TOLERANCE, ws)
}

/// [`nnls_from_normal_equations_with`] with an explicit solve budget and
/// dual tolerance.
fn nnls_within<'w>(
    ata: &Matrix,
    atb: &[f64],
    max_solves: usize,
    tolerance: f64,
    ws: &'w mut NnlsWorkspace,
) -> Result<&'w [f64]> {
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
    let NnlsWorkspace {
        factor,
        idx,
        rhs,
        sol,
        x,
        z,
        passive,
        rejected,
    } = ws;
    x.clear();
    x.resize(n, 0.0);
    if n == 0 {
        return Ok(x);
    }
    let ridge = ata.max_abs().max(f64::MIN_POSITIVE) * 1e-12;
    // The unconstrained optimum, solved into `x`.
    factor.ensure_shape(n, n);
    factor.as_mut_slice().copy_from_slice(ata.as_slice());
    factor_regularized_in_place(factor, ridge)?;
    solve_with_factor(factor, atb, x)?;
    if x.iter().all(|&v| v > 0.0) {
        return Ok(x);
    }
    let mut solves = 0;
    // Solves `(G + ρI)[P,P] z = h[P]` into `out`, zero off the passive set
    // P; each non-empty solve counts against the iteration budget.
    let mut solve_passive = |passive: &[bool], out: &mut [f64]| -> Result<()> {
        out.fill(0.0);
        idx.clear();
        idx.extend((0..n).filter(|&j| passive[j]));
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
        factor.ensure_shape(k, k);
        for (r, &i) in idx.iter().enumerate() {
            let row = ata.row(i);
            for (slot, &j) in factor.row_mut(r).iter_mut().zip(idx.iter()) {
                *slot = row[j];
            }
        }
        rhs.clear();
        rhs.extend(idx.iter().map(|&j| atb[j]));
        sol.clear();
        sol.resize(k, 0.0);
        factor_regularized_in_place(factor, ridge)?;
        solve_with_factor(factor, rhs, sol)?;
        for (&j, &zj) in idx.iter().zip(sol.iter()) {
            out[j] = zj;
        }
        Ok(())
    };

    // Warm start: shrink the support until its solution is strictly positive.
    passive.clear();
    passive.extend(x.iter().map(|&v| v > 0.0));
    loop {
        solve_passive(passive, x)?;
        let mut dropped = false;
        for (p, &xj) in passive.iter_mut().zip(x.iter()) {
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
    z.clear();
    z.resize(n, 0.0);
    rejected.clear();
    rejected.resize(n, false);
    loop {
        let mut best: Option<(usize, f64)> = None;
        for j in 0..n {
            if passive[j] || rejected[j] {
                continue;
            }
            // x_j = 0 off the passive set, so the ridge term drops out.
            let wj = atb[j] - crate::matrix::dot(ata.row(j), x);
            if wj > tolerance && best.is_none_or(|(_, wb)| wj > wb) {
                best = Some((j, wj));
            }
        }
        let Some((enter, _)) = best else {
            return Ok(x); // KKT satisfied.
        };
        passive[enter] = true;
        solve_passive(passive, z)?;
        if z[enter] <= 0.0 {
            passive[enter] = false;
            rejected[enter] = true;
            continue;
        }
        rejected.fill(false);
        // Inner loop: walk from x toward z, dropping the blocking
        // coordinates, until the passive solution is strictly positive.
        while let Some((block, alpha)) = step_to_boundary(passive, x, z) {
            for j in 0..n {
                if passive[j] {
                    x[j] += alpha * (z[j] - x[j]);
                    if x[j] <= 0.0 || j == block {
                        x[j] = 0.0;
                        passive[j] = false;
                    }
                }
            }
            solve_passive(passive, z)?;
        }
        x.copy_from_slice(z);
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
    use crate::cholesky::Cholesky;

    /// `min ‖A x − b‖₂, x ≥ 0` solved from its normal equations.
    fn gram_nnls(a: &Matrix, b: &[f64]) -> Vec<f64> {
        let atb = a.matvec_transposed(b).unwrap();
        nnls_from_normal_equations(&a.gram(), &atb).unwrap()
    }

    #[test]
    fn classic_lawson_hanson_example() {
        let a =
            Matrix::from_rows(&[&[1.0, 1.0, 2.0], &[10.0, 11.0, -9.0], &[-1.0, 0.0, 0.0]]).unwrap();
        let b = [-1.0, 11.0, 0.0];
        let x = gram_nnls(&a, &b);
        // Feasible, and KKT on the tall residual: Aᵀ(b − Ax) ≤ 0 where
        // x = 0, = 0 where x > 0.
        assert!(x.iter().all(|&v| v >= 0.0));
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect();
        let w = a.matvec_transposed(&r).unwrap();
        for (j, (&xj, &wj)) in x.iter().zip(&w).enumerate() {
            if xj > 1e-9 {
                assert!(wj.abs() < 1e-7, "coordinate {j}: w = {wj}");
            } else {
                assert!(wj <= 1e-7, "coordinate {j}: w = {wj}");
            }
        }
    }

    #[test]
    fn handles_collinear_columns() {
        // Columns 0 and 1 are identical, so the Gram is singular: the mass
        // may be split between them or put on one, but the fit is optimal.
        let a = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[1.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        let x = gram_nnls(&a, &[2.0, 2.0, 5.0]);
        assert!(x.iter().all(|&v| v >= 0.0));
        assert!((x[0] + x[1] - 2.0).abs() < 1e-8, "{x:?}");
        assert!((x[2] - 5.0).abs() < 1e-8, "{x:?}");
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(gram_nnls(&a, &[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn normal_equations_validates_shapes() {
        let ata = Matrix::zeros(2, 3);
        assert!(nnls_from_normal_equations(&ata, &[1.0, 2.0]).is_err());
        let ata = Matrix::identity(2);
        assert!(nnls_from_normal_equations(&ata, &[1.0]).is_err());
    }

    #[test]
    fn normal_equations_rejects_non_finite_input() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let g = Matrix::identity(2);
            assert!(matches!(
                nnls_from_normal_equations(&g, &[1.0, bad]),
                Err(LinalgError::InvalidArgument(_))
            ));
            let g = Matrix::from_rows(&[&[1.0, bad], &[bad, 1.0]]).unwrap();
            assert!(matches!(
                nnls_from_normal_equations(&g, &[1.0, 1.0]),
                Err(LinalgError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn normal_equations_empty_problem_gives_empty_solution() {
        let x = nnls_from_normal_equations(&Matrix::zeros(0, 0), &[]).unwrap();
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
        let x = nnls_from_normal_equations(&g, &h).unwrap();
        assert_eq!(x, want);
    }

    #[test]
    fn normal_equations_all_binding_gives_zero() {
        // The unconstrained optimum (-3, 1) is partly positive, but x = 0
        // already meets KKT: w = h ≤ 0.
        let g = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 5.0]]).unwrap();
        let x = nnls_from_normal_equations(&g, &[-1.0, -1.0]).unwrap();
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn normal_equations_diagonal_gram_clips_each_coordinate() {
        let d = [2.0, 4.0, 0.5, 1.0];
        let h = [3.0, -1.0, 0.25, 0.0];
        let x = nnls_from_normal_equations(&Matrix::diag(&d), &h).unwrap();
        for ((&xi, &di), &hi) in x.iter().zip(&d).zip(&h) {
            let want = (hi / di).max(0.0);
            assert!((xi - want).abs() <= 1e-10 * want, "{xi} vs {want}");
        }
    }

    #[test]
    fn normal_equations_iteration_budget_respected() {
        // The unconstrained optimum (1, -1) binds, so one passive solve is needed.
        assert!(matches!(
            nnls_within(
                &Matrix::identity(2),
                &[1.0, -1.0],
                0,
                DUAL_TOLERANCE,
                &mut NnlsWorkspace::new(0)
            ),
            Err(LinalgError::NoConvergence { .. })
        ));
    }

    #[test]
    fn normal_equations_skips_a_coordinate_that_cannot_enter() {
        // A negative tolerance admits w₁ = -0.5, whose passive solution is
        // not positive: the coordinate is rejected instead of re-entering
        // until the budget runs out.
        let mut ws = NnlsWorkspace::new(0);
        let x = nnls_within(
            &Matrix::identity(2),
            &[1.0, -0.5],
            SOLVES_PER_COORDINATE * 8,
            -1.0,
            &mut ws,
        )
        .unwrap();
        assert_eq!(x[1], 0.0);
        assert!((x[0] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reused_workspace_is_bit_identical_to_a_fresh_one() {
        // Problems of shrinking and growing size, with and without binding
        // constraints, through one workspace sized for the smallest.
        let problem = |n: usize, shift: f64| {
            let mut g = Matrix::zeros(n, n);
            for k in 0..n {
                for l in 0..n {
                    g[(k, l)] = 1.0 / (1.0 + (k as f64 - l as f64).abs());
                }
                g[(k, k)] += 0.5;
            }
            let h: Vec<f64> = (0..n).map(|k| (k * 7 % 5) as f64 - shift).collect();
            (g, h)
        };
        let mut ws = NnlsWorkspace::new(2);
        for (n, shift) in [(6, 1.5), (2, -1.0), (9, 2.0), (4, 0.0), (9, -3.0), (1, 1.0)] {
            let (g, h) = problem(n, shift);
            let fresh = nnls_from_normal_equations(&g, &h).unwrap();
            let reused = nnls_from_normal_equations_with(&g, &h, &mut ws).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(reused), bits(&fresh), "n {n}, shift {shift}");
        }
    }
}
