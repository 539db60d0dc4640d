//! The tomogravity least-squares refinement (step 2 of the blueprint).
//!
//! Zhang et al. \[22\] refine a prior `x_p` against the link constraints by
//! solving the weighted least-squares problem
//!
//! ```text
//! min ‖W^{-1/2} (x − x_p)‖₂   s.t.  A x = b
//! ```
//!
//! with weights proportional to the prior itself (large flows absorb more
//! of the residual). The closed form is
//!
//! ```text
//! x = x_p + W Aᵀ (A W Aᵀ)⁺ (b − A x_p)
//! ```
//!
//! where `A` stacks the routing matrix with the marginal operators and `b`
//! the corresponding counts. `A W Aᵀ` is symmetric positive semi-definite;
//! it is solved by the workspace's [`NormalSolverWorkspace`] — a
//! scale-aware ridge Cholesky with an SVD pseudo-inverse fallback on small
//! systems, matrix-free Jacobi-PCG (the gram matrix is never materialized)
//! on large ones — selected per problem by the [`SolverPolicy`] in
//! [`TomogravityOptions`]. Negative refined entries are clamped to zero,
//! the physical choice the IPF step that follows assumes.

use crate::{EstimationError, Result};
use ic_linalg::{NormalSolverWorkspace, SolveStats, SolverPolicy, SparseMatrix};

/// Relative ridge added to `A W Aᵀ`, scaled by its largest diagonal entry.
const RIDGE: f64 = 1e-10;

/// Weight floor as a fraction of the bin's mean prior entry, so zero-prior
/// flows can still receive mass from the constraints.
const WEIGHT_FLOOR: f64 = 1e-4;

/// Options for the tomogravity refinement.
///
/// Marked `#[non_exhaustive]`: construct via
/// [`TomogravityOptions::default`] and [`TomogravityOptions::with_solver`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct TomogravityOptions {
    /// Which normal-equations solver refines each bin.
    /// [`SolverPolicy::Auto`] (the default) keeps small problems on the
    /// dense Cholesky and switches large ones to matrix-free PCG.
    pub solver: SolverPolicy,
}

impl TomogravityOptions {
    /// Sets the normal-equations solver policy.
    pub fn with_solver(mut self, solver: SolverPolicy) -> Self {
        self.solver = solver;
        self
    }
}

/// Reusable per-call buffers for the tomogravity refinement.
///
/// One workspace serves any number of bins: the solver's internal state
/// (the dense gram matrix and its Cholesky factor, or the PCG iteration
/// vectors, depending on the resolved [`SolverPolicy`]) and all vector
/// scratch are sized on first use and reused afterwards, so the per-bin
/// inner loop performs no allocation once warm. Streaming estimators hold
/// one workspace across windows for the same reason. The embedded
/// [`NormalSolverWorkspace`] also accumulates observable [`SolveStats`] —
/// see [`TomogravityWorkspace::solve_stats`].
#[derive(Debug, Clone, Default)]
pub struct TomogravityWorkspace {
    w: Vec<f64>,
    resid: Vec<f64>,
    lambda: Vec<f64>,
    at_lambda: Vec<f64>,
    x: Vec<f64>,
    solver: NormalSolverWorkspace,
}

impl TomogravityWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        TomogravityWorkspace::default()
    }

    fn ensure(&mut self, rows: usize, cols: usize) {
        self.w.resize(cols, 0.0);
        self.at_lambda.resize(cols, 0.0);
        self.x.resize(cols, 0.0);
        self.resid.resize(rows, 0.0);
        self.lambda.resize(rows, 0.0);
    }

    /// The refined bin produced by the latest
    /// [`Tomogravity::refine_bin_sparse_with`] call.
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Cumulative solver counters for every bin refined through this
    /// workspace: dense/PCG solve counts, total PCG iterations, and the
    /// previously-silent pseudo-inverse fallbacks and PCG stalls.
    pub fn solve_stats(&self) -> SolveStats {
        self.solver.stats()
    }

    /// Zeroes the cumulative solver counters.
    pub fn reset_solve_stats(&mut self) {
        self.solver.reset_stats();
    }
}

/// The tomogravity estimator.
#[derive(Debug, Clone)]
pub struct Tomogravity {
    options: TomogravityOptions,
}

impl Tomogravity {
    /// Creates the estimator with the given options.
    pub fn new(options: TomogravityOptions) -> Self {
        Tomogravity { options }
    }

    /// The estimator's options.
    pub fn options(&self) -> TomogravityOptions {
        self.options
    }

    /// Refines a single bin on the **sparse** operator:
    /// `x = x_p + W Aᵀ (A W Aᵀ)⁺ (b − A x_p)`, with `A W Aᵀ` assembled in
    /// `O(nnz)` and all scratch living in `ws` (result in
    /// [`TomogravityWorkspace::solution`]).
    ///
    /// `at` must be the precomputed transpose of `a`
    /// ([`ObservationModel::stacked_transpose`](crate::ObservationModel::stacked_transpose)).
    /// Negative refined entries are clamped to zero.
    pub fn refine_bin_sparse_with(
        &self,
        a: &SparseMatrix,
        at: &SparseMatrix,
        x_prior: &[f64],
        b: &[f64],
        ws: &mut TomogravityWorkspace,
    ) -> Result<()> {
        let (rows, cols) = a.shape();
        check_bin_lengths(rows, cols, x_prior, b)?;
        ws.ensure(rows, cols);
        // An all-zero prior pins the answer: W → 0 turns the WLS update
        // into a no-op (x = x_p), while flooring the weights at
        // `f64::MIN_POSITIVE` would feed an all-subnormal `A W Aᵀ` to the
        // solver and overflow into NaN. Return the prior itself.
        if x_prior.iter().all(|&v| v == 0.0) {
            ws.x.copy_from_slice(x_prior);
            return Ok(());
        }
        // Weights proportional to the prior, floored at a fraction of its
        // mean.
        let mean_prior = x_prior.iter().sum::<f64>() / cols as f64;
        let floor = (mean_prior * WEIGHT_FLOOR).max(f64::MIN_POSITIVE);
        for (wi, &xp) in ws.w.iter_mut().zip(x_prior.iter()) {
            *wi = xp.max(floor);
        }

        // Residual of the constraints at the prior: resid = b − A x_p.
        a.matvec_into(x_prior, &mut ws.resid)
            .map_err(EstimationError::from)?;
        for (r, &bi) in ws.resid.iter_mut().zip(b.iter()) {
            *r = bi - *r;
        }

        // Solve (A W Aᵀ + scale·ridge·I) λ = resid through the policy's
        // solver: dense Cholesky (+ counted pseudo-inverse fallback) or
        // matrix-free PCG — the gram matrix never materializes there.
        ws.solver.set_policy(self.options.solver);
        ws.solver
            .solve(a, at, &ws.w, RIDGE, &ws.resid, &mut ws.lambda)
            .map_err(EstimationError::from)?;
        // x = max(0, x_p + W Aᵀ λ).
        a.matvec_transposed_into(&ws.lambda, &mut ws.at_lambda)
            .map_err(EstimationError::from)?;
        for (slot, ((&xp, &atl), &wi)) in
            ws.x.iter_mut()
                .zip(x_prior.iter().zip(ws.at_lambda.iter()).zip(ws.w.iter()))
        {
            let v = xp + wi * atl;
            *slot = if v < 0.0 { 0.0 } else { v };
        }
        Ok(())
    }
}

/// Length checks of the bin refinement, each naming the input that is
/// wrong: one prior entry per operator column, one observation per
/// operator row.
fn check_bin_lengths(rows: usize, cols: usize, x_prior: &[f64], b: &[f64]) -> Result<()> {
    if x_prior.len() != cols {
        return Err(EstimationError::DimensionMismatch {
            context: "tomogravity bin prior",
            expected: cols,
            actual: x_prior.len(),
        });
    }
    if b.len() != rows {
        return Err(EstimationError::DimensionMismatch {
            context: "tomogravity bin observations",
            expected: rows,
            actual: b.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{ObservationModel, Observations};
    use crate::prior::{GravityPrior, TmPrior};
    use ic_core::{mean_rel_l2, simplified_ic, TmSeries};
    use ic_topology::{geant22, RoutingScheme, Topology};

    fn square_topology() -> Topology {
        let mut t = Topology::new("sq");
        let a = t.add_node("a").unwrap();
        let b = t.add_node("b").unwrap();
        let c = t.add_node("c").unwrap();
        let d = t.add_node("d").unwrap();
        t.add_symmetric_link(a, b, 1.0, 1e12).unwrap();
        t.add_symmetric_link(b, c, 1.0, 1e12).unwrap();
        t.add_symmetric_link(c, d, 1.0, 1e12).unwrap();
        t.add_symmetric_link(d, a, 1.0, 1e12).unwrap();
        t
    }

    fn ic_series(f: f64, bins: usize) -> TmSeries {
        let n = 4;
        let p = [0.4, 0.3, 0.2, 0.1];
        let mut tm = TmSeries::zeros(n, bins, 300.0).unwrap();
        for t in 0..bins {
            let a: Vec<f64> = (0..n)
                .map(|i| 1e6 * (i + 1) as f64 * (1.0 + 0.1 * (t as f64).sin().abs()))
                .collect();
            let x = simplified_ic(f, &a, &p).unwrap();
            for i in 0..n {
                for j in 0..n {
                    tm.set(i, j, t, x[(i, j)]).unwrap();
                }
            }
        }
        tm
    }

    /// Refines every bin of `prior` through one workspace, bins in order
    /// as the pipeline runs them, and collects the refined bins.
    fn refine_series(
        tomo: &Tomogravity,
        om: &ObservationModel,
        obs: &Observations,
        prior: &TmSeries,
        ws: &mut TomogravityWorkspace,
    ) -> TmSeries {
        let n = om.nodes();
        let mut out = TmSeries::zeros(n, obs.bins(), obs.bin_seconds).unwrap();
        for t in 0..obs.bins() {
            let (xp, b) = (prior.column(t), obs.stacked_at(t));
            tomo.refine_bin_sparse_with(om.stacked_sparse(), om.stacked_transpose(), &xp, &b, ws)
                .unwrap();
            for (row, &v) in ws.solution().iter().enumerate() {
                out.set(row / n, row % n, t, v).unwrap();
            }
        }
        out
    }

    fn refine(om: &ObservationModel, obs: &Observations, prior: &TmSeries) -> TmSeries {
        let tomo = Tomogravity::new(TomogravityOptions::default());
        refine_series(&tomo, om, obs, prior, &mut TomogravityWorkspace::new())
    }

    #[test]
    fn refinement_satisfies_constraints() {
        let topo = square_topology();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let truth = ic_series(0.25, 2);
        let obs = om.observe(&truth).unwrap();
        let prior = GravityPrior.prior_series(&obs).unwrap();
        let refined = refine(&om, &obs, &prior);
        // The refined estimate reproduces the observations (small residual).
        let obs2 = om.observe(&refined).unwrap();
        for t in 0..2 {
            let want = obs.stacked_at(t);
            let got = obs2.stacked_at(t);
            let num: f64 = want
                .iter()
                .zip(got.iter())
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            let den: f64 = want.iter().map(|&a| a * a).sum::<f64>().sqrt();
            assert!(num / den < 1e-3, "constraint residual {}", num / den);
        }
    }

    #[test]
    fn refinement_improves_gravity_prior() {
        let topo = square_topology();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let truth = ic_series(0.22, 3);
        let obs = om.observe(&truth).unwrap();
        let prior = GravityPrior.prior_series(&obs).unwrap();
        let refined = refine(&om, &obs, &prior);
        let e_prior = mean_rel_l2(&truth, &prior).unwrap();
        let e_refined = mean_rel_l2(&truth, &refined).unwrap();
        assert!(
            e_refined <= e_prior + 1e-12,
            "refinement should not hurt: {e_refined} vs {e_prior}"
        );
    }

    #[test]
    fn exact_prior_is_fixed_point() {
        let topo = square_topology();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let truth = ic_series(0.25, 1);
        let obs = om.observe(&truth).unwrap();
        let refined = refine(&om, &obs, &truth);
        let err = mean_rel_l2(&truth, &refined).unwrap();
        assert!(err < 1e-9, "exact prior should be unchanged: {err}");
    }

    /// A prior or an observation vector longer than the operator is an
    /// error, not a silent truncation.
    #[test]
    fn validates_shapes() {
        let om = ObservationModel::new(&square_topology(), RoutingScheme::Ecmp).unwrap();
        let (a, at) = (om.stacked_sparse(), om.stacked_transpose());
        let tomo = Tomogravity::new(TomogravityOptions::default());
        let mut ws = TomogravityWorkspace::new();
        let (xp, b) = (vec![1.0; a.cols()], vec![1.0; a.rows()]);
        let long_xp = vec![1.0; a.cols() + 1];
        assert!(tomo
            .refine_bin_sparse_with(a, at, &long_xp, &b, &mut ws)
            .is_err());
        let long_b = vec![1.0; a.rows() + 1];
        assert!(tomo
            .refine_bin_sparse_with(a, at, &xp, &long_b, &mut ws)
            .is_err());
        tomo.refine_bin_sparse_with(a, at, &xp, &b, &mut ws)
            .unwrap();
    }

    /// A short observation vector is reported as itself, not as the
    /// prior (whose length is right).
    #[test]
    fn short_observation_vector_is_named_in_the_error() {
        let om = ObservationModel::new(&geant22(), RoutingScheme::Ecmp).unwrap();
        let a = om.stacked_sparse();
        let x_prior = vec![1e6; a.cols()];
        let b = vec![1e6; a.rows() - 1];
        let want = EstimationError::DimensionMismatch {
            context: "tomogravity bin observations",
            expected: a.rows(),
            actual: a.rows() - 1,
        };
        let tomo = Tomogravity::new(TomogravityOptions::default());
        let mut ws = TomogravityWorkspace::new();
        let sparse = tomo.refine_bin_sparse_with(a, om.stacked_transpose(), &x_prior, &b, &mut ws);
        assert_eq!(sparse, Err(want));
        // A short prior still names the prior.
        let b = vec![1e6; a.rows()];
        let sparse =
            tomo.refine_bin_sparse_with(a, om.stacked_transpose(), &x_prior[1..], &b, &mut ws);
        assert_eq!(
            sparse,
            Err(EstimationError::DimensionMismatch {
                context: "tomogravity bin prior",
                expected: a.cols(),
                actual: a.cols() - 1,
            })
        );
    }

    #[test]
    fn pcg_policy_matches_dense_and_counts_work() {
        let topo = square_topology();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let truth = ic_series(0.25, 2);
        let obs = om.observe(&truth).unwrap();
        let prior = GravityPrior.prior_series(&obs).unwrap();
        let dense =
            Tomogravity::new(TomogravityOptions::default().with_solver(SolverPolicy::Dense));
        let pcg = Tomogravity::new(TomogravityOptions::default().with_solver(SolverPolicy::Pcg));
        let mut ws_d = TomogravityWorkspace::new();
        let mut ws_p = TomogravityWorkspace::new();
        let rd = refine_series(&dense, &om, &obs, &prior, &mut ws_d);
        let rp = refine_series(&pcg, &om, &obs, &prior, &mut ws_p);
        let scale = 1.0 + truth.as_matrix().max_abs();
        for t in 0..2 {
            for i in 0..4 {
                for j in 0..4 {
                    let d = rd.get(i, j, t).unwrap();
                    let p = rp.get(i, j, t).unwrap();
                    assert!(
                        (d - p).abs() <= 1e-8 * scale,
                        "bin {t} ({i},{j}): {d} vs {p}"
                    );
                }
            }
        }
        // The observable counters reflect which path each workspace took.
        let sd = ws_d.solve_stats();
        assert_eq!(sd.dense_solves, 2);
        assert_eq!(sd.pcg_solves, 0);
        let sp = ws_p.solve_stats();
        assert_eq!(sp.pcg_solves, 2);
        assert_eq!(sp.dense_solves, 0);
        // Exact work: 49 iterations over the two 16-row solves, no stall.
        assert_eq!(sp.pcg_iterations, 49);
        assert_eq!(sp.pcg_stalls, 0);
        // Auto resolves dense at this (tiny) size: bit-identical to Dense.
        let auto = Tomogravity::new(TomogravityOptions::default());
        let mut ws_a = TomogravityWorkspace::new();
        let ra = refine_series(&auto, &om, &obs, &prior, &mut ws_a);
        assert_eq!(&ra, &rd);
        assert_eq!(ws_a.solve_stats().dense_solves, 2);
        ws_a.reset_solve_stats();
        assert_eq!(ws_a.solve_stats(), SolveStats::default());
    }

    #[test]
    fn clamp_produces_physical_estimates() {
        let topo = square_topology();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let truth = ic_series(0.25, 2);
        let obs = om.observe(&truth).unwrap();
        // Deliberately terrible prior: everything uniform.
        let mut prior = TmSeries::zeros(4, 2, 300.0).unwrap();
        for t in 0..2 {
            for i in 0..4 {
                for j in 0..4 {
                    prior.set(i, j, t, 1e5).unwrap();
                }
            }
        }
        let refined = refine(&om, &obs, &prior);
        assert!(refined.is_physical());
    }

    /// An all-zero prior used to drive the weight floor subnormal and
    /// the normal solve into NaN (caught downstream as an IPF
    /// "non-negative input" rejection). W → 0 pins x = x_p, so the refine
    /// must hand the prior back untouched under every solver policy.
    #[test]
    fn all_zero_prior_refines_to_the_prior_in_every_path() {
        let topo = square_topology();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let truth = ic_series(0.25, 2);
        let obs = om.observe(&truth).unwrap();
        let a = om.stacked_sparse();
        let at = om.stacked_transpose();
        let zero_prior = vec![0.0; a.cols()];
        let b0 = obs.stacked_at(0);
        for policy in [SolverPolicy::Dense, SolverPolicy::Pcg] {
            let tomo = Tomogravity::new(TomogravityOptions::default().with_solver(policy));
            // Pinned without invoking the solver.
            let mut ws = TomogravityWorkspace::new();
            tomo.refine_bin_sparse_with(a, at, &zero_prior, &b0, &mut ws)
                .unwrap();
            assert!(ws.solution().iter().all(|&v| v == 0.0), "{policy:?}");
            let stats = ws.solve_stats();
            assert_eq!(stats.dense_solves + stats.pcg_solves, 0, "{policy:?}");
        }
    }

    /// End to end: a bin with zero traffic everywhere produces a zero
    /// gravity prior and must refine to zeros rather than NaN.
    #[test]
    fn zero_traffic_bin_refines_to_zero_through_the_series_path() {
        let topo = square_topology();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let mut truth = ic_series(0.25, 2);
        for i in 0..4 {
            for j in 0..4 {
                truth.set(i, j, 1, 0.0).unwrap();
            }
        }
        let obs = om.observe(&truth).unwrap();
        let prior = GravityPrior.prior_series(&obs).unwrap();
        let refined = refine(&om, &obs, &prior);
        assert!(refined.is_physical());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(refined.get(i, j, 1).unwrap(), 0.0);
            }
        }
        // Bin 0 is untouched by the idle bin riding in the same series.
        let solo = refine(&om, &obs, &prior);
        assert_eq!(refined.get(0, 1, 0).unwrap(), solo.get(0, 1, 0).unwrap());
    }
}
