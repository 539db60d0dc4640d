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
//! [`TomogravityOptions`].

use crate::observe::{ObservationModel, Observations};
use crate::{EstimationError, Result};
use ic_core::TmSeries;
use ic_linalg::{
    pseudo_inverse, Cholesky, Matrix, NormalSolverWorkspace, SolveStats, SolverPolicy, SparseMatrix,
};

/// Options for the tomogravity refinement.
///
/// Marked `#[non_exhaustive]`: construct via
/// [`TomogravityOptions::default`] and the `with_*` setters so future
/// knobs are not breaking changes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct TomogravityOptions {
    /// Relative ridge added to `A W Aᵀ` (scaled by its max diagonal).
    pub ridge: f64,
    /// Weight floor as a fraction of the bin's mean prior entry, so
    /// zero-prior flows can still receive mass from the constraints.
    pub weight_floor: f64,
    /// Clamp negative refined entries to zero (the physical choice; the
    /// subsequent IPF step assumes non-negativity).
    pub clamp_negative: bool,
    /// Which normal-equations solver refines each bin.
    /// [`SolverPolicy::Auto`] (the default) keeps small problems on the
    /// historical dense path — bit-identical results — and switches large
    /// ones to matrix-free PCG.
    pub solver: SolverPolicy,
}

impl Default for TomogravityOptions {
    fn default() -> Self {
        TomogravityOptions {
            ridge: 1e-10,
            weight_floor: 1e-4,
            clamp_negative: true,
            solver: SolverPolicy::Auto,
        }
    }
}

impl TomogravityOptions {
    /// Sets the relative ridge added to `A W Aᵀ`.
    pub fn with_ridge(mut self, ridge: f64) -> Self {
        self.ridge = ridge;
        self
    }

    /// Sets the weight floor as a fraction of the bin's mean prior entry.
    pub fn with_weight_floor(mut self, weight_floor: f64) -> Self {
        self.weight_floor = weight_floor;
        self
    }

    /// Enables or disables clamping of negative refined entries.
    pub fn with_clamp_negative(mut self, clamp_negative: bool) -> Self {
        self.clamp_negative = clamp_negative;
        self
    }

    /// Sets the normal-equations solver policy.
    pub fn with_solver(mut self, solver: SolverPolicy) -> Self {
        self.solver = solver;
        self
    }
}

/// Reusable per-call buffers for the tomogravity refinement.
///
/// One workspace serves any number of bins (and any number of `refine`
/// calls): the solver's internal state (the dense gram matrix and its
/// Cholesky factor, or the PCG iteration vectors, depending on the
/// resolved [`SolverPolicy`]) and all vector scratch are sized on first
/// use and reused afterwards, so the per-bin inner loop performs no
/// allocation once warm. Streaming estimators hold one workspace across
/// windows for the same reason. The embedded [`NormalSolverWorkspace`]
/// also accumulates observable [`SolveStats`] — see
/// [`TomogravityWorkspace::solve_stats`].
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

    /// Refines a prior series against per-bin observations.
    ///
    /// Runs on the sparse observation operator; equivalent to calling
    /// [`Tomogravity::refine_with`] with a fresh workspace.
    pub fn refine(
        &self,
        model: &ObservationModel,
        obs: &Observations,
        prior: &TmSeries,
    ) -> Result<TmSeries> {
        let mut ws = TomogravityWorkspace::new();
        self.refine_with(model, obs, prior, &mut ws)
    }

    /// Refines a prior series against per-bin observations, reusing the
    /// given workspace (allocation-free per bin once warm).
    pub fn refine_with(
        &self,
        model: &ObservationModel,
        obs: &Observations,
        prior: &TmSeries,
        ws: &mut TomogravityWorkspace,
    ) -> Result<TmSeries> {
        let n = model.nodes();
        if prior.nodes() != n {
            return Err(EstimationError::DimensionMismatch {
                context: "tomogravity prior nodes",
                expected: n,
                actual: prior.nodes(),
            });
        }
        if prior.bins() != obs.bins() {
            return Err(EstimationError::DimensionMismatch {
                context: "tomogravity prior bins",
                expected: obs.bins(),
                actual: prior.bins(),
            });
        }
        let a = model.stacked_sparse();
        let at = model.stacked_transpose();
        let mut out = TmSeries::zeros(n, obs.bins(), obs.bin_seconds)?;
        let mut xp = vec![0.0; n * n];
        let mut b = vec![0.0; obs.stacked_len()];
        for t in 0..obs.bins() {
            for (row, slot) in xp.iter_mut().enumerate() {
                *slot = prior.as_matrix()[(row, t)];
            }
            obs.stacked_at_into(t, &mut b)?;
            self.refine_bin_sparse_with(a, at, &xp, &b, ws)?;
            for (row, &v) in ws.solution().iter().enumerate() {
                out.set(row / n, row % n, t, v)?;
            }
        }
        Ok(out)
    }

    /// Refines a single bin on the **sparse** operator:
    /// `x = x_p + W Aᵀ (A W Aᵀ)⁺ (b − A x_p)`, with `A W Aᵀ` assembled in
    /// `O(nnz)` and all scratch living in `ws` (result in
    /// [`TomogravityWorkspace::solution`]).
    ///
    /// `at` must be the precomputed transpose of `a`
    /// ([`ObservationModel::stacked_transpose`]). Numerically identical to
    /// the dense [`Tomogravity::refine_bin`].
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
        // Weights proportional to the prior, floored.
        let floor = weight_floor(x_prior, self.options.weight_floor);
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
            .solve(a, at, &ws.w, self.options.ridge, &ws.resid, &mut ws.lambda)
            .map_err(EstimationError::from)?;
        // x = x_p + W Aᵀ λ.
        a.matvec_transposed_into(&ws.lambda, &mut ws.at_lambda)
            .map_err(EstimationError::from)?;
        for (slot, ((&xp, &atl), &wi)) in
            ws.x.iter_mut()
                .zip(x_prior.iter().zip(ws.at_lambda.iter()).zip(ws.w.iter()))
        {
            *slot = xp + wi * atl;
        }
        if self.options.clamp_negative {
            for v in &mut ws.x {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        Ok(())
    }

    /// Refines a single bin on a **dense** operator:
    /// `x = x_p + W Aᵀ (A W Aᵀ)⁺ (b − A x_p)`.
    ///
    /// Kept as the dense reference path (and benchmark baseline); the
    /// series-level [`Tomogravity::refine`] runs sparse. `A W Aᵀ` is
    /// assembled with the zero-skipping `matmul` kernel, which is what
    /// keeps the dense baseline tractable on mid-size topologies.
    pub fn refine_bin(&self, a: &Matrix, x_prior: &[f64], b: &[f64]) -> Result<Vec<f64>> {
        let (rows, cols) = a.shape();
        check_bin_lengths(rows, cols, x_prior, b)?;
        // All-zero prior: W → 0 pins x = x_p (see the sparse path).
        if x_prior.iter().all(|&v| v == 0.0) {
            return Ok(x_prior.to_vec());
        }
        // Weights proportional to the prior, floored.
        let floor = weight_floor(x_prior, self.options.weight_floor);
        let w: Vec<f64> = x_prior.iter().map(|&v| v.max(floor)).collect();

        // Residual of the constraints at the prior.
        let ax = a.matvec(x_prior).map_err(EstimationError::from)?;
        let resid: Vec<f64> = b
            .iter()
            .zip(ax.iter())
            .map(|(&bi, &axi)| bi - axi)
            .collect();

        // Build A W Aᵀ (rows x rows) as (A·diag(w)) · Aᵀ.
        let mut aw = a.clone();
        for r in 0..rows {
            let row = aw.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                *v *= w[c];
            }
        }
        let awat = aw.matmul(&a.transpose()).map_err(EstimationError::from)?;
        let scale = awat.max_abs().max(f64::MIN_POSITIVE);
        let lambda = match Cholesky::factor_regularized(&awat, scale * self.options.ridge) {
            Ok(chol) => chol.solve(&resid).map_err(EstimationError::from)?,
            Err(_) => {
                // Rank-deficient beyond what the ridge absorbs: SVD route.
                let pinv = pseudo_inverse(&awat, None).map_err(EstimationError::from)?;
                pinv.matvec(&resid).map_err(EstimationError::from)?
            }
        };
        // x = x_p + W Aᵀ λ.
        let at_lambda = a
            .matvec_transposed(&lambda)
            .map_err(EstimationError::from)?;
        let mut x: Vec<f64> = x_prior
            .iter()
            .zip(at_lambda.iter().zip(w.iter()))
            .map(|(&xp, (&atl, &wi))| xp + wi * atl)
            .collect();
        if self.options.clamp_negative {
            for v in &mut x {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        Ok(x)
    }
}

/// Length checks shared by the dense and sparse bin refinements, each
/// naming the input that is wrong: one prior entry per operator column,
/// one observation per operator row.
fn check_bin_lengths(rows: usize, cols: usize, x_prior: &[f64], b: &[f64]) -> Result<()> {
    if x_prior.len() != cols {
        return Err(EstimationError::DimensionMismatch {
            context: "tomogravity refine_bin",
            expected: cols,
            actual: x_prior.len(),
        });
    }
    if b.len() != rows {
        return Err(EstimationError::DimensionMismatch {
            context: "tomogravity refine_bin b",
            expected: rows,
            actual: b.len(),
        });
    }
    Ok(())
}

/// Weight floor shared by the dense and sparse bin refinements.
fn weight_floor(x_prior: &[f64], weight_floor: f64) -> f64 {
    let mean_prior = x_prior.iter().sum::<f64>() / x_prior.len() as f64;
    (mean_prior * weight_floor).max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ObservationModel;
    use crate::prior::{GravityPrior, TmPrior};
    use ic_core::{mean_rel_l2, simplified_ic};
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

    #[test]
    fn refinement_satisfies_constraints() {
        let topo = square_topology();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let truth = ic_series(0.25, 2);
        let obs = om.observe(&truth).unwrap();
        let prior = GravityPrior.prior_series(&obs).unwrap();
        let tomo = Tomogravity::new(TomogravityOptions::default());
        let refined = tomo.refine(&om, &obs, &prior).unwrap();
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
        let tomo = Tomogravity::new(TomogravityOptions::default());
        let refined = tomo.refine(&om, &obs, &prior).unwrap();
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
        let tomo = Tomogravity::new(TomogravityOptions::default());
        let refined = tomo.refine(&om, &obs, &truth).unwrap();
        let err = mean_rel_l2(&truth, &refined).unwrap();
        assert!(err < 1e-9, "exact prior should be unchanged: {err}");
    }

    #[test]
    fn validates_shapes() {
        let topo = square_topology();
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let truth = ic_series(0.25, 2);
        let obs = om.observe(&truth).unwrap();
        let tomo = Tomogravity::new(TomogravityOptions::default());
        let bad_nodes = TmSeries::zeros(3, 2, 300.0).unwrap();
        assert!(tomo.refine(&om, &obs, &bad_nodes).is_err());
        let bad_bins = TmSeries::zeros(4, 5, 300.0).unwrap();
        assert!(tomo.refine(&om, &obs, &bad_bins).is_err());
        let a = Matrix::identity(3);
        assert!(tomo.refine_bin(&a, &[1.0], &[1.0, 1.0, 1.0]).is_err());
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
            context: "tomogravity refine_bin b",
            expected: a.rows(),
            actual: a.rows() - 1,
        };
        let tomo = Tomogravity::new(TomogravityOptions::default());
        let mut ws = TomogravityWorkspace::new();
        let sparse = tomo.refine_bin_sparse_with(a, om.stacked_transpose(), &x_prior, &b, &mut ws);
        assert_eq!(sparse, Err(want.clone()));
        let dense = tomo.refine_bin(&om.stacked().unwrap(), &x_prior, &b);
        assert_eq!(dense, Err(want));
        // A short prior still names the prior.
        let b = vec![1e6; a.rows()];
        let sparse =
            tomo.refine_bin_sparse_with(a, om.stacked_transpose(), &x_prior[1..], &b, &mut ws);
        assert_eq!(
            sparse,
            Err(EstimationError::DimensionMismatch {
                context: "tomogravity refine_bin",
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
        let rd = dense.refine_with(&om, &obs, &prior, &mut ws_d).unwrap();
        let rp = pcg.refine_with(&om, &obs, &prior, &mut ws_p).unwrap();
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
        let ra = auto.refine_with(&om, &obs, &prior, &mut ws_a).unwrap();
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
        let tomo = Tomogravity::new(TomogravityOptions::default());
        let refined = tomo.refine(&om, &obs, &prior).unwrap();
        assert!(refined.is_physical());
    }

    /// An all-zero prior used to drive the weight floor subnormal and
    /// the normal solve into NaN (caught downstream as an IPF
    /// "non-negative input" rejection). W → 0 pins x = x_p, so every
    /// refine path must hand the prior back untouched.
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
            // Scalar sparse path: pinned without invoking the solver.
            let mut ws = TomogravityWorkspace::new();
            tomo.refine_bin_sparse_with(a, at, &zero_prior, &b0, &mut ws)
                .unwrap();
            assert!(ws.solution().iter().all(|&v| v == 0.0), "{policy:?}");
            let stats = ws.solve_stats();
            assert_eq!(stats.dense_solves + stats.pcg_solves, 0, "{policy:?}");
            // Dense reference path.
            let dense = tomo
                .refine_bin(&om.stacked().unwrap(), &zero_prior, &b0)
                .unwrap();
            assert!(dense.iter().all(|&v| v == 0.0), "{policy:?}");
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
        let tomo = Tomogravity::new(TomogravityOptions::default());
        let refined = tomo.refine(&om, &obs, &prior).unwrap();
        assert!(refined.is_physical());
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(refined.get(i, j, 1).unwrap(), 0.0);
            }
        }
        // Bin 0 is untouched by the idle bin riding in the same series.
        let solo = tomo.refine(&om, &obs, &prior).unwrap();
        assert_eq!(refined.get(0, 1, 0).unwrap(), solo.get(0, 1, 0).unwrap());
    }
}
