//! The end-to-end estimation pipeline and the improvement comparison.
//!
//! Wires the three blueprint steps together (prior → tomogravity → IPF)
//! and computes the per-bin percentage improvement of an IC prior over the
//! gravity prior — the quantity Figures 11, 12 and 13 plot.
//!
//! Steps 2 and 3 are independent per time bin, and every entry point runs
//! the same per-bin kernel: [`EstimationPipeline::estimate`] and
//! [`EstimationPipeline::estimate_with`] loop over the bins in order
//! through one workspace, and [`EstimationPipeline::estimate_parallel_pooled`]
//! shards the bin range across an [`ic_engine::Engine`] worker pool with
//! one [`PipelineWorkspace`] per worker. The results are
//! **bit-identical** — thread count and shard size are wall-clock knobs
//! only (proptest-locked in this crate's `tests/proptests.rs`).

use crate::config::EstimationConfig;
use crate::ipf::{ipf_fit_with, IpfWorkspace};
use crate::observe::{ObservationModel, Observations};
use crate::prior::{GravityPrior, TmPrior};
use crate::tomogravity::{Tomogravity, TomogravityOptions, TomogravityWorkspace};
use crate::{EstimationError, Result};
use ic_core::{improvement_percent, rel_l2_series, TmSeries};
use ic_engine::{Engine, Shard, WorkspacePool};
use ic_linalg::{Matrix, SolveStats};
use ic_obs::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;
use std::time::Instant;

/// Pre-registered stage-timing handles for the pipeline's per-bin
/// kernel.
///
/// Register once ([`PipelineMetrics::register`]) and attach via
/// [`EstimationConfig::with_metrics`]; the instrumented kernel then
/// records each bin's tomogravity-refinement and IPF stage durations
/// plus the whole-bin time. Recording is a clock read and a relaxed
/// atomic add per stage — no locks, no allocation — and a pipeline
/// without metrics pays one `None` branch per bin, so the instrumented
/// path keeps the bit-identity and allocation-free guarantees.
#[derive(Debug)]
pub struct PipelineMetrics {
    /// `pipeline.refine.seconds` — per-bin tomogravity refinement time.
    pub refine: Arc<Histogram>,
    /// `pipeline.ipf.seconds` — per-bin IPF time.
    pub ipf: Arc<Histogram>,
    /// `pipeline.bin.seconds` — whole per-bin kernel time.
    pub bin: Arc<Histogram>,
    /// `pipeline.bins_total` — bins estimated.
    pub bins: Arc<Counter>,
}

impl PipelineMetrics {
    /// Registers the pipeline stage handles under `pipeline.*`.
    pub fn register(registry: &MetricsRegistry) -> Arc<PipelineMetrics> {
        Arc::new(PipelineMetrics {
            refine: registry.histogram("pipeline.refine.seconds"),
            ipf: registry.histogram("pipeline.ipf.seconds"),
            bin: registry.histogram("pipeline.bin.seconds"),
            bins: registry.counter("pipeline.bins_total"),
        })
    }
}

/// Reusable buffers for the full prior → tomogravity → IPF pipeline.
///
/// One workspace serves any number of bins, windows and
/// [`EstimationPipeline::estimate_with`] calls, on any pipeline: its
/// buffers reshape within their allocations, so after the first bin of the
/// largest model it has served the per-bin loop is allocation-free.
/// Streaming estimators carry one across their whole replay, and
/// `ic-serve` shares one per engine worker across all its tenants.
#[derive(Debug, Clone)]
pub struct PipelineWorkspace {
    tomo: TomogravityWorkspace,
    ipf: IpfWorkspace,
    snapshot: Matrix,
    ingress: Vec<f64>,
    egress: Vec<f64>,
    xp: Vec<f64>,
    b: Vec<f64>,
}

impl Default for PipelineWorkspace {
    fn default() -> Self {
        PipelineWorkspace::new()
    }
}

impl PipelineWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        PipelineWorkspace {
            tomo: TomogravityWorkspace::new(),
            ipf: IpfWorkspace::new(),
            snapshot: Matrix::zeros(0, 0),
            ingress: Vec::new(),
            egress: Vec::new(),
            xp: Vec::new(),
            b: Vec::new(),
        }
    }

    /// Sizes the buffers for one bin of a `nodes`-node model within their
    /// allocations, so a workspace shared by pipelines of different sizes
    /// stops allocating once it has served the largest.
    fn ensure(&mut self, nodes: usize, stacked_len: usize) {
        self.xp.resize(nodes * nodes, 0.0);
        self.b.resize(stacked_len, 0.0);
        self.snapshot.ensure_shape(nodes, nodes);
        self.ingress.resize(nodes, 0.0);
        self.egress.resize(nodes, 0.0);
    }

    /// Cumulative normal-equations solver counters for every bin refined
    /// through this workspace (see
    /// [`TomogravityWorkspace::solve_stats`](crate::TomogravityWorkspace::solve_stats)).
    pub fn solve_stats(&self) -> ic_linalg::SolveStats {
        self.tomo.solve_stats()
    }

    /// Zeroes the cumulative solver counters.
    pub fn reset_solve_stats(&mut self) {
        self.tomo.reset_solve_stats();
    }
}

/// The three-step estimation pipeline.
///
/// The observation model sits behind an [`Arc`]: clones of a pipeline
/// (a reconfigured variant, or the copy a streaming estimator wraps)
/// share one model instead of copying its sparse operators.
#[derive(Debug, Clone)]
pub struct EstimationPipeline {
    model: Arc<ObservationModel>,
    tomo: Tomogravity,
    config: EstimationConfig,
}

impl EstimationPipeline {
    /// Creates a pipeline over an observation model with the default
    /// [`EstimationConfig`].
    pub fn new(model: ObservationModel) -> Self {
        EstimationPipeline {
            model: Arc::new(model),
            tomo: Tomogravity::new(TomogravityOptions::default()),
            config: EstimationConfig::default(),
        }
    }

    /// Replaces the whole configuration — step options, solver policy,
    /// and metrics handle — in one call. This is the single
    /// configuration entry point.
    pub fn config(mut self, config: EstimationConfig) -> Self {
        self.tomo = Tomogravity::new(config.tomogravity);
        self.config = config;
        self
    }

    /// The configuration currently in effect. Clone, adjust, and feed
    /// back through [`EstimationPipeline::config`] to derive a variant.
    pub fn estimation_config(&self) -> &EstimationConfig {
        &self.config
    }

    /// The attached stage-timing metrics, if any.
    pub fn metrics(&self) -> Option<&Arc<PipelineMetrics>> {
        self.config.metrics.as_ref()
    }

    /// The observation model in use.
    pub fn model(&self) -> &ObservationModel {
        &self.model
    }

    /// Runs the full three-step pipeline with the given prior strategy.
    pub fn estimate(&self, prior: &dyn TmPrior, obs: &Observations) -> Result<TmSeries> {
        let mut ws = PipelineWorkspace::new();
        self.estimate_with(prior, obs, &mut ws)
    }

    /// Runs the full pipeline reusing the given workspace (allocation-free
    /// per bin once warm). Bit-identical to [`EstimationPipeline::estimate`].
    pub fn estimate_with(
        &self,
        prior: &dyn TmPrior,
        obs: &Observations,
        ws: &mut PipelineWorkspace,
    ) -> Result<TmSeries> {
        self.validate_observations(obs)?;
        let prior_series = prior.prior_series(obs)?;
        self.estimate_series(&prior_series, obs, ws)
    }

    /// Runs the full pipeline with bins sharded across an engine's worker
    /// pool, drawing per-worker workspaces from a caller-held pool so
    /// repeated runs (streaming windows, scenario batches) reuse warm
    /// buffers. Bit-identical to [`EstimationPipeline::estimate`] for
    /// every thread count and shard size.
    pub fn estimate_parallel_pooled(
        &self,
        prior: &dyn TmPrior,
        obs: &Observations,
        engine: &Engine,
        pool: &WorkspacePool<PipelineWorkspace>,
    ) -> Result<TmSeries> {
        self.validate_observations(obs)?;
        let prior_series = prior.prior_series(obs)?;
        if engine.threads() == 1 {
            // Serial fast path: the same kernel as `estimate_with` — no
            // shard chunks, no result slots, so a warm pooled caller
            // (streaming windows) stays allocation-free beyond the output
            // series itself. Bit-identical to the sharded path below by
            // construction.
            let mut ws = pool.checkout();
            let result = self.estimate_series(&prior_series, obs, &mut ws);
            pool.restore(ws);
            return result;
        }
        self.validate_prior(&prior_series, obs)?;
        let n = self.model.nodes();
        let chunks =
            engine.run_sharded(obs.bins(), pool, |shard, ws: &mut PipelineWorkspace| {
                self.estimate_shard(&prior_series, obs, shard, ws)
            })?;
        let mut out = TmSeries::zeros(n, obs.bins(), obs.bin_seconds)?;
        assemble_chunks(&mut out, &chunks);
        Ok(out)
    }

    /// Steps 2 and 3 from an explicit prior series, bins in order through
    /// one workspace and written straight into the output.
    fn estimate_series(
        &self,
        prior_series: &TmSeries,
        obs: &Observations,
        ws: &mut PipelineWorkspace,
    ) -> Result<TmSeries> {
        self.validate_prior(prior_series, obs)?;
        let n = self.model.nodes();
        let mut out = TmSeries::zeros(n, obs.bins(), obs.bin_seconds)?;
        for t in 0..obs.bins() {
            self.estimate_bin_with(prior_series, obs, t, ws)?;
            let fitted = ws.ipf.fitted();
            for i in 0..n {
                for j in 0..n {
                    out.set(i, j, t, fitted[(i, j)])?;
                }
            }
        }
        Ok(out)
    }

    /// Shape check of the observations at every entry point: marginals
    /// `nodes × bins` and one link-load row per link of the model.
    fn validate_observations(&self, obs: &Observations) -> Result<()> {
        obs.check_shape()?;
        if obs.y.rows() != self.model.links() {
            return Err(EstimationError::DimensionMismatch {
                context: "observation link loads",
                expected: self.model.links(),
                actual: obs.y.rows(),
            });
        }
        Ok(())
    }

    /// Shape checks shared by every entry point (the error contexts match
    /// the historical tomogravity-level validation).
    fn validate_prior(&self, prior_series: &TmSeries, obs: &Observations) -> Result<()> {
        let n = self.model.nodes();
        if prior_series.nodes() != n {
            return Err(EstimationError::DimensionMismatch {
                context: "tomogravity prior nodes",
                expected: n,
                actual: prior_series.nodes(),
            });
        }
        if prior_series.bins() != obs.bins() {
            return Err(EstimationError::DimensionMismatch {
                context: "tomogravity prior bins",
                expected: obs.bins(),
                actual: prior_series.bins(),
            });
        }
        Ok(())
    }

    /// Steps 2 and 3 for one bin; the fitted bin lands in `ws.ipf`. This
    /// is the single per-bin kernel every entry point runs, which is what
    /// makes serial/parallel bit-identity structural rather than
    /// coincidental.
    fn estimate_bin_with(
        &self,
        prior_series: &TmSeries,
        obs: &Observations,
        t: usize,
        ws: &mut PipelineWorkspace,
    ) -> Result<()> {
        let n = self.model.nodes();
        // Stage timings are observational only: clock reads plus relaxed
        // atomic records on pre-registered handles, skipped entirely (one
        // branch) when no metrics are attached.
        let metrics = self.config.metrics.as_deref();
        let bin_start = metrics.map(|_| Instant::now());
        ws.ensure(n, obs.stacked_len());
        for (row, slot) in ws.xp.iter_mut().enumerate() {
            *slot = prior_series.as_matrix()[(row, t)];
        }
        obs.stacked_at_into(t, &mut ws.b)?;
        let refine_start = metrics.map(|_| Instant::now());
        self.tomo.refine_bin_sparse_with(
            self.model.stacked_sparse(),
            self.model.stacked_transpose(),
            &ws.xp,
            &ws.b,
            &mut ws.tomo,
        )?;
        if let (Some(m), Some(start)) = (metrics, refine_start) {
            m.refine.record(start.elapsed().as_secs_f64());
        }
        for i in 0..n {
            for j in 0..n {
                ws.snapshot[(i, j)] = ws.tomo.solution()[i * n + j];
            }
            ws.ingress[i] = obs.ingress[(i, t)];
            ws.egress[i] = obs.egress[(i, t)];
        }
        let ipf_start = metrics.map(|_| Instant::now());
        ipf_fit_with(
            &ws.snapshot,
            &ws.ingress,
            &ws.egress,
            self.config.ipf,
            &mut ws.ipf,
        )?;
        if let (Some(m), Some(start)) = (metrics, ipf_start) {
            m.ipf.record(start.elapsed().as_secs_f64());
        }
        if let (Some(m), Some(start)) = (metrics, bin_start) {
            m.bin.record(start.elapsed().as_secs_f64());
            m.bins.inc();
        }
        Ok(())
    }

    /// Runs the per-bin kernel over one contiguous shard, returning the
    /// shard's fitted bins as a bin-major flat chunk.
    fn estimate_shard(
        &self,
        prior_series: &TmSeries,
        obs: &Observations,
        shard: Shard,
        ws: &mut PipelineWorkspace,
    ) -> Result<Vec<f64>> {
        let n = self.model.nodes();
        let mut chunk = Vec::with_capacity(shard.len * n * n);
        for t in shard.bins() {
            self.estimate_bin_with(prior_series, obs, t, ws)?;
            chunk.extend_from_slice(ws.ipf.fitted().as_slice());
        }
        Ok(chunk)
    }
}

/// Writes per-shard bin-major chunks back into a series, in bin order.
fn assemble_chunks(out: &mut TmSeries, chunks: &[Vec<f64>]) {
    let rows = out.nodes() * out.nodes();
    let data = out.as_matrix_mut();
    let mut t = 0usize;
    for chunk in chunks {
        for bin in chunk.chunks_exact(rows) {
            for (row, &v) in bin.iter().enumerate() {
                data[(row, t)] = v;
            }
            t += 1;
        }
    }
}

/// Result of comparing an IC prior against the gravity prior on the same
/// data.
#[derive(Debug, Clone)]
pub struct ComparisonResult {
    /// Per-bin percentage improvement of the IC-prior estimate over the
    /// gravity-prior estimate (positive = IC better).
    pub improvement: Vec<f64>,
    /// Mean of the improvement series.
    pub mean_improvement: f64,
    /// Per-bin relative L2 errors of the IC-prior estimate.
    pub errors_candidate: Vec<f64>,
    /// Per-bin relative L2 errors of the gravity-prior estimate.
    pub errors_gravity: Vec<f64>,
    /// Normal-equations solver counters accumulated across **both**
    /// refinements (candidate and gravity) — the comparison's solver
    /// health, deterministic for every thread count.
    pub solve_stats: SolveStats,
}

/// Runs the pipeline twice — once with `candidate`, once with the gravity
/// prior — and reports the improvement of the candidate, measured against
/// `truth` (the series the observations were derived from).
/// [`compare_priors_with`] on [`Engine::serial`].
pub fn compare_priors(
    pipeline: &EstimationPipeline,
    candidate: &dyn TmPrior,
    truth: &TmSeries,
    obs: &Observations,
) -> Result<ComparisonResult> {
    compare_priors_with(pipeline, candidate, truth, obs, &Engine::serial())
}

/// [`compare_priors`] on the engine: the candidate-prior and
/// gravity-prior refinements are flattened into **one** shard list
/// (candidate shards first, then gravity, each in bin order), so the two
/// priors run concurrently on the same worker pool instead of
/// back-to-back. Bit-identical for every thread count (proptest-locked).
pub fn compare_priors_with(
    pipeline: &EstimationPipeline,
    candidate: &dyn TmPrior,
    truth: &TmSeries,
    obs: &Observations,
    engine: &Engine,
) -> Result<ComparisonResult> {
    pipeline.validate_observations(obs)?;
    // Step 1 for both priors up front (cheap next to steps 2-3).
    let prior_candidate = candidate.prior_series(obs)?;
    let prior_gravity = GravityPrior.prior_series(obs)?;
    pipeline.validate_prior(&prior_candidate, obs)?;
    pipeline.validate_prior(&prior_gravity, obs)?;
    let priors = [&prior_candidate, &prior_gravity];
    let plan = engine.plan(obs.bins());
    let per_prior = plan.len();
    let pool: WorkspacePool<PipelineWorkspace> = WorkspacePool::new();
    let chunks = engine.run(per_prior * priors.len(), &pool, |k, ws| {
        pipeline.estimate_shard(priors[k / per_prior], obs, plan[k % per_prior], ws)
    })?;
    // Every worker has restored its workspace; the idle sum is the whole
    // run's counters, deterministic because each bin is solved exactly
    // once regardless of scheduling.
    let solve_stats = pool.fold_idle(SolveStats::default(), |mut acc, ws| {
        acc.merge(&ws.solve_stats());
        acc
    });
    let n = pipeline.model.nodes();
    let mut est_candidate = TmSeries::zeros(n, obs.bins(), obs.bin_seconds)?;
    let mut est_gravity = TmSeries::zeros(n, obs.bins(), obs.bin_seconds)?;
    assemble_chunks(&mut est_candidate, &chunks[..per_prior]);
    assemble_chunks(&mut est_gravity, &chunks[per_prior..]);
    let errors_candidate = rel_l2_series(truth, &est_candidate)?;
    let errors_gravity = rel_l2_series(truth, &est_gravity)?;
    let improvement: Vec<f64> = errors_gravity
        .iter()
        .zip(errors_candidate.iter())
        .map(|(&g, &c)| improvement_percent(g, c))
        .collect();
    let mean_improvement = improvement.iter().sum::<f64>() / improvement.len().max(1) as f64;
    Ok(ComparisonResult {
        improvement,
        mean_improvement,
        errors_candidate,
        errors_gravity,
        solve_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipf::IpfOptions;
    use crate::prior::{MeasuredIcPrior, StableFPrior, StableFpPrior};
    use ic_core::model::StableFpParams;
    use ic_core::{mean_rel_l2, stable_fp_series};
    use ic_linalg::Matrix;
    use ic_topology::{RoutingScheme, Topology};

    fn ring_topology(n: usize) -> Topology {
        let mut t = Topology::new("ring");
        let ids: Vec<usize> = (0..n)
            .map(|k| t.add_node(format!("n{k}")).unwrap())
            .collect();
        for k in 0..n {
            t.add_symmetric_link(ids[k], ids[(k + 1) % n], 1.0, 1e12)
                .unwrap();
        }
        // A chord for path diversity.
        t.add_symmetric_link(ids[0], ids[n / 2], 1.0, 1e12).unwrap();
        t
    }

    /// IC-process truth with mild non-IC perturbation so neither prior is
    /// exact.
    fn truth_series(n: usize, bins: usize, f: f64) -> (TmSeries, StableFpParams) {
        let p: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
        let psum: f64 = p.iter().sum();
        let p: Vec<f64> = p.iter().map(|v| v / psum).collect();
        let mut activity = Matrix::zeros(n, bins);
        for i in 0..n {
            for t in 0..bins {
                activity[(i, t)] =
                    1e6 * (n - i) as f64 * (1.0 + 0.25 * ((t * (i + 1)) as f64).sin().abs());
            }
        }
        let params = StableFpParams {
            f,
            preference: p,
            activity,
        };
        let mut tm = stable_fp_series(&params, 300.0).unwrap();
        // Deterministic perturbation (~5%) breaking exact IC structure.
        for t in 0..bins {
            for i in 0..n {
                for j in 0..n {
                    let v = tm.get(i, j, t).unwrap();
                    let wiggle = 1.0 + 0.05 * (((i * 13 + j * 7 + t * 3) % 9) as f64 - 4.0) / 4.0;
                    tm.set(i, j, t, v * wiggle).unwrap();
                }
            }
        }
        (tm, params)
    }

    #[test]
    fn pipeline_estimate_respects_marginals() {
        let topo = ring_topology(5);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let (truth, _) = truth_series(5, 2, 0.25);
        let obs = om.observe(&truth).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let est = pipeline.estimate(&GravityPrior, &obs).unwrap();
        for t in 0..2 {
            let gi = est.ingress(t);
            let ti = truth.ingress(t);
            for (g, t_) in gi.iter().zip(ti.iter()) {
                assert!((g - t_).abs() / t_.max(1.0) < 1e-6);
            }
        }
    }

    #[test]
    fn measured_ic_prior_beats_gravity_prior() {
        // The Section 6.1 scenario in miniature: both priors refined by the
        // same steps 2+3; the IC prior should come out ahead.
        let topo = ring_topology(6);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let (truth, params) = truth_series(6, 3, 0.22);
        let obs = om.observe(&truth).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let cmp = compare_priors(&pipeline, &MeasuredIcPrior { params }, &truth, &obs).unwrap();
        assert!(
            cmp.mean_improvement > 0.0,
            "mean improvement {}",
            cmp.mean_improvement
        );
        assert_eq!(cmp.improvement.len(), 3);
        assert_eq!(cmp.errors_candidate.len(), 3);
    }

    #[test]
    fn stable_fp_prior_beats_gravity_prior() {
        let topo = ring_topology(6);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let (truth, params) = truth_series(6, 3, 0.22);
        let obs = om.observe(&truth).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let cmp = compare_priors(
            &pipeline,
            &StableFpPrior {
                f: params.f,
                preference: params.preference.clone(),
            },
            &truth,
            &obs,
        )
        .unwrap();
        assert!(
            cmp.mean_improvement > 0.0,
            "mean improvement {}",
            cmp.mean_improvement
        );
    }

    #[test]
    fn stable_f_prior_beats_gravity_prior() {
        let topo = ring_topology(6);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let (truth, params) = truth_series(6, 3, 0.22);
        let obs = om.observe(&truth).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let cmp = compare_priors(&pipeline, &StableFPrior { f: params.f }, &truth, &obs).unwrap();
        assert!(
            cmp.mean_improvement > 0.0,
            "mean improvement {}",
            cmp.mean_improvement
        );
    }

    #[test]
    fn refinement_improves_over_raw_prior() {
        let topo = ring_topology(5);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let (truth, _) = truth_series(5, 2, 0.25);
        let obs = om.observe(&truth).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let raw_prior = GravityPrior.prior_series(&obs).unwrap();
        let est = pipeline.estimate(&GravityPrior, &obs).unwrap();
        let e_raw = mean_rel_l2(&truth, &raw_prior).unwrap();
        let e_est = mean_rel_l2(&truth, &est).unwrap();
        assert!(
            e_est < e_raw,
            "pipeline ({e_est}) should beat raw prior ({e_raw})"
        );
    }

    #[test]
    fn builder_options_apply() {
        let topo = ring_topology(4);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let pipeline = EstimationPipeline::new(om).config(
            EstimationConfig::new()
                .with_solver(ic_linalg::SolverPolicy::Dense)
                .with_ipf(
                    IpfOptions::default()
                        .with_max_iterations(50)
                        .with_tolerance(1e-8),
                ),
        );
        assert_eq!(
            pipeline.tomo.options().solver,
            ic_linalg::SolverPolicy::Dense
        );
        assert_eq!(pipeline.model().nodes(), 4);
        let (truth, _) = truth_series(4, 1, 0.25);
        let obs = pipeline.model().observe(&truth).unwrap();
        let est = pipeline.estimate(&GravityPrior, &obs).unwrap();
        assert!(est.is_physical());
    }

    #[test]
    fn instrumented_pipeline_is_bit_identical_and_records_stages() {
        let topo = ring_topology(5);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let (truth, _) = truth_series(5, 3, 0.25);
        let obs = om.observe(&truth).unwrap();
        let bare = EstimationPipeline::new(om.clone());
        let registry = MetricsRegistry::new();
        let metrics = PipelineMetrics::register(&registry);
        let instrumented = EstimationPipeline::new(om)
            .config(EstimationConfig::new().with_metrics(Arc::clone(&metrics)));
        assert!(instrumented.metrics().is_some());
        let a = bare.estimate(&GravityPrior, &obs).unwrap();
        let b = instrumented.estimate(&GravityPrior, &obs).unwrap();
        assert_eq!(a, b, "metrics must not change the estimate");
        assert_eq!(metrics.bins.get(), 3);
        assert_eq!(metrics.refine.count(), 3);
        assert_eq!(metrics.ipf.count(), 3);
        assert_eq!(metrics.bin.count(), 3);
        assert!(metrics.bin.sum() >= metrics.refine.sum());
        let text = registry.render_prometheus();
        assert!(text.contains("pipeline_bins_total 3"));
    }

    #[test]
    fn comparisons_report_solver_health() {
        let topo = ring_topology(6);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let (truth, params) = truth_series(6, 3, 0.22);
        let obs = om.observe(&truth).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let prior = MeasuredIcPrior { params };
        let serial = compare_priors(&pipeline, &prior, &truth, &obs).unwrap();
        // Both priors over 3 bins, refined through small dense systems.
        assert_eq!(serial.solve_stats.solves(), 6);
        assert!(serial.solve_stats.dense_solves > 0);
        // The engine form reports identical counters for any thread count.
        for threads in [1, 3] {
            let parallel = compare_priors_with(
                &pipeline,
                &prior,
                &truth,
                &obs,
                &Engine::new().with_threads(threads).with_shard_bins(1),
            )
            .unwrap();
            assert_eq!(
                parallel.solve_stats, serial.solve_stats,
                "{threads} threads"
            );
        }
    }

    /// An egress with fewer bins than the link loads is an error, not a
    /// panic inside the gravity prior.
    #[test]
    fn short_egress_is_rejected() {
        let topo = ring_topology(5);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let (truth, _) = truth_series(5, 2, 0.25);
        let mut obs = om.observe(&truth).unwrap();
        obs.egress = Matrix::filled(5, 1, 1e6);
        let pipeline = EstimationPipeline::new(om);
        assert!(matches!(
            pipeline.estimate(&GravityPrior, &obs),
            Err(EstimationError::DimensionMismatch { .. })
        ));
    }

    /// A prior that hands back a fixed series, whatever its shape.
    struct FixedPrior(TmSeries);

    impl TmPrior for FixedPrior {
        fn name(&self) -> &str {
            "fixed"
        }

        fn prior_series(&self, _obs: &Observations) -> Result<TmSeries> {
            Ok(self.0.clone())
        }
    }

    /// A prior series with the wrong node or bin count is the same typed
    /// error at every entry point, on both sides of the serial fast path.
    #[test]
    fn mis_shaped_prior_is_a_dimension_mismatch_at_every_entry_point() {
        let topo = ring_topology(5);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let (truth, _) = truth_series(5, 3, 0.25);
        let obs = om.observe(&truth).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let cases = [
            (
                TmSeries::zeros(4, 3, 300.0).unwrap(),
                EstimationError::DimensionMismatch {
                    context: "tomogravity prior nodes",
                    expected: 5,
                    actual: 4,
                },
            ),
            (
                TmSeries::zeros(5, 2, 300.0).unwrap(),
                EstimationError::DimensionMismatch {
                    context: "tomogravity prior bins",
                    expected: 3,
                    actual: 2,
                },
            ),
        ];
        for (series, want) in cases {
            let prior = FixedPrior(series);
            let mut ws = PipelineWorkspace::new();
            let serial = pipeline.estimate_with(&prior, &obs, &mut ws);
            assert_eq!(serial, Err(want.clone()));
            for threads in [1, 2] {
                let engine = Engine::new().with_threads(threads);
                let pooled =
                    pipeline.estimate_parallel_pooled(&prior, &obs, &engine, &WorkspacePool::new());
                assert_eq!(pooled, Err(want.clone()), "{threads} threads");
            }
            let engine = Engine::new().with_threads(2);
            let cmp = compare_priors_with(&pipeline, &prior, &truth, &obs, &engine);
            assert_eq!(cmp.err(), Some(want));
        }
    }

    #[test]
    fn with_solver_overrides_policy_and_counts_in_workspace() {
        use ic_linalg::SolverPolicy;

        let topo = ring_topology(4);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let (truth, _) = truth_series(4, 2, 0.25);

        let dense = EstimationPipeline::new(om.clone());
        let pcg = dense
            .clone()
            .config(EstimationConfig::new().with_solver(SolverPolicy::Pcg));
        // The config reaches the refinement.
        assert_eq!(pcg.tomo.options().solver, SolverPolicy::Pcg);

        let obs = om.observe(&truth).unwrap();
        let mut ws_d = PipelineWorkspace::new();
        let mut ws_p = PipelineWorkspace::new();
        let est_d = dense.estimate_with(&GravityPrior, &obs, &mut ws_d).unwrap();
        let est_p = pcg.estimate_with(&GravityPrior, &obs, &mut ws_p).unwrap();

        assert_eq!(ws_d.solve_stats().pcg_solves, 0);
        assert!(ws_d.solve_stats().dense_solves > 0);
        assert!(ws_p.solve_stats().pcg_solves > 0);
        assert_eq!(ws_p.solve_stats().dense_solves, 0);

        let (md, mp) = (est_d.as_matrix(), est_p.as_matrix());
        let scale = md.max_abs().max(1.0);
        for (x, y) in md.as_slice().iter().zip(mp.as_slice().iter()) {
            assert!((x - y).abs() <= 1e-8 * scale);
        }

        ws_p.reset_solve_stats();
        assert_eq!(ws_p.solve_stats(), ic_linalg::SolveStats::default());
    }
}
