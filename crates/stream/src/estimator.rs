//! Online estimators: one traffic-matrix estimate per window.
//!
//! An [`OnlineEstimator`] consumes [`Window`]s in stream order, carrying
//! whatever state makes the next window cheaper or better:
//!
//! * [`OnlineGravity`] — the gravity baseline, stateless: each window's
//!   estimate is the batch [`gravity_predict`] of the window;
//! * [`WarmStartIcFit`] — the Section 5.1 stable-fP fit, warm-started
//!   from the previous window's optimum ([`FitOptions::with_initial`]),
//!   exploiting the paper's parameter-stability findings to converge in
//!   fewer BCD sweeps than a cold fit;
//! * [`StreamingTomogravity`] — the Section 6 estimation pipeline run
//!   per window with the *rolling* IC fit as its prior: window `k` is
//!   estimated from link loads alone using the `(f, P)` fitted on window
//!   `k − 1`, after which window `k`'s directly-measured TM refreshes the
//!   fit (the streaming form of the paper's "previous week calibrates the
//!   next" scenario, Section 6.2).
//!
//! An estimator only estimates: [`WindowTracker`] reports its windows, and
//! [`gravity_baseline`] is the pipeline estimators' baseline. There is no
//! reset; a cold start is a freshly built estimator.
//!
//! [`WindowTracker`]: crate::WindowTracker
//! [`gravity_baseline`]: crate::gravity_baseline

use crate::metrics::StreamMetrics;
use crate::window::Window;
use crate::{Result, StreamError};
use ic_core::{
    fit_stable_fp, gravity_predict, mean_rel_l2, FitOptions, FitReport, StableFpParams, TmSeries,
};
use ic_engine::{Engine, WorkspacePool};
use ic_estimation::{
    EstimationConfig, EstimationPipeline, GravityPrior, Observations, PipelineWorkspace,
    StableFpPrior, TmPrior,
};
use ic_linalg::SolveStats;
use ic_obs::Span;
use std::sync::Arc;

/// One window's estimation outcome.
#[derive(Debug, Clone)]
pub struct WindowEstimate {
    /// Window sequence number.
    pub window: usize,
    /// Global stream index of the window's first bin.
    pub start_bin: usize,
    /// The estimated traffic-matrix series for the window.
    pub estimate: TmSeries,
    /// Mean relative ℓ² error of the estimate against the window's own
    /// series (Eq. 6 averaged over the window's bins).
    pub error: f64,
    /// Forward ratio fitted on this window, when the estimator fits.
    pub fitted_f: Option<f64>,
    /// Preference vector fitted on this window, when the estimator fits.
    pub fitted_preference: Option<Vec<f64>>,
    /// Final fit objective on this window, when the estimator fits.
    pub fit_objective: Option<f64>,
    /// BCD sweeps the window's fit used, when the estimator fits.
    pub sweeps: Option<usize>,
    /// Whether this window's fit was warm-started from a previous window.
    pub warm: bool,
    /// Normal-equations solver work of this window's tomogravity
    /// refinement; all-zero for estimators that never refine. The rolling
    /// fit solves its subproblems in closed form and counts nothing.
    pub solve_stats: SolveStats,
}

/// A stateful estimator advancing one window at a time.
///
/// Implementations are deterministic: feeding the same window sequence to
/// a freshly constructed estimator reproduces the same estimates
/// bit-for-bit (the property the experiment runner's 1-vs-N determinism
/// rests on).
pub trait OnlineEstimator {
    /// Short stable identifier used in reports.
    fn name(&self) -> &str;

    /// Consumes the next window and produces its estimate, updating any
    /// carried state (the previous window's fit, ...).
    fn process(&mut self, window: &Window) -> Result<WindowEstimate>;
}

/// The gravity baseline as an online estimator: each bin is estimated
/// from its own marginals, exactly the batch gravity model, so it carries
/// no state between windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineGravity;

impl OnlineGravity {
    /// The per-bin gravity estimator.
    pub fn new() -> Self {
        OnlineGravity
    }
}

impl OnlineEstimator for OnlineGravity {
    fn name(&self) -> &str {
        "online-gravity"
    }

    fn process(&mut self, window: &Window) -> Result<WindowEstimate> {
        let x = &window.series;
        let estimate = gravity_predict(x).map_err(StreamError::from)?;
        let error = mean_rel_l2(x, &estimate).map_err(StreamError::from)?;
        Ok(WindowEstimate {
            window: window.index,
            start_bin: window.start_bin,
            estimate,
            error,
            fitted_f: None,
            fitted_preference: None,
            fit_objective: None,
            sweeps: None,
            warm: false,
            solve_stats: SolveStats::default(),
        })
    }
}

/// Warm-started incremental stable-fP fit.
///
/// The first window is fitted cold; every subsequent window starts the
/// BCD at the previous window's optimum. Construct with
/// [`WarmStartIcFit::cold`] to disable the carrying (the online/batch
/// equivalence reference).
#[derive(Debug, Clone)]
pub struct WarmStartIcFit {
    options: FitOptions,
    warm: bool,
    previous: Option<FitReport<StableFpParams>>,
}

impl WarmStartIcFit {
    /// A warm-starting fitter with the given per-window fit options.
    pub fn new(options: FitOptions) -> Self {
        WarmStartIcFit {
            options,
            warm: true,
            previous: None,
        }
    }

    /// A fitter that refits every window from the cold Eq. 11–12
    /// initialization — per window bit-identical to the batch
    /// [`fit_stable_fp`].
    pub fn cold(options: FitOptions) -> Self {
        WarmStartIcFit {
            options,
            warm: false,
            previous: None,
        }
    }

    /// The most recent window's fit, once a window has been processed.
    pub fn last_fit(&self) -> Option<&FitReport<StableFpParams>> {
        self.previous.as_ref()
    }

    fn window_options(&self) -> FitOptions {
        match (&self.previous, self.warm) {
            (Some(prev), true) => self.options.clone().with_initial(prev),
            _ => self.options.clone(),
        }
    }
}

impl OnlineEstimator for WarmStartIcFit {
    fn name(&self) -> &str {
        if self.warm {
            "ic-fit-warm"
        } else {
            "ic-fit-cold"
        }
    }

    fn process(&mut self, window: &Window) -> Result<WindowEstimate> {
        let warm = self.warm && self.previous.is_some();
        let fit =
            fit_stable_fp(&window.series, self.window_options()).map_err(StreamError::from)?;
        let estimate = fit
            .predict(window.series.bin_seconds())
            .map_err(StreamError::from)?;
        let error = mean_rel_l2(&window.series, &estimate).map_err(StreamError::from)?;
        let out = WindowEstimate {
            window: window.index,
            start_bin: window.start_bin,
            estimate,
            error,
            fitted_f: Some(fit.params.f),
            fitted_preference: Some(fit.params.preference.clone()),
            fit_objective: Some(fit.final_objective()),
            sweeps: Some(fit.objective_history.len()),
            warm,
            solve_stats: SolveStats::default(),
        };
        self.previous = Some(fit);
        Ok(out)
    }
}

/// The carried state of a [`StreamingTomogravity`], detached from its
/// configuration.
///
/// Everything window `k + 1` depends on from windows `0..=k`: the rolling
/// fit (prior + warm start for the next refresh). Extract with
/// [`StreamingTomogravity::state`], reinstall with
/// [`StreamingTomogravity::restore`] on an identically configured
/// estimator; the restored estimator's next-window output is
/// **bit-identical** to the uninterrupted one's (unit-tested below) —
/// the contract `ic-serve` warm-state snapshots rest on.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingTomogravityState {
    /// The rolling fit carried from the most recent processed window
    /// (`None` in the cold-start condition).
    pub previous: Option<FitReport<StableFpParams>>,
}

/// Streaming tomogravity/IPF with a rolling IC prior.
///
/// Window `k` is estimated from its *observations only* (link counts and
/// marginals through the pipeline's [`ObservationModel`]) using the
/// stable-fP parameters fitted on window `k − 1` as the prior
/// ([`StableFpPrior::from_fit`]); the first window falls back to the
/// gravity prior. After estimating, the window's series refreshes the
/// rolling fit (warm-started), playing the role of the paper's
/// directly-measured calibration week arriving one window late.
///
/// [`OnlineEstimator::process`] runs each window on the estimator's own
/// engine and workspace pool; [`StreamingTomogravity::process_with`] runs
/// it on a workspace the caller holds, which is how `ic-serve` keeps one
/// set of solver buffers per engine worker instead of one per tenant.
/// Both give the same estimate bit for bit.
///
/// [`ObservationModel`]: ic_estimation::ObservationModel
#[derive(Debug, Clone)]
pub struct StreamingTomogravity {
    pipeline: EstimationPipeline,
    fit_options: FitOptions,
    previous: Option<FitReport<StableFpParams>>,
    /// Bin-sharding engine for the per-window pipeline run (serial by
    /// default; thread count never changes results).
    engine: Engine,
    /// Reused across [`OnlineEstimator::process`] windows: per-worker
    /// tomogravity/IPF scratch (results are bit-identical to
    /// fresh-workspace runs). On the serial default engine the
    /// steady-state loop is allocation-free; multi-thread engines add only
    /// small per-window scheduling allocations. Stays empty when every
    /// window goes through [`StreamingTomogravity::process_with`].
    pool: WorkspacePool<PipelineWorkspace>,
    /// Optional observability handles; recording is result-neutral
    /// (atomics only, never on the numeric path).
    metrics: Option<Arc<StreamMetrics>>,
}

impl StreamingTomogravity {
    /// Wraps an estimation pipeline (observation model + tomogravity +
    /// IPF options) for streaming use.
    pub fn new(pipeline: EstimationPipeline) -> Self {
        StreamingTomogravity {
            pipeline,
            fit_options: FitOptions::default(),
            previous: None,
            engine: Engine::serial(),
            pool: WorkspacePool::new(),
            metrics: None,
        }
    }

    /// Applies a unified [`EstimationConfig`] in one call, the
    /// estimator's only configuration entry point: the pipeline takes the
    /// tomogravity, IPF, solver and metrics settings, and the rolling
    /// per-window fit takes `config.fit`.
    pub fn config(mut self, config: EstimationConfig) -> Self {
        self.fit_options = config.fit.clone();
        self.pipeline = self.pipeline.config(config);
        self
    }

    /// Attaches pre-registered streaming metrics: per-window latency into
    /// `stream.window.seconds`, window count into `stream.windows_total`.
    /// Estimates are bit-identical with or without metrics attached.
    pub fn set_metrics(&mut self, metrics: Arc<StreamMetrics>) {
        self.metrics = Some(metrics);
    }

    /// Shards each window's pipeline run across the engine's worker pool.
    /// Bit-identical to the serial default for any thread count.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The most recent window's rolling fit.
    pub fn last_fit(&self) -> Option<&FitReport<StableFpParams>> {
        self.previous.as_ref()
    }

    /// Extracts the carried state for snapshotting (see
    /// [`StreamingTomogravityState`]). The estimator keeps running
    /// unaffected.
    pub fn state(&self) -> StreamingTomogravityState {
        StreamingTomogravityState {
            previous: self.previous.clone(),
        }
    }

    /// Reinstalls previously extracted state. The estimator must be
    /// configured identically (same pipeline, fit options, solver) to the
    /// one the state was taken from for the bit-identity guarantee to
    /// hold; held workspaces are result-neutral and need not be restored.
    pub fn restore(&mut self, state: StreamingTomogravityState) {
        self.previous = state.previous;
    }

    /// Sum of the cumulative solver counters across the pool's idle
    /// workspaces. Between windows every workspace is idle, so deltas of
    /// this sum are per-window solver work.
    fn pool_solve_stats(&self) -> SolveStats {
        self.pool.fold_idle(SolveStats::default(), |mut acc, ws| {
            acc.merge(&ws.solve_stats());
            acc
        })
    }

    /// [`OnlineEstimator::process`] on the caller's workspace, serially,
    /// leaving the estimator's own engine and pool untouched. The window's
    /// solver work is the delta of `ws`'s cumulative counters, so `ws` may
    /// carry counts from other pipelines. Bit-identical to `process` for
    /// every engine.
    pub fn process_with(
        &mut self,
        window: &Window,
        ws: &mut PipelineWorkspace,
    ) -> Result<WindowEstimate> {
        self.step(window, |me, prior, obs| {
            let before = ws.solve_stats();
            let estimate = me.pipeline.estimate_with(prior, obs, ws)?;
            Ok((estimate, ws.solve_stats().since(&before)))
        })
    }

    /// The one per-window body behind [`OnlineEstimator::process`] and
    /// [`StreamingTomogravity::process_with`]: observe the window, estimate
    /// it through `estimate` (which returns the estimate with its solver
    /// work) from the rolling prior, then refresh the rolling fit.
    fn step(
        &mut self,
        window: &Window,
        estimate: impl FnOnce(
            &Self,
            &dyn TmPrior,
            &Observations,
        ) -> ic_estimation::Result<(TmSeries, SolveStats)>,
    ) -> Result<WindowEstimate> {
        let span = Span::maybe(self.metrics.as_deref().map(|m| &m.window));
        let obs = self
            .pipeline
            .model()
            .observe(&window.series)
            .map_err(StreamError::from)?;
        let warm = self.previous.is_some();
        let prior: Box<dyn TmPrior> = match &self.previous {
            Some(fit) => Box::new(StableFpPrior::from_fit(fit)),
            None => Box::new(GravityPrior),
        };
        let (estimate, solve_stats) =
            estimate(self, prior.as_ref(), &obs).map_err(StreamError::from)?;
        let error = mean_rel_l2(&window.series, &estimate).map_err(StreamError::from)?;
        // The window's TM has now "been measured": refresh the rolling
        // fit for the next window, warm-starting from the current one.
        let options = match &self.previous {
            Some(prev) => self.fit_options.clone().with_initial(prev),
            None => self.fit_options.clone(),
        };
        let fit = fit_stable_fp(&window.series, options).map_err(StreamError::from)?;
        let out = WindowEstimate {
            window: window.index,
            start_bin: window.start_bin,
            estimate,
            error,
            fitted_f: Some(fit.params.f),
            fitted_preference: Some(fit.params.preference.clone()),
            fit_objective: Some(fit.final_objective()),
            sweeps: Some(fit.objective_history.len()),
            warm,
            solve_stats,
        };
        self.previous = Some(fit);
        if let Some(m) = self.metrics.as_deref() {
            m.windows.inc();
        }
        drop(span);
        Ok(out)
    }
}

impl OnlineEstimator for StreamingTomogravity {
    fn name(&self) -> &str {
        "streaming-tomogravity"
    }

    fn process(&mut self, window: &Window) -> Result<WindowEstimate> {
        self.step(window, |me, prior, obs| {
            // Solver work is read as a delta of the pool's cumulative
            // workspace counters: every workspace is idle between windows
            // (the engine restores them), so the delta is exactly this
            // window's solves, for any worker count.
            let before = me.pool_solve_stats();
            let estimate = me
                .pipeline
                .estimate_parallel_pooled(prior, obs, &me.engine, &me.pool)?;
            Ok((estimate, me.pool_solve_stats().since(&before)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{LinkLoadStream, ReplayStream, SyntheticStream};
    use crate::window::Windower;
    use ic_core::SynthConfig;
    use ic_estimation::ObservationModel;
    use ic_topology::{RoutingScheme, Topology};

    fn windows(nodes: usize, bins: usize, window: usize, seed: u64) -> Vec<Window> {
        let mut stream = SyntheticStream::new(
            SynthConfig::geant_like(seed)
                .with_nodes(nodes)
                .with_bins(bins),
        )
        .unwrap();
        Windower::tumbling(window)
            .unwrap()
            .take_windows(&mut stream, None)
            .unwrap()
    }

    fn ring_topology(n: usize) -> Topology {
        let mut t = Topology::new("ring");
        let ids: Vec<usize> = (0..n)
            .map(|k| t.add_node(format!("n{k}")).unwrap())
            .collect();
        for k in 0..n {
            t.add_symmetric_link(ids[k], ids[(k + 1) % n], 1.0, 1e12)
                .unwrap();
        }
        t
    }

    #[test]
    fn online_gravity_matches_batch_gravity_per_window() {
        for w in windows(4, 12, 4, 5) {
            let est = OnlineGravity::new().process(&w).unwrap();
            let batch = gravity_predict(&w.series).unwrap();
            assert_eq!(est.estimate, batch, "window {}", w.index);
            assert!(est.error > 0.0);
            assert!(est.fitted_f.is_none());
        }
    }

    #[test]
    fn cold_fitter_equals_batch_fit_bit_for_bit() {
        let ws = windows(4, 16, 4, 7);
        let mut cold = WarmStartIcFit::cold(FitOptions::default());
        assert_eq!(cold.name(), "ic-fit-cold");
        for w in &ws {
            let est = cold.process(w).unwrap();
            let batch = fit_stable_fp(&w.series, FitOptions::default()).unwrap();
            assert_eq!(est.fitted_f, Some(batch.params.f));
            assert_eq!(est.fit_objective, Some(batch.final_objective()));
            assert_eq!(est.estimate, batch.predict(300.0).unwrap());
            assert!(!est.warm);
        }
    }

    #[test]
    fn warm_fitter_converges_like_cold_with_fewer_sweeps() {
        let ws = windows(5, 24, 6, 8);
        let mut warm = WarmStartIcFit::new(FitOptions::default());
        let mut cold = WarmStartIcFit::cold(FitOptions::default());
        assert_eq!(warm.name(), "ic-fit-warm");
        let mut warm_sweeps = 0;
        let mut cold_sweeps = 0;
        for (k, w) in ws.iter().enumerate() {
            let ew = warm.process(w).unwrap();
            let ec = cold.process(w).unwrap();
            assert_eq!(ew.warm, k > 0);
            // Same optimum within tolerance (one-sided: the warm start
            // may descend below the cold stopping point).
            assert!(
                ew.fit_objective.unwrap() <= ec.fit_objective.unwrap() + 1e-4,
                "window {k}: warm {} vs cold {}",
                ew.fit_objective.unwrap(),
                ec.fit_objective.unwrap()
            );
            if k > 0 {
                warm_sweeps += ew.sweeps.unwrap();
                cold_sweeps += ec.sweeps.unwrap();
            }
        }
        assert!(
            warm_sweeps <= cold_sweeps,
            "warm {warm_sweeps} sweeps vs cold {cold_sweeps}"
        );
        assert!(warm.last_fit().is_some());
        assert!(WarmStartIcFit::new(FitOptions::default())
            .last_fit()
            .is_none());
    }

    #[test]
    fn streaming_tomogravity_improves_once_the_prior_rolls_in() {
        let topo = ring_topology(5);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let mut stream =
            SyntheticStream::new(SynthConfig::geant_like(11).with_nodes(5).with_bins(18)).unwrap();
        let ws = Windower::tumbling(6)
            .unwrap()
            .take_windows(&mut stream, None)
            .unwrap();
        let mut est = StreamingTomogravity::new(EstimationPipeline::new(om.clone()))
            .config(EstimationConfig::new().with_fit(FitOptions::default()));
        assert_eq!(est.name(), "streaming-tomogravity");
        let mut errors = Vec::new();
        for w in &ws {
            let e = est.process(w).unwrap();
            assert_eq!(e.warm, w.index > 0);
            errors.push(e.error);
        }
        assert!(est.last_fit().is_some());
        // Window 0 used the gravity prior; later windows use the rolling
        // IC prior, which on IC-structured traffic must do better on
        // average.
        let mut rolling = 0.0;
        let mut gravity = 0.0;
        for (k, w) in ws.iter().enumerate().skip(1) {
            // A fresh estimator takes the gravity-prior path.
            let mut gravity_only = StreamingTomogravity::new(EstimationPipeline::new(om.clone()));
            let g = gravity_only.process(w).unwrap();
            rolling += errors[k];
            gravity += g.error;
        }
        assert!(
            rolling < gravity,
            "rolling IC prior {rolling} should beat gravity prior {gravity}"
        );
    }

    #[test]
    fn streaming_pcg_solver_tracks_dense_solver() {
        let topo = ring_topology(5);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let mut stream =
            SyntheticStream::new(SynthConfig::geant_like(17).with_nodes(5).with_bins(12)).unwrap();
        let ws = Windower::tumbling(4)
            .unwrap()
            .take_windows(&mut stream, None)
            .unwrap();
        let mut dense = StreamingTomogravity::new(EstimationPipeline::new(om.clone()))
            .config(EstimationConfig::new().with_solver(ic_linalg::SolverPolicy::Dense));
        let mut pcg = StreamingTomogravity::new(EstimationPipeline::new(om))
            .config(EstimationConfig::new().with_solver(ic_linalg::SolverPolicy::Pcg));
        for w in &ws {
            let ed = dense.process(w).unwrap();
            let ep = pcg.process(w).unwrap();
            assert!(
                (ed.error - ep.error).abs() <= 1e-6 * ed.error + 1e-9,
                "window {}: dense error {} vs pcg {}",
                w.index,
                ed.error,
                ep.error
            );
            // Per-window solver health surfaces the policy actually used.
            assert!(ed.solve_stats.dense_solves > 0);
            assert_eq!(ed.solve_stats.pcg_solves, 0);
            assert!(ep.solve_stats.pcg_solves > 0);
            assert!(ep.solve_stats.pcg_iterations > 0);
        }
    }

    /// One `config(..)` call reaches both consumers: the pipeline's
    /// refinement runs the configured solver and the rolling fit the
    /// configured fit options.
    #[test]
    fn streaming_config_reaches_pipeline_and_fit() {
        let topo = ring_topology(4);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let mut stream =
            SyntheticStream::new(SynthConfig::geant_like(37).with_nodes(4).with_bins(8)).unwrap();
        let ws = Windower::tumbling(4)
            .unwrap()
            .take_windows(&mut stream, None)
            .unwrap();
        let mut est = StreamingTomogravity::new(EstimationPipeline::new(om)).config(
            EstimationConfig::new()
                .with_fit(FitOptions::default().with_max_sweeps(7))
                .with_solver(ic_linalg::SolverPolicy::Pcg),
        );
        for w in &ws {
            let e = est.process(w).unwrap();
            assert!(e.solve_stats.pcg_solves > 0, "window {}", w.index);
            assert_eq!(e.solve_stats.dense_solves, 0, "window {}", w.index);
            assert!(e.sweeps.unwrap() <= 7, "window {}", w.index);
        }
    }

    /// `process_with` on a caller's workspace — one that other pipelines
    /// of other sizes use between windows — gives `process`'s estimates,
    /// fits and per-window solver counts bit for bit, and leaves the
    /// estimator's own pool empty.
    #[test]
    fn process_with_matches_process_on_a_shared_workspace() {
        let om = ObservationModel::new(&ring_topology(5), RoutingScheme::Ecmp).unwrap();
        let other = EstimationPipeline::new(
            ObservationModel::new(&ring_topology(7), RoutingScheme::Ecmp).unwrap(),
        );
        let other_obs = other
            .model()
            .observe(&windows(7, 4, 4, 31)[0].series)
            .unwrap();
        let mut pooled = StreamingTomogravity::new(EstimationPipeline::new(om.clone()))
            .with_engine(Engine::new().with_threads(2));
        let mut borrowed = StreamingTomogravity::new(EstimationPipeline::new(om));
        let mut ws = PipelineWorkspace::new();
        for w in &windows(5, 12, 4, 19) {
            other
                .estimate_with(&GravityPrior, &other_obs, &mut ws)
                .unwrap();
            let a = pooled.process(w).unwrap();
            let b = borrowed.process_with(w, &mut ws).unwrap();
            assert_eq!(a.estimate, b.estimate, "window {}", w.index);
            assert_eq!(a.error.to_bits(), b.error.to_bits());
            assert_eq!(a.fitted_f, b.fitted_f);
            assert_eq!(a.fitted_preference, b.fitted_preference);
            assert_eq!(a.warm, b.warm);
            assert_eq!(a.solve_stats, b.solve_stats);
            assert!(b.solve_stats.dense_solves > 0);
        }
        assert_eq!(borrowed.pool.idle(), 0);
    }

    #[test]
    fn restored_streaming_tomogravity_is_bit_identical_on_the_next_window() {
        let topo = ring_topology(5);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let mut stream =
            SyntheticStream::new(SynthConfig::geant_like(23).with_nodes(5).with_bins(16)).unwrap();
        let ws = Windower::tumbling(4)
            .unwrap()
            .take_windows(&mut stream, None)
            .unwrap();
        let mut live = StreamingTomogravity::new(EstimationPipeline::new(om.clone()));
        // Cold-start state restores to cold start.
        assert_eq!(live.state().previous, None);
        live.process(&ws[0]).unwrap();
        live.process(&ws[1]).unwrap();
        let snapshot = live.state();
        assert!(snapshot.previous.is_some());
        // A freshly configured estimator with the snapshot installed must
        // continue bit-identically to the uninterrupted one.
        let mut restored = StreamingTomogravity::new(EstimationPipeline::new(om));
        restored.restore(snapshot.clone());
        for w in &ws[2..] {
            let a = live.process(w).unwrap();
            let b = restored.process(w).unwrap();
            assert_eq!(a.estimate, b.estimate, "window {}", w.index);
            assert_eq!(a.error.to_bits(), b.error.to_bits());
            assert_eq!(a.fitted_f, b.fitted_f);
            assert_eq!(a.fitted_preference, b.fitted_preference);
            assert_eq!(a.fit_objective, b.fit_objective);
            assert_eq!(a.sweeps, b.sweeps);
            assert!(a.warm && b.warm);
        }
        // restore() overwrites carried state outright.
        restored.restore(StreamingTomogravityState { previous: None });
        assert!(restored.last_fit().is_none());
        // state() itself is side-effect free: re-extracting gives the
        // same snapshot.
        live.restore(snapshot.clone());
        assert_eq!(live.state(), snapshot);
    }

    #[test]
    fn instrumented_streaming_is_bit_identical_and_counts_windows() {
        let topo = ring_topology(5);
        let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap();
        let mut stream =
            SyntheticStream::new(SynthConfig::geant_like(29).with_nodes(5).with_bins(12)).unwrap();
        let ws = Windower::tumbling(4)
            .unwrap()
            .take_windows(&mut stream, None)
            .unwrap();
        let registry = ic_obs::MetricsRegistry::new();
        let metrics = StreamMetrics::register(&registry);
        let mut bare = StreamingTomogravity::new(EstimationPipeline::new(om.clone()));
        let mut instrumented = StreamingTomogravity::new(EstimationPipeline::new(om));
        instrumented.set_metrics(Arc::clone(&metrics));
        for w in &ws {
            let a = bare.process(w).unwrap();
            let b = instrumented.process(w).unwrap();
            assert_eq!(a.estimate, b.estimate, "window {}", w.index);
            assert_eq!(a.error.to_bits(), b.error.to_bits());
            assert_eq!(a.solve_stats, b.solve_stats);
            assert!(b.solve_stats.solves() > 0);
        }
        assert_eq!(metrics.windows.get(), ws.len() as u64);
        assert_eq!(metrics.window.count(), ws.len() as u64);
        assert!(metrics.window.max() > 0.0);
    }

    #[test]
    fn estimators_replay_deterministically() {
        let series =
            SyntheticStream::new(SynthConfig::geant_like(13).with_nodes(4).with_bins(12)).unwrap();
        let collect = |mut s: SyntheticStream| {
            let mut tm = Vec::new();
            while let Some(c) = s.next_column() {
                tm.push(c);
            }
            tm
        };
        assert_eq!(collect(series.clone()), collect(series));
        let ws = windows(4, 12, 4, 13);
        let run = || {
            let mut fitter = WarmStartIcFit::new(FitOptions::default());
            ws.iter()
                .map(|w| fitter.process(w).unwrap().error)
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(), run());
        let _ = ReplayStream::new(ws[0].series.clone());
    }
}
