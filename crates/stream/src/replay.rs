//! End-to-end streaming replay: stream → windows → estimator →
//! forecaster → drift detector, with a gravity baseline alongside.
//!
//! One window step serves the replay drivers and `ic-serve` alike:
//! [`WindowTracker`] owns the windower, forecaster and drift detector and
//! assembles every [`WindowReport`], and [`gravity_baseline`] estimates a
//! window from [`GravityPrior`] on the caller's runner and scores it.
//!
//! [`replay_fit`] drives the warm-started incremental IC fit against the
//! online gravity baseline on a raw stream (the Section 5 comparison,
//! continuously); [`replay_estimation`] drives the full streaming
//! tomogravity/IPF pipeline against the gravity-prior pipeline on the
//! same observations (the Section 6 comparison, continuously). Both
//! produce a [`ReplayReport`] with one [`WindowReport`] per window —
//! the structure the experiment runner's `Task::Streaming` and the
//! serving layer consume. A cold window of [`replay_estimation`] (no
//! rolling fit yet) runs no baseline: its candidate already estimates it
//! from the gravity prior, so its error is the `error_gravity`
//! (improvement 0). [`replay_fit`]'s cold candidate is a fit, so its
//! baseline runs on every window.
//!
//! Window estimation runs through the shared [`ic_engine::Engine`]
//! (`*_with` variants take it explicitly) while preserving the online
//! ordering contract: windows are still consumed strictly in stream
//! order — warm starts and the rolling prior see exactly the history
//! they would see serially — and the engine parallelizes only *within* a
//! step: the independent candidate/baseline pair of each window
//! ([`Engine::join`]) and, for the pipeline estimators, the bins inside
//! a window. Replays are therefore bit-identical for every thread count.

use crate::drift::{DriftDetector, DriftDetectorState, DriftEvent, DriftOptions};
use crate::estimator::{
    OnlineEstimator, OnlineGravity, StreamingTomogravity, WarmStartIcFit, WindowEstimate,
};
use crate::forecast::{ForecastOptions, ParamForecast, ParamForecaster, ParamForecasterState};
use crate::source::LinkLoadStream;
use crate::window::{Window, Windower, WindowerState};
use crate::{Result, StreamError};
use ic_core::{improvement_percent, mean_rel_l2, FitOptions, TmSeries};
use ic_engine::{Engine, WorkspacePool};
use ic_estimation::{EstimationPipeline, GravityPrior, Observations, TmPrior};
use ic_linalg::SolveStats;

/// Options for a streaming replay run.
///
/// Marked `#[non_exhaustive]`: construct via [`ReplayOptions::default`]
/// and the `with_*` setters.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ReplayOptions {
    /// Bins per window (default 288 — one day of 5-minute bins).
    pub window_bins: usize,
    /// Window stride; `None` means tumbling (`stride == window_bins`).
    pub stride: Option<usize>,
    /// Warm-start each window's fit from the previous optimum (default
    /// true; false refits cold, the batch-equivalent reference).
    pub warm_start: bool,
    /// Per-window fit options.
    pub fit: FitOptions,
    /// Parameter-forecasting options.
    pub forecast: ForecastOptions,
    /// Change-detection options.
    pub drift: DriftOptions,
    /// Stop after this many windows (`None` drains the stream).
    pub max_windows: Option<usize>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            window_bins: 288,
            stride: None,
            warm_start: true,
            fit: FitOptions::default(),
            forecast: ForecastOptions::default(),
            drift: DriftOptions::default(),
            max_windows: None,
        }
    }
}

impl ReplayOptions {
    /// Sets the bins per window.
    pub fn with_window_bins(mut self, bins: usize) -> Self {
        self.window_bins = bins;
        self
    }

    /// Sets a sliding stride (tumbling when unset).
    pub fn with_stride(mut self, stride: usize) -> Self {
        self.stride = Some(stride);
        self
    }

    /// Enables or disables warm-started refits.
    pub fn with_warm_start(mut self, warm: bool) -> Self {
        self.warm_start = warm;
        self
    }

    /// Sets the per-window fit options.
    pub fn with_fit_options(mut self, fit: FitOptions) -> Self {
        self.fit = fit;
        self
    }

    /// Sets the forecasting options.
    pub fn with_forecast(mut self, forecast: ForecastOptions) -> Self {
        self.forecast = forecast;
        self
    }

    /// Sets the change-detection options.
    pub fn with_drift(mut self, drift: DriftOptions) -> Self {
        self.drift = drift;
        self
    }

    /// Bounds the number of windows replayed.
    pub fn with_max_windows(mut self, max: usize) -> Self {
        self.max_windows = Some(max);
        self
    }
}

/// One replayed window's results.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Window sequence number.
    pub window: usize,
    /// Global stream index of the window's first bin.
    pub start_bin: usize,
    /// Bins in the window.
    pub bins: usize,
    /// Forward ratio fitted on the window.
    pub fitted_f: f64,
    /// Final fit objective on the window.
    pub fit_objective: f64,
    /// BCD sweeps the window's fit used.
    pub sweeps: usize,
    /// Whether the fit was warm-started.
    pub warm: bool,
    /// Candidate (IC) estimator error on the window.
    pub error_candidate: f64,
    /// Gravity baseline error on the window.
    pub error_gravity: f64,
    /// Percentage improvement of the candidate over gravity.
    pub improvement: f64,
    /// `|forecast f − fitted f|` when a forecast existed before the
    /// window arrived.
    pub forecast_f_error: Option<f64>,
    /// Change-detection events fired at this window.
    pub drift_events: Vec<DriftEvent>,
    /// Normal-equations solver work the candidate's tomogravity
    /// refinement spent on this window (PCG iterations, stalls, dense
    /// fallbacks); the rolling fit counts nothing.
    pub solve_stats: SolveStats,
}

/// Results of a streaming replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Name of the candidate estimator that produced the windows.
    pub estimator: String,
    /// Per-window results, in stream order.
    pub windows: Vec<WindowReport>,
}

impl ReplayReport {
    /// Number of replayed windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window completed.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total bins covered by the replayed windows.
    pub fn total_bins(&self) -> usize {
        self.windows.iter().map(|w| w.bins).sum()
    }

    /// Mean improvement over the gravity baseline across windows.
    pub fn mean_improvement(&self) -> f64 {
        mean(self.windows.iter().map(|w| w.improvement))
    }

    /// Mean candidate error across windows.
    pub fn mean_error_candidate(&self) -> f64 {
        mean(self.windows.iter().map(|w| w.error_candidate))
    }

    /// Mean gravity error across windows.
    pub fn mean_error_gravity(&self) -> f64 {
        mean(self.windows.iter().map(|w| w.error_gravity))
    }

    /// Mean BCD sweeps per window.
    pub fn mean_sweeps(&self) -> f64 {
        mean(self.windows.iter().map(|w| w.sweeps as f64))
    }

    /// Mean absolute `f` forecast error over the windows that had a
    /// forecast (NaN when none did).
    pub fn mean_forecast_f_error(&self) -> f64 {
        mean(self.windows.iter().filter_map(|w| w.forecast_f_error))
    }

    /// Windows at which at least one drift event fired.
    pub fn drift_windows(&self) -> Vec<usize> {
        self.windows
            .iter()
            .filter(|w| !w.drift_events.is_empty())
            .map(|w| w.window)
            .collect()
    }

    /// The per-window fitted `f` series (forecasting/drift input).
    pub fn f_series(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.fitted_f).collect()
    }

    /// Candidate solver work accumulated across all windows.
    pub fn total_solve_stats(&self) -> SolveStats {
        let mut acc = SolveStats::default();
        for w in &self.windows {
            acc.merge(&w.solve_stats);
        }
        acc
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for x in xs {
        sum += x;
        count += 1;
    }
    if count == 0 {
        f64::NAN
    } else {
        sum / count as f64
    }
}

/// The per-window step shared by the replay drivers and `ic-serve`: it
/// windows the stream, and turns each window's candidate estimate and
/// gravity-baseline error into the window's [`WindowReport`].
#[derive(Debug, Clone)]
pub struct WindowTracker {
    windower: Windower,
    forecaster: ParamForecaster,
    detector: DriftDetector,
}

impl WindowTracker {
    /// A tracker with `options`' window length, stride, forecasting and
    /// drift options.
    pub fn new(options: &ReplayOptions) -> Result<Self> {
        let stride = options.stride.unwrap_or(options.window_bins);
        Ok(WindowTracker {
            windower: Windower::sliding(options.window_bins, stride)?,
            forecaster: ParamForecaster::new(options.forecast.clone())?,
            detector: DriftDetector::new(options.drift.clone())?,
        })
    }

    /// Buffers one bin (`nodes²` entries); returns the window it
    /// completes, if any.
    pub fn push(
        &mut self,
        nodes: usize,
        bin_seconds: f64,
        column: Vec<f64>,
    ) -> Result<Option<Window>> {
        self.windower.push(nodes, bin_seconds, column)
    }

    /// Reports `window` from its candidate estimate and the gravity
    /// baseline's error. A candidate that fitted the window first has its
    /// fitted `f` score the forecast made before the window, then extends
    /// the forecaster's and the drift detector's history; one that fits
    /// nothing reports NaN fit fields, no forecast error and no drift.
    pub fn report(
        &mut self,
        window: &Window,
        candidate: &WindowEstimate,
        error_gravity: f64,
    ) -> Result<WindowReport> {
        let (forecast_f_error, drift_events) =
            match (candidate.fitted_f, &candidate.fitted_preference) {
                (Some(f), Some(p)) => {
                    let fe = self.forecaster.forecast().map(|fc| fc.f_error(f));
                    self.forecaster.observe(f, p)?;
                    (fe, self.detector.observe(window.index, f, p)?)
                }
                _ => (None, Vec::new()),
            };
        Ok(WindowReport {
            window: window.index,
            start_bin: window.start_bin,
            bins: window.bins(),
            fitted_f: candidate.fitted_f.unwrap_or(f64::NAN),
            fit_objective: candidate.fit_objective.unwrap_or(f64::NAN),
            sweeps: candidate.sweeps.unwrap_or(0),
            warm: candidate.warm,
            error_candidate: candidate.error,
            error_gravity,
            improvement: improvement_percent(error_gravity, candidate.error),
            forecast_f_error,
            drift_events,
            solve_stats: candidate.solve_stats,
        })
    }

    /// The forecast of the next window's `(f, {P_i})`, once a fitted
    /// window has been reported.
    pub fn forecast(&self) -> Option<ParamForecast> {
        self.forecaster.forecast()
    }

    /// The carried window position (buffered bins included), forecaster
    /// history and drift statistics.
    pub fn state(&self) -> (WindowerState, ParamForecasterState, DriftDetectorState) {
        (
            self.windower.state(),
            self.forecaster.state(),
            self.detector.state(),
        )
    }

    /// Reinstalls [`WindowTracker::state`] taken from a tracker built from
    /// the same options: the windows and reports that follow are
    /// bit-identical to the uninterrupted tracker's.
    pub fn restore(
        &mut self,
        windower: WindowerState,
        forecaster: ParamForecasterState,
        detector: DriftDetectorState,
    ) {
        self.windower.restore(windower);
        self.forecaster.restore(forecaster);
        self.detector.restore(detector);
    }
}

/// The gravity baseline's error on one window: the window observed
/// through `pipeline`'s model, estimated from [`GravityPrior`] by
/// `estimate` on the caller's runner (`estimate_with` on a workspace, or
/// `estimate_parallel_pooled` on an engine and pool), and scored with
/// [`mean_rel_l2`] against the window's series.
pub fn gravity_baseline(
    pipeline: &EstimationPipeline,
    window: &Window,
    estimate: impl FnOnce(&dyn TmPrior, &Observations) -> ic_estimation::Result<TmSeries>,
) -> Result<f64> {
    let obs = pipeline.model().observe(&window.series)?;
    let estimate = estimate(&GravityPrior, &obs)?;
    Ok(mean_rel_l2(&window.series, &estimate)?)
}

/// Replays a stream through the warm-started incremental IC fit with the
/// online gravity baseline (direct-fit comparison, no topology), on the
/// default engine.
pub fn replay_fit(
    stream: &mut dyn LinkLoadStream,
    options: &ReplayOptions,
) -> Result<ReplayReport> {
    replay_fit_with(stream, options, &Engine::new())
}

/// [`replay_fit`] on an explicit engine. The thread count never changes
/// the report — only wall-clock time.
pub fn replay_fit_with(
    stream: &mut dyn LinkLoadStream,
    options: &ReplayOptions,
    engine: &Engine,
) -> Result<ReplayReport> {
    let mut candidate = if options.warm_start {
        WarmStartIcFit::new(options.fit.clone())
    } else {
        WarmStartIcFit::cold(options.fit.clone())
    };
    let name = candidate.name().to_string();
    run_replay(stream, options, name, |window| {
        // The candidate/baseline pair shares no state, so the engine may
        // run the two sides concurrently; the candidate's error is
        // inspected first either way, preserving the serial failure
        // order.
        let (cand, base) = engine.join(
            || candidate.process(window),
            || OnlineGravity.process(window),
        );
        Ok((cand?, base?.error))
    })
}

/// Replays a stream through the streaming tomogravity/IPF pipeline with a
/// rolling IC prior, against the gravity-prior pipeline on the same
/// observations, on the default engine.
pub fn replay_estimation(
    stream: &mut dyn LinkLoadStream,
    pipeline: EstimationPipeline,
    options: &ReplayOptions,
) -> Result<ReplayReport> {
    replay_estimation_with(stream, pipeline, options, &Engine::new())
}

/// [`replay_estimation`] on an explicit engine: each warm window's
/// candidate and baseline pipelines run concurrently ([`Engine::join`])
/// and each pipeline's bins are sharded across the worker pool. A cold
/// window runs only its candidate (see the module docs). Bit-identical to
/// the serial replay for every thread count.
pub fn replay_estimation_with(
    stream: &mut dyn LinkLoadStream,
    pipeline: EstimationPipeline,
    options: &ReplayOptions,
    engine: &Engine,
) -> Result<ReplayReport> {
    if pipeline.model().nodes() != stream.nodes() {
        return Err(StreamError::ShapeMismatch {
            context: "replay_estimation topology nodes",
            expected: stream.nodes(),
            actual: pipeline.model().nodes(),
        });
    }
    // The candidate and baseline each keep a window's pipeline run on the
    // engine; `join` already splits the pair across two workers, so the
    // two sides split the thread budget between them (the candidate —
    // which also carries the rolling fit — takes the odd thread, keeping
    // the total at the engine's configured count).
    let candidate_inner = engine.with_threads(engine.threads().div_ceil(2));
    let baseline_inner = engine.with_threads(engine.threads() / 2);
    // The candidate inherits the pipeline's own configuration (solver,
    // metrics) with only the per-window fit options swapped in; the
    // baseline runs the same pipeline as-is.
    let candidate_config = pipeline
        .estimation_config()
        .clone()
        .with_fit(options.fit.clone());
    let mut candidate = StreamingTomogravity::new(pipeline.clone())
        .config(candidate_config)
        .with_engine(candidate_inner);
    let name = candidate.name().to_string();
    let pool = WorkspacePool::new();
    run_replay(stream, options, name, |window| {
        if candidate.last_fit().is_none() {
            // Cold: the candidate is the gravity estimate (module docs).
            let cand = candidate.process(window)?;
            let error_gravity = cand.error;
            return Ok((cand, error_gravity));
        }
        let (cand, base) = engine.join(
            || candidate.process(window),
            || {
                gravity_baseline(&pipeline, window, |prior, obs| {
                    pipeline.estimate_parallel_pooled(prior, obs, &baseline_inner, &pool)
                })
            },
        );
        Ok((cand?, base?))
    })
}

/// Windows `stream` through a [`WindowTracker`] built from `options` and
/// reports each window from `step`, which returns the candidate's
/// estimate and the gravity baseline's error.
fn run_replay(
    stream: &mut dyn LinkLoadStream,
    options: &ReplayOptions,
    estimator: String,
    mut step: impl FnMut(&Window) -> Result<(WindowEstimate, f64)>,
) -> Result<ReplayReport> {
    let nodes = stream.nodes();
    let bin_seconds = stream.bin_seconds();
    let mut tracker = WindowTracker::new(options)?;
    let mut windows = Vec::new();
    while options.max_windows.is_none_or(|m| windows.len() < m) {
        let Some(column) = stream.next_column() else {
            break;
        };
        if let Some(window) = tracker.push(nodes, bin_seconds, column)? {
            let (candidate, error_gravity) = step(&window)?;
            windows.push(tracker.report(&window, &candidate, error_gravity)?);
        }
    }
    if windows.is_empty() {
        return Err(StreamError::BadConfig(
            "stream ended before a single window filled",
        ));
    }
    Ok(ReplayReport { estimator, windows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ReplayStream, SyntheticStream};
    use ic_core::{fit_stable_fp, SynthConfig};
    use ic_estimation::{EstimationConfig, ObservationModel, PipelineMetrics, PipelineWorkspace};
    use ic_obs::MetricsRegistry;
    use ic_topology::{RoutingScheme, Topology};
    use std::sync::Arc;

    fn cfg(seed: u64) -> SynthConfig {
        SynthConfig::geant_like(seed).with_nodes(5).with_bins(30)
    }

    fn ring5() -> ObservationModel {
        let mut topo = Topology::new("ring5");
        for k in 0..5 {
            topo.add_node(format!("n{k}")).unwrap();
        }
        for k in 0..5 {
            topo.add_symmetric_link(k, (k + 1) % 5, 1.0, 1e12).unwrap();
        }
        ObservationModel::new(&topo, RoutingScheme::Ecmp).unwrap()
    }

    /// A cold `StreamingTomogravity` estimates its window from the gravity
    /// prior through the pipeline `gravity_baseline` runs, so the two give
    /// the same estimate and error bits, on every runner. Both drivers skip
    /// a cold window's baseline because of this.
    #[test]
    fn cold_candidate_equals_the_gravity_baseline_bit_for_bit() {
        let pipeline = EstimationPipeline::new(ring5());
        let window = Windower::tumbling(4)
            .unwrap()
            .take_windows(&mut SyntheticStream::new(cfg(27)).unwrap(), Some(1))
            .unwrap()
            .remove(0);
        for engine in [Engine::serial(), Engine::new().with_threads(2)] {
            let cold = StreamingTomogravity::new(pipeline.clone())
                .with_engine(engine)
                .process(&window)
                .unwrap();
            assert!(!cold.warm);
            let pool = WorkspacePool::new();
            let mut pooled = None;
            let error = gravity_baseline(&pipeline, &window, |prior, obs| {
                let estimate = pipeline.estimate_parallel_pooled(prior, obs, &engine, &pool)?;
                pooled = Some(estimate.clone());
                Ok(estimate)
            })
            .unwrap();
            assert_eq!(error.to_bits(), cold.error.to_bits(), "{engine:?}");
            assert_eq!(pooled.as_ref(), Some(&cold.estimate), "{engine:?}");
            let mut ws = PipelineWorkspace::new();
            let mut borrowed = None;
            let error = gravity_baseline(&pipeline, &window, |prior, obs| {
                let estimate = pipeline.estimate_with(prior, obs, &mut ws)?;
                borrowed = Some(estimate.clone());
                Ok(estimate)
            })
            .unwrap();
            assert_eq!(error.to_bits(), cold.error.to_bits(), "{engine:?}");
            assert_eq!(borrowed.as_ref(), Some(&cold.estimate), "{engine:?}");
        }
    }

    /// Two 4-bin windows: the cold one runs only its candidate (4 bins),
    /// the warm one its candidate and baseline (8 bins).
    #[test]
    fn replay_estimation_runs_no_baseline_on_a_cold_window() {
        for threads in [1, 2] {
            let registry = MetricsRegistry::new();
            let metrics = PipelineMetrics::register(&registry);
            let pipeline = EstimationPipeline::new(ring5())
                .config(EstimationConfig::new().with_metrics(Arc::clone(&metrics)));
            let mut stream = SyntheticStream::new(cfg(28).with_bins(8)).unwrap();
            let report = replay_estimation_with(
                &mut stream,
                pipeline,
                &ReplayOptions::default().with_window_bins(4),
                &Engine::new().with_threads(threads),
            )
            .unwrap();
            assert_eq!(report.len(), 2);
            assert_eq!(metrics.bins.get(), 12, "{threads} threads");
            let [cold, warm] = &report.windows[..] else {
                unreachable!()
            };
            assert!(!cold.warm && warm.warm);
            assert_eq!(cold.error_gravity.to_bits(), cold.error_candidate.to_bits());
            assert_eq!(cold.improvement, 0.0);
            assert_ne!(warm.error_gravity.to_bits(), warm.error_candidate.to_bits());
        }
    }

    fn opts() -> ReplayOptions {
        ReplayOptions::default().with_window_bins(6)
    }

    #[test]
    fn replay_fit_covers_every_full_window() {
        let mut stream = SyntheticStream::new(cfg(21)).unwrap();
        let report = replay_fit(&mut stream, &opts()).unwrap();
        assert_eq!(report.len(), 5);
        assert!(!report.is_empty());
        assert_eq!(report.total_bins(), 30);
        assert_eq!(report.estimator, "ic-fit-warm");
        // Exactly-IC traffic: the fit dominates gravity on every window.
        assert!(report.mean_improvement() > 0.0);
        assert!(report.mean_error_candidate() < report.mean_error_gravity());
        assert_eq!(report.f_series().len(), 5);
        // Windows 1.. are warm and have forecasts to score.
        assert!(report.windows[0].forecast_f_error.is_none());
        assert!(!report.windows[0].warm);
        assert!(report.windows[1..].iter().all(|w| w.warm));
        assert!(report.windows[1..]
            .iter()
            .all(|w| w.forecast_f_error.is_some()));
        assert!(report.mean_forecast_f_error() < 0.1);
        // Stationary synthetic process: no drift.
        assert!(report.drift_windows().is_empty());
        assert!(report.mean_sweeps() >= 1.0);
    }

    #[test]
    fn cold_replay_matches_batch_window_fits() {
        let series = ic_core::generate_synthetic(&cfg(22)).unwrap().series;
        let mut stream = ReplayStream::new(series.clone());
        let report = replay_fit(&mut stream, &opts().with_warm_start(false)).unwrap();
        assert_eq!(report.estimator, "ic-fit-cold");
        for (k, w) in report.windows.iter().enumerate() {
            let batch = fit_stable_fp(&series.slice_bins(6 * k, 6).unwrap(), FitOptions::default())
                .unwrap();
            assert_eq!(w.fitted_f, batch.params.f, "window {k}");
            assert_eq!(w.fit_objective, batch.final_objective());
            assert!(!w.warm);
        }
    }

    #[test]
    fn replay_estimation_runs_the_pipeline_per_window() {
        let om = ring5();
        let mut stream = SyntheticStream::new(cfg(23)).unwrap();
        let report =
            replay_estimation(&mut stream, EstimationPipeline::new(om.clone()), &opts()).unwrap();
        assert_eq!(report.estimator, "streaming-tomogravity");
        assert_eq!(report.len(), 5);
        // Once the rolling prior exists, the IC windows beat gravity.
        let later = &report.windows[1..];
        let rolling: f64 = later.iter().map(|w| w.error_candidate).sum();
        let gravity: f64 = later.iter().map(|w| w.error_gravity).sum();
        assert!(rolling < gravity, "rolling {rolling} vs gravity {gravity}");
        // Node-count mismatch is rejected up front.
        let mut other = SyntheticStream::new(cfg(23).with_nodes(4)).unwrap();
        assert!(replay_estimation(&mut other, EstimationPipeline::new(om), &opts()).is_err());
    }

    #[test]
    fn max_windows_and_empty_stream_handling() {
        let mut stream = SyntheticStream::new(cfg(24)).unwrap();
        let report = replay_fit(&mut stream, &opts().with_max_windows(2)).unwrap();
        assert_eq!(report.len(), 2);
        // A stream shorter than one window is an error, not a silent
        // empty report.
        let mut short = SyntheticStream::new(cfg(25).with_bins(3)).unwrap();
        assert!(replay_fit(&mut short, &opts()).is_err());
    }

    #[test]
    fn sliding_replay_overlaps_windows() {
        let mut stream = SyntheticStream::new(cfg(26)).unwrap();
        let report = replay_fit(&mut stream, &opts().with_stride(3)).unwrap();
        assert_eq!(report.windows[0].start_bin, 0);
        assert_eq!(report.windows[1].start_bin, 3);
        assert_eq!(report.len(), 9); // starts 0, 3, ..., 24
    }
}
