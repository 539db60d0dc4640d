//! Declarative experiment scenarios.
//!
//! A [`Scenario`] captures everything one experiment needs — where the
//! traffic comes from ([`Source`]), which network observes it
//! ([`TopologySpec`] + [`ic_topology::RoutingScheme`]), how the prior is
//! constructed ([`PriorStrategy`]), the pipeline options, and what is
//! being measured ([`Task`]) — as plain data. Execution
//! ([`Scenario::run`]) is a pure function of that data, which is what
//! makes the parallel [`crate::Runner`] deterministic.

use crate::report::ScenarioReport;
use crate::{ExperimentError, Result};
use ic_core::{
    fit_stable_fp, generate_synthetic, gravity_predict, improvement_percent, rel_l2_series,
    FitReport, StableFpParams, SynthConfig, TmSeries,
};
use ic_datasets::{build_d1, build_d2, GeantConfig, TotemConfig};
use ic_engine::Engine;
use ic_estimation::{
    compare_priors_with, EstimationConfig, EstimationPipeline, GravityPrior, MeasuredIcPrior,
    ObservationModel, StableFPrior, StableFpPrior, TmPrior,
};
use ic_stream::{
    replay_estimation_with, replay_fit_with, ReplayOptions, ReplayReport, ReplayStream, SolveStats,
};
use ic_topology::{
    geant22, hierarchical, totem23, waxman, HierarchicalConfig, RoutingScheme, Topology,
    WaxmanConfig,
};
use std::sync::Arc;

/// Which network topology observes the traffic.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// The paper's 22-PoP Géant network.
    Geant22,
    /// The paper's 23-PoP Totem network (`de` split into `de1`/`de2`).
    Totem23,
    /// A seeded Waxman-style random topology (scale sweeps; see
    /// [`ic_topology::generators`]).
    Waxman(WaxmanConfig),
    /// A seeded hierarchical backbone/PoP topology (scale sweeps).
    Hierarchical(HierarchicalConfig),
    /// Any custom topology.
    Custom(Topology),
}

impl TopologySpec {
    /// Number of access points of the described topology.
    pub fn nodes(&self) -> usize {
        match self {
            TopologySpec::Geant22 => 22,
            TopologySpec::Totem23 => 23,
            TopologySpec::Waxman(cfg) => cfg.nodes,
            TopologySpec::Hierarchical(cfg) => cfg.node_count(),
            TopologySpec::Custom(t) => t.node_count(),
        }
    }

    fn build(&self) -> Result<Topology> {
        Ok(match self {
            TopologySpec::Geant22 => geant22(),
            TopologySpec::Totem23 => totem23(),
            TopologySpec::Waxman(cfg) => waxman(cfg)?,
            TopologySpec::Hierarchical(cfg) => hierarchical(cfg)?,
            TopologySpec::Custom(t) => t.clone(),
        })
    }
}

/// Where the scenario's traffic-matrix weeks come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// Section 5.5 synthetic generation (one week).
    Synth(SynthConfig),
    /// The synthetic Géant D1 dataset (measured weeks).
    GeantD1(GeantConfig),
    /// The synthetic Totem D2 dataset (measured weeks).
    TotemD2(TotemConfig),
    /// A series supplied directly (one week) — externally collected TMs,
    /// or test fixtures.
    Series(TmSeries),
}

impl Source {
    /// Number of weeks the source will produce (known without building).
    pub fn weeks(&self) -> usize {
        match self {
            Source::Synth(_) | Source::Series(_) => 1,
            Source::GeantD1(cfg) => cfg.weeks,
            Source::TotemD2(cfg) => cfg.weeks,
        }
    }

    /// Number of access points the source will produce.
    pub fn nodes(&self) -> usize {
        match self {
            Source::Synth(cfg) => cfg.nodes,
            Source::GeantD1(_) => 22,
            Source::TotemD2(_) => 23,
            Source::Series(s) => s.nodes(),
        }
    }

    /// Overrides the source's RNG seed (no-op for [`Source::Series`]).
    pub fn reseed(&mut self, seed: u64) {
        match self {
            Source::Synth(cfg) => cfg.seed = seed,
            Source::GeantD1(cfg) => cfg.seed = seed,
            Source::TotemD2(cfg) => cfg.seed = seed,
            Source::Series(_) => {}
        }
    }

    fn build_weeks(&self) -> Result<Vec<TmSeries>> {
        match self {
            Source::Synth(cfg) => Ok(vec![generate_synthetic(cfg)?.series]),
            Source::GeantD1(cfg) => Ok(build_d1(cfg)?.measured_weeks()?),
            Source::TotemD2(cfg) => Ok(build_d2(cfg)?.measured_weeks()?),
            Source::Series(s) => Ok(vec![s.clone()]),
        }
    }
}

/// How the estimation prior is constructed (paper Sections 6.1–6.3).
#[derive(Clone)]
pub enum PriorStrategy {
    /// The gravity baseline.
    Gravity,
    /// Section 6.1: fit all IC parameters on the target week itself (the
    /// paper's "all parameters measured" thought experiment).
    MeasuredIc,
    /// Section 6.2: fit `f` and `{P_i}` on a calibration week, estimate
    /// activities from marginals via Eq. 7–9.
    StableFpFromWeek {
        /// Index of the calibration week within the source's weeks.
        calibration_week: usize,
    },
    /// Section 6.3: carry only `f` from a calibration week; invert the
    /// marginals per bin via Eq. 11–12.
    StableFFromWeek {
        /// Index of the calibration week within the source's weeks.
        calibration_week: usize,
    },
    /// Any dynamically constructed prior (shared across runner threads).
    Custom(Arc<dyn TmPrior>),
}

impl core::fmt::Debug for PriorStrategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PriorStrategy::Gravity => write!(f, "Gravity"),
            PriorStrategy::MeasuredIc => write!(f, "MeasuredIc"),
            PriorStrategy::StableFpFromWeek { calibration_week } => {
                write!(f, "StableFpFromWeek({calibration_week})")
            }
            PriorStrategy::StableFFromWeek { calibration_week } => {
                write!(f, "StableFFromWeek({calibration_week})")
            }
            PriorStrategy::Custom(p) => write!(f, "Custom({})", p.name()),
        }
    }
}

impl PriorStrategy {
    fn calibration_week(&self) -> Option<usize> {
        match self {
            PriorStrategy::StableFpFromWeek { calibration_week }
            | PriorStrategy::StableFFromWeek { calibration_week } => Some(*calibration_week),
            _ => None,
        }
    }
}

/// What the scenario measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Full Section 6 TM estimation: prior → tomogravity → IPF, compared
    /// against the gravity prior on the same observations (the Figure
    /// 11–13 quantity).
    Estimation,
    /// Section 5 direct-fit comparison: stable-fP fit vs the gravity model
    /// on the observed week itself (the Figure 3 quantity).
    FitImprovement,
    /// Gravity structural error alone on the source data (the
    /// model-parameter ablation quantity; no fit is run).
    GravityGap,
    /// Online replay of the target week through `ic-stream`: tumbling or
    /// sliding windows, warm-started incremental IC fits, parameter
    /// forecasting, and drift detection. With a topology configured the
    /// windows run through the streaming tomogravity/IPF pipeline with a
    /// rolling IC prior; without one they run the direct fit-vs-gravity
    /// comparison. Per-window results land in the report's error series
    /// (one entry per window instead of per bin).
    Streaming,
}

impl Task {
    /// Stable identifier used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Task::Estimation => "estimation",
            Task::FitImprovement => "fit-improvement",
            Task::GravityGap => "gravity-gap",
            Task::Streaming => "streaming",
        }
    }
}

/// A fully specified experiment, ready to [`run`](Scenario::run).
///
/// Build with [`Scenario::builder`]; the builder validates week indices
/// and topology/source shape agreement at `build()` time so a batch fails
/// fast rather than deep inside a worker thread.
#[derive(Debug, Clone)]
pub struct Scenario {
    name: String,
    source: Source,
    topology: Option<TopologySpec>,
    routing: RoutingScheme,
    prior: PriorStrategy,
    task: Task,
    target_week: usize,
    config: EstimationConfig,
    stream: ReplayOptions,
}

impl Scenario {
    /// Starts building a scenario with the given report name.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            source: None,
            topology: None,
            routing: RoutingScheme::Ecmp,
            prior: PriorStrategy::Gravity,
            task: None,
            target_week: 0,
            config: EstimationConfig::default(),
            stream: ReplayOptions::default(),
        }
    }

    /// The scenario's report name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scenario's task kind.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Overrides the source's RNG seed (used by the runner's batch
    /// seeding; no-op for [`Source::Series`] sources).
    pub fn reseed(&mut self, seed: u64) {
        self.source.reseed(seed);
    }

    /// Executes the scenario serially. Deterministic: equal scenarios
    /// produce bit-identical reports, on any thread. Identical to
    /// [`Scenario::run_with`] on a single-worker engine.
    pub fn run(&self) -> Result<ScenarioReport> {
        self.run_with(&Engine::serial())
    }

    /// Executes the scenario with its bin-parallel work (pipeline
    /// refinement, prior comparison, streaming windows) sharded across
    /// `engine`'s worker pool — the inner level of the
    /// [`Runner`](crate::Runner)'s two-level scheduling. Bit-identical to
    /// [`Scenario::run`] for every thread count and shard size.
    pub fn run_with(&self, engine: &Engine) -> Result<ScenarioReport> {
        let weeks = self.source.build_weeks()?;
        let target = weeks.get(self.target_week).ok_or_else(|| {
            ExperimentError::BadScenario(format!(
                "scenario '{}': target week {} out of range ({} weeks)",
                self.name,
                self.target_week,
                weeks.len()
            ))
        })?;
        match self.task {
            Task::Estimation => self.run_estimation(&weeks, target, engine),
            Task::FitImprovement => self.run_fit_improvement(target),
            Task::GravityGap => self.run_gravity_gap(target),
            Task::Streaming => self.run_streaming(target, engine),
        }
    }

    fn fit_week(&self, week: &TmSeries) -> Result<FitReport<StableFpParams>> {
        Ok(fit_stable_fp(week, self.config.fit.clone())?)
    }

    fn run_estimation(
        &self,
        weeks: &[TmSeries],
        target: &TmSeries,
        engine: &Engine,
    ) -> Result<ScenarioReport> {
        // Step 1: construct the prior per the measurement scenario.
        let mut fitted_f = None;
        let mut fit_objective = None;
        let mut record_fit = |fit: &FitReport<StableFpParams>| {
            fitted_f = Some(fit.params.f);
            fit_objective = Some(fit.final_objective());
        };
        let prior: Box<dyn TmPrior> = match &self.prior {
            PriorStrategy::Gravity => Box::new(GravityPrior),
            PriorStrategy::MeasuredIc => {
                let fit = self.fit_week(target)?;
                record_fit(&fit);
                Box::new(MeasuredIcPrior { params: fit.params })
            }
            PriorStrategy::StableFpFromWeek { calibration_week } => {
                let fit = self.fit_week(&weeks[*calibration_week])?;
                record_fit(&fit);
                Box::new(StableFpPrior {
                    f: fit.params.f,
                    preference: fit.params.preference,
                })
            }
            PriorStrategy::StableFFromWeek { calibration_week } => {
                let fit = self.fit_week(&weeks[*calibration_week])?;
                record_fit(&fit);
                Box::new(StableFPrior { f: fit.params.f })
            }
            PriorStrategy::Custom(p) => Box::new(SharedPrior(Arc::clone(p))),
        };

        // Steps 2–3: observe the target week, run both pipelines, compare.
        let topo = self
            .topology
            .as_ref()
            .expect("builder enforces a topology for estimation scenarios")
            .build()?;
        let om = ObservationModel::new(&topo, self.routing)?;
        let obs = om.observe(target)?;
        let pipeline = EstimationPipeline::new(om).config(self.config.clone());
        let cmp = compare_priors_with(&pipeline, prior.as_ref(), target, &obs, engine)?;

        Ok(ScenarioReport {
            name: self.name.clone(),
            task: self.task.name().to_string(),
            prior: Some(prior.name().to_string()),
            bins: target.bins(),
            improvement: cmp.improvement,
            mean_improvement: cmp.mean_improvement,
            errors_candidate: cmp.errors_candidate,
            errors_gravity: cmp.errors_gravity,
            fitted_f,
            fit_objective,
            drift_events: Vec::new(),
            solve_stats: cmp.solve_stats,
        })
    }

    fn run_fit_improvement(&self, target: &TmSeries) -> Result<ScenarioReport> {
        let fit = self.fit_week(target)?;
        let ic_pred = fit.predict(target.bin_seconds())?;
        let grav = gravity_predict(target)?;
        let errors_candidate = rel_l2_series(target, &ic_pred)?;
        let errors_gravity = rel_l2_series(target, &grav)?;
        let improvement: Vec<f64> = errors_gravity
            .iter()
            .zip(errors_candidate.iter())
            .map(|(&g, &c)| improvement_percent(g, c))
            .collect();
        let mean_improvement = improvement.iter().sum::<f64>() / improvement.len().max(1) as f64;
        Ok(ScenarioReport {
            name: self.name.clone(),
            task: self.task.name().to_string(),
            prior: None,
            bins: target.bins(),
            improvement,
            mean_improvement,
            errors_candidate,
            errors_gravity,
            fitted_f: Some(fit.params.f),
            fit_objective: Some(fit.final_objective()),
            drift_events: Vec::new(),
            solve_stats: SolveStats::default(),
        })
    }

    fn run_streaming(&self, target: &TmSeries, engine: &Engine) -> Result<ScenarioReport> {
        // The scenario-level fit options drive the per-window refits, the
        // same single source of truth the other tasks use.
        let options = self
            .stream
            .clone()
            .with_fit_options(self.config.fit.clone());
        let mut stream = ReplayStream::new(target.clone());
        let (replay, prior): (ReplayReport, Option<String>) = match &self.topology {
            Some(spec) => {
                let om = ObservationModel::new(&spec.build()?, self.routing)?;
                let pipeline = EstimationPipeline::new(om).config(self.config.clone());
                let replay = replay_estimation_with(&mut stream, pipeline, &options, engine)?;
                (replay, Some("ic-rolling-fit".to_string()))
            }
            None => (replay_fit_with(&mut stream, &options, engine)?, None),
        };
        let improvement: Vec<f64> = replay.windows.iter().map(|w| w.improvement).collect();
        let errors_candidate: Vec<f64> = replay.windows.iter().map(|w| w.error_candidate).collect();
        let errors_gravity: Vec<f64> = replay.windows.iter().map(|w| w.error_gravity).collect();
        // Surface every fired change-detection event instead of dropping
        // them inside the replay loop.
        let drift_events: Vec<_> = replay
            .windows
            .iter()
            .flat_map(|w| w.drift_events.iter().cloned())
            .collect();
        let last = replay.windows.last().expect("replay yields >= 1 window");
        Ok(ScenarioReport {
            name: self.name.clone(),
            task: self.task.name().to_string(),
            prior,
            bins: replay.total_bins(),
            improvement,
            mean_improvement: replay.mean_improvement(),
            errors_candidate,
            errors_gravity,
            fitted_f: Some(last.fitted_f),
            fit_objective: Some(last.fit_objective),
            drift_events,
            solve_stats: replay.total_solve_stats(),
        })
    }

    fn run_gravity_gap(&self, target: &TmSeries) -> Result<ScenarioReport> {
        let grav = gravity_predict(target)?;
        let errors_gravity = rel_l2_series(target, &grav)?;
        Ok(ScenarioReport {
            name: self.name.clone(),
            task: self.task.name().to_string(),
            prior: None,
            bins: target.bins(),
            improvement: Vec::new(),
            mean_improvement: 0.0,
            errors_candidate: Vec::new(),
            errors_gravity,
            fitted_f: None,
            fit_objective: None,
            drift_events: Vec::new(),
            solve_stats: SolveStats::default(),
        })
    }
}

/// Adapter so an `Arc<dyn TmPrior>` can travel as a `Box<dyn TmPrior>`
/// without cloning the underlying prior.
struct SharedPrior(Arc<dyn TmPrior>);

impl TmPrior for SharedPrior {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn prior_series(&self, obs: &ic_estimation::Observations) -> ic_estimation::Result<TmSeries> {
        self.0.prior_series(obs)
    }
}

/// Builder for [`Scenario`] — see [`Scenario::builder`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    source: Option<Source>,
    topology: Option<TopologySpec>,
    routing: RoutingScheme,
    prior: PriorStrategy,
    task: Option<Task>,
    target_week: usize,
    config: EstimationConfig,
    stream: ReplayOptions,
}

impl ScenarioBuilder {
    /// Sets the traffic source.
    pub fn source(mut self, source: Source) -> Self {
        self.source = Some(source);
        self
    }

    /// Shorthand for a Section 5.5 synthetic source.
    pub fn synth(self, config: SynthConfig) -> Self {
        self.source(Source::Synth(config))
    }

    /// Shorthand for the Géant D1 dataset source.
    pub fn dataset_d1(self, config: GeantConfig) -> Self {
        self.source(Source::GeantD1(config))
    }

    /// Shorthand for the Totem D2 dataset source.
    pub fn dataset_d2(self, config: TotemConfig) -> Self {
        self.source(Source::TotemD2(config))
    }

    /// Shorthand for a directly supplied series source.
    pub fn series(self, series: TmSeries) -> Self {
        self.source(Source::Series(series))
    }

    /// Sets the observing topology.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.topology = Some(spec);
        self
    }

    /// Shorthand for the 22-PoP Géant topology.
    pub fn geant22(self) -> Self {
        self.topology(TopologySpec::Geant22)
    }

    /// Shorthand for the 23-PoP Totem topology.
    pub fn totem23(self) -> Self {
        self.topology(TopologySpec::Totem23)
    }

    /// Shorthand for a seeded Waxman random topology of `nodes` nodes —
    /// the scale-sweep workhorse.
    pub fn waxman(self, nodes: usize, seed: u64) -> Self {
        self.topology(TopologySpec::Waxman(WaxmanConfig::new(nodes, seed)))
    }

    /// Shorthand for a seeded hierarchical backbone/PoP topology.
    pub fn hierarchical(self, backbones: usize, pops_per_backbone: usize, seed: u64) -> Self {
        self.topology(TopologySpec::Hierarchical(HierarchicalConfig::new(
            backbones,
            pops_per_backbone,
            seed,
        )))
    }

    /// Sets the routing scheme of the observation model (default ECMP).
    pub fn routing(mut self, scheme: RoutingScheme) -> Self {
        self.routing = scheme;
        self
    }

    /// Sets the prior strategy used by [`Task::Estimation`] scenarios
    /// (default gravity). Non-estimation tasks ignore the prior.
    pub fn prior(mut self, prior: PriorStrategy) -> Self {
        self.prior = prior;
        self
    }

    /// Sets the task kind explicitly (default [`Task::Estimation`]).
    pub fn task(mut self, task: Task) -> Self {
        self.task = Some(task);
        self
    }

    /// Shorthand for [`Task::FitImprovement`].
    pub fn fit_improvement(self) -> Self {
        self.task(Task::FitImprovement)
    }

    /// Shorthand for [`Task::GravityGap`].
    pub fn gravity_gap(self) -> Self {
        self.task(Task::GravityGap)
    }

    /// Shorthand for [`Task::Streaming`] with the given replay options
    /// (window size/stride, warm start, forecast and drift settings). The
    /// per-window fit uses the scenario's configured fit options
    /// ([`EstimationConfig::with_fit`] via [`config`]; the replay
    /// options' own `fit` field is overridden).
    ///
    /// [`config`]: ScenarioBuilder::config
    pub fn streaming(mut self, options: ReplayOptions) -> Self {
        self.stream = options;
        self.task(Task::Streaming)
    }

    /// Selects which week of the source is the estimation/fit target
    /// (default 0).
    pub fn target_week(mut self, week: usize) -> Self {
        self.target_week = week;
        self
    }

    /// Replaces the scenario's whole estimation configuration — fit,
    /// tomogravity, IPF, and solver policy — in one call. The single
    /// configuration entry point.
    pub fn config(mut self, config: EstimationConfig) -> Self {
        self.config = config;
        self
    }

    /// Validates the description and produces the immutable [`Scenario`].
    pub fn build(self) -> Result<Scenario> {
        let bad = |msg: String| Err(ExperimentError::BadScenario(msg));
        let Some(source) = self.source else {
            return bad(format!("scenario '{}': no source configured", self.name));
        };
        let task = self.task.unwrap_or(Task::Estimation);
        if self.target_week >= source.weeks() {
            return bad(format!(
                "scenario '{}': target week {} out of range ({} weeks)",
                self.name,
                self.target_week,
                source.weeks()
            ));
        }
        if let Some(cal) = self.prior.calibration_week() {
            if cal >= source.weeks() {
                return bad(format!(
                    "scenario '{}': calibration week {cal} out of range ({} weeks)",
                    self.name,
                    source.weeks()
                ));
            }
        }
        if task == Task::Estimation {
            let Some(topology) = &self.topology else {
                return bad(format!(
                    "scenario '{}': estimation requires a topology",
                    self.name
                ));
            };
            let n = source.nodes();
            if n != topology.nodes() {
                return bad(format!(
                    "scenario '{}': source has {n} nodes but topology has {}",
                    self.name,
                    topology.nodes()
                ));
            }
        }
        if task == Task::Streaming {
            if self.stream.window_bins == 0 {
                return bad(format!(
                    "scenario '{}': streaming window must be positive",
                    self.name
                ));
            }
            // A topology is optional for streaming (it selects the
            // pipeline flavor), but when present it must match the source.
            if let Some(topology) = &self.topology {
                let n = source.nodes();
                if n != topology.nodes() {
                    return bad(format!(
                        "scenario '{}': source has {n} nodes but topology has {}",
                        self.name,
                        topology.nodes()
                    ));
                }
            }
        }
        Ok(Scenario {
            name: self.name,
            source,
            topology: self.topology,
            routing: self.routing,
            prior: self.prior,
            task,
            target_week: self.target_week,
            config: self.config,
            stream: self.stream,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::FitOptions;
    use ic_estimation::compare_priors;

    fn tiny_synth() -> SynthConfig {
        SynthConfig::geant_like(3).with_nodes(22).with_bins(8)
    }

    #[test]
    fn builder_rejects_missing_source() {
        let err = Scenario::builder("s").geant22().build().unwrap_err();
        assert!(err.to_string().contains("no source"), "{err}");
    }

    #[test]
    fn builder_rejects_missing_topology_for_estimation() {
        let err = Scenario::builder("s")
            .synth(tiny_synth())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("requires a topology"), "{err}");
    }

    #[test]
    fn builder_rejects_out_of_range_weeks() {
        let err = Scenario::builder("s")
            .synth(tiny_synth())
            .geant22()
            .target_week(1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("target week"), "{err}");
        let err = Scenario::builder("s")
            .synth(tiny_synth())
            .geant22()
            .prior(PriorStrategy::StableFpFromWeek {
                calibration_week: 3,
            })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("calibration week"), "{err}");
    }

    #[test]
    fn builder_rejects_node_mismatch() {
        let err = Scenario::builder("s")
            .synth(tiny_synth().with_nodes(5))
            .geant22()
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("nodes"), "{err}");
    }

    #[test]
    fn fit_improvement_needs_no_topology() {
        let sc = Scenario::builder("fit")
            .synth(tiny_synth().with_nodes(4))
            .fit_improvement()
            .build()
            .unwrap();
        let report = sc.run().unwrap();
        assert_eq!(report.task, "fit-improvement");
        assert_eq!(report.bins, 8);
        assert_eq!(report.improvement.len(), 8);
        assert!(report.fitted_f.is_some());
        // Synthetic data is exactly IC, so the fit dominates gravity.
        assert!(report.mean_improvement > 0.0);
        // The fit solves its subproblems in closed form: no counted solve.
        assert_eq!(report.solve_stats, Default::default());
    }

    #[test]
    fn gravity_gap_reports_gravity_errors_only() {
        let sc = Scenario::builder("gap")
            .synth(tiny_synth().with_nodes(4).with_noise_cv(0.0))
            .gravity_gap()
            .build()
            .unwrap();
        let report = sc.run().unwrap();
        assert_eq!(report.task, "gravity-gap");
        assert!(report.improvement.is_empty());
        assert!(report.errors_candidate.is_empty());
        assert_eq!(report.errors_gravity.len(), 8);
        assert!(report.mean_gravity_error() > 0.0);
        // Gravity-gap never solves normal equations.
        assert_eq!(report.solve_stats, Default::default());
    }

    #[test]
    fn estimation_scenario_matches_hand_wired_pipeline() {
        // The scenario must reproduce the manual wiring bit-for-bit.
        let cfg = tiny_synth();
        let sc = Scenario::builder("est")
            .synth(cfg.clone())
            .geant22()
            .prior(PriorStrategy::MeasuredIc)
            .build()
            .unwrap();
        let report = sc.run().unwrap();

        let truth = generate_synthetic(&cfg).unwrap().series;
        let fit = fit_stable_fp(&truth, FitOptions::default()).unwrap();
        let om = ObservationModel::new(&geant22(), RoutingScheme::Ecmp).unwrap();
        let obs = om.observe(&truth).unwrap();
        let pipeline = EstimationPipeline::new(om);
        let cmp = compare_priors(
            &pipeline,
            &MeasuredIcPrior {
                params: fit.params.clone(),
            },
            &truth,
            &obs,
        )
        .unwrap();
        assert_eq!(report.improvement, cmp.improvement);
        assert_eq!(report.errors_candidate, cmp.errors_candidate);
        assert_eq!(report.errors_gravity, cmp.errors_gravity);
        assert_eq!(report.fitted_f, Some(fit.params.f));
        assert_eq!(report.prior.as_deref(), Some("ic-measured"));
    }

    #[test]
    fn solver_builder_applies_to_tomogravity() {
        use ic_linalg::SolverPolicy;

        // `with_solver` in the config reaches the tomogravity refinement,
        // the one stage that solves a normal-equation system.
        let sc = Scenario::builder("pcg")
            .synth(tiny_synth())
            .geant22()
            .config(EstimationConfig::new().with_solver(SolverPolicy::Pcg))
            .build()
            .unwrap();
        assert_eq!(sc.config.tomogravity.solver, SolverPolicy::Pcg);
        let pcg = sc.run().unwrap();
        // The counters are the refine's alone.
        assert!(pcg.solve_stats.pcg_solves > 0);
        assert_eq!(pcg.solve_stats.dense_solves, 0);
        let dense = Scenario::builder("dense")
            .synth(tiny_synth())
            .geant22()
            .config(EstimationConfig::new().with_solver(SolverPolicy::Dense))
            .build()
            .unwrap()
            .run()
            .unwrap();
        // Same scenario, both solvers: estimates agree to estimation
        // tolerance, well inside the improvement metric's resolution.
        for (a, b) in pcg.improvement.iter().zip(dense.improvement.iter()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn custom_prior_strategy_runs() {
        let sc = Scenario::builder("custom")
            .synth(tiny_synth())
            .geant22()
            .prior(PriorStrategy::Custom(Arc::new(StableFPrior { f: 0.25 })))
            .build()
            .unwrap();
        let report = sc.run().unwrap();
        assert_eq!(report.prior.as_deref(), Some("ic-stable-f"));
        assert_eq!(report.improvement.len(), 8);
        assert!(format!("{:?}", PriorStrategy::Custom(Arc::new(GravityPrior))).contains("gravity"));
    }

    #[test]
    fn streaming_fit_scenario_reports_per_window() {
        let sc = Scenario::builder("stream-fit")
            .synth(tiny_synth().with_nodes(4).with_bins(12))
            .streaming(ReplayOptions::default().with_window_bins(4))
            .build()
            .unwrap();
        assert_eq!(sc.task(), Task::Streaming);
        let report = sc.run().unwrap();
        assert_eq!(report.task, "streaming");
        assert_eq!(report.prior, None);
        assert_eq!(report.bins, 12);
        assert_eq!(report.improvement.len(), 3); // one entry per window
        assert!(report.fitted_f.is_some());
        // Synthetic data is exactly IC: every window's fit beats gravity.
        assert!(report.mean_improvement > 0.0);
    }

    #[test]
    fn streaming_estimation_scenario_uses_rolling_prior() {
        let sc = Scenario::builder("stream-est")
            .synth(tiny_synth())
            .geant22()
            .streaming(ReplayOptions::default().with_window_bins(4))
            .build()
            .unwrap();
        let report = sc.run().unwrap();
        assert_eq!(report.prior.as_deref(), Some("ic-rolling-fit"));
        assert_eq!(report.improvement.len(), 2);
        assert_eq!(report.errors_candidate.len(), 2);
        // The per-window tomogravity refits land in the solver counters.
        assert!(report.solve_stats.dense_solves > 0);
        // Window 1 estimates from observations with window 0's fit as
        // its prior; on IC data that beats the gravity prior.
        assert!(report.improvement[1] > 0.0, "{:?}", report.improvement);
    }

    #[test]
    fn streaming_builder_validation() {
        let err = Scenario::builder("s")
            .synth(tiny_synth().with_nodes(5))
            .geant22()
            .streaming(ReplayOptions::default().with_window_bins(4))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("nodes"), "{err}");
        let err = Scenario::builder("s")
            .synth(tiny_synth())
            .streaming(ReplayOptions::default().with_window_bins(0))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("window"), "{err}");
        // A stream shorter than one window fails at run time.
        let sc = Scenario::builder("s")
            .synth(tiny_synth().with_nodes(4))
            .streaming(ReplayOptions::default().with_window_bins(99))
            .build()
            .unwrap();
        assert!(sc.run().is_err());
    }

    #[test]
    fn scaled_topology_scenarios_run() {
        // Waxman topology at a size beyond any hand-built network.
        let sc = Scenario::builder("wax")
            .synth(SynthConfig::geant_like(5).with_nodes(30).with_bins(2))
            .waxman(30, 11)
            .build()
            .unwrap();
        let report = sc.run().unwrap();
        assert_eq!(report.bins, 2);
        assert_eq!(sc.run().unwrap(), report, "scenario must be deterministic");
        // Hierarchical backbone/PoP topology.
        let sc = Scenario::builder("hier")
            .synth(SynthConfig::geant_like(6).with_nodes(12).with_bins(2))
            .hierarchical(3, 3, 9)
            .build()
            .unwrap();
        assert!(sc.run().is_ok());
        // Node-count mismatch is still caught at build time.
        let err = Scenario::builder("bad")
            .synth(tiny_synth())
            .waxman(9, 1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("nodes"), "{err}");
    }

    #[test]
    fn reseed_changes_synthetic_outcome_deterministically() {
        let mut a = Scenario::builder("a")
            .synth(tiny_synth().with_nodes(4))
            .fit_improvement()
            .build()
            .unwrap();
        let mut b = a.clone();
        a.reseed(100);
        b.reseed(100);
        assert_eq!(a.run().unwrap(), b.run().unwrap());
        let mut c = Scenario::builder("a")
            .synth(tiny_synth().with_nodes(4))
            .fit_improvement()
            .build()
            .unwrap();
        c.reseed(101);
        assert_ne!(
            a.run().unwrap().errors_gravity,
            c.run().unwrap().errors_gravity
        );
    }
}
