//! # tm-ic — independent-connection traffic-matrix toolkit (facade)
//!
//! Reproduction of *"An Independent-Connection Model for Traffic Matrices"*
//! (Erramilli, Crovella, Taft — IMC 2006). This facade crate re-exports the
//! workspace's public API so applications can depend on a single crate:
//!
//! * [`linalg`] — dense linear algebra substrate,
//! * [`stats`] — distributions, MLE fits, diurnal activity models,
//! * [`topology`] — PoP graphs, routing matrices, link counts,
//! * [`flowsim`] — connection-level traffic and packet-trace simulation,
//! * [`datasets`] — synthetic stand-ins for the paper's D1/D2/D3 datasets,
//! * [`core`] — the IC model family behind the [`core::IcModel`]/
//!   [`core::Fit`] traits, gravity model, and the Section 5.1 fitting
//!   program (the paper's contribution),
//! * [`engine`] — the deterministic sharded execution engine
//!   ([`engine::Engine`]) every parallel layer schedules on: 1 worker and
//!   N workers are bit-identical by construction,
//! * [`obs`] — the hand-rolled observability layer: atomic metrics
//!   registry, span timers, structured event ring buffer, and the
//!   Prometheus/JSON renderings the serving layer exposes over the wire,
//! * [`estimation`] — traffic-matrix estimation with IC and gravity priors,
//! * [`stream`] — online/streaming estimation: windowed ingestion,
//!   warm-started incremental fits, parameter forecasting, and drift
//!   detection ([`stream::OnlineEstimator`] and friends),
//! * [`serve`] — the multi-tenant streaming estimation service
//!   ([`serve::Service`] core, [`serve::Server`]/[`serve::Client`] TCP
//!   front-end) with warm-state snapshots and deterministic
//!   record/replay journals,
//! * [`experiment`] — declarative [`experiment::Scenario`]s, the parallel
//!   [`experiment::Runner`], and structured reports.
//!
//! Most applications want `use tm_ic::prelude::*;` — it pulls in the
//! handful of types the examples use. [`TmIcError`] unifies every
//! layer's error type behind one `?`-friendly enum.
//!
//! See `examples/quickstart.rs` for a 60-second tour.

pub use ic_core as core;
pub use ic_datasets as datasets;
pub use ic_engine as engine;
pub use ic_estimation as estimation;
pub use ic_experiment as experiment;
pub use ic_flowsim as flowsim;
pub use ic_linalg as linalg;
pub use ic_obs as obs;
pub use ic_serve as serve;
pub use ic_stats as stats;
pub use ic_stream as stream;
pub use ic_topology as topology;

/// The one-stop error type of the facade: every workspace layer's error
/// converts into it, so application code can `?` across layers without
/// hand-mapping variants.
#[derive(Debug)]
pub enum TmIcError {
    /// Linear-algebra substrate failure.
    Linalg(ic_linalg::LinalgError),
    /// Statistics / distribution failure.
    Stats(ic_stats::StatsError),
    /// Topology / routing failure.
    Topology(ic_topology::TopologyError),
    /// Connection-level simulation failure.
    FlowSim(ic_flowsim::FlowSimError),
    /// Dataset build / I/O failure.
    Dataset(ic_datasets::DatasetError),
    /// IC-model / fitting failure.
    Core(ic_core::IcError),
    /// Estimation-pipeline failure.
    Estimation(ic_estimation::EstimationError),
    /// Streaming-estimation failure.
    Stream(ic_stream::StreamError),
    /// Serving-layer failure (tenant registry, snapshots, wire protocol).
    Serve(ic_serve::ServeError),
    /// Scenario / runner failure.
    Experiment(ic_experiment::ExperimentError),
}

impl std::fmt::Display for TmIcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TmIcError::Linalg(e) => write!(f, "linalg: {e}"),
            TmIcError::Stats(e) => write!(f, "stats: {e}"),
            TmIcError::Topology(e) => write!(f, "topology: {e}"),
            TmIcError::FlowSim(e) => write!(f, "flowsim: {e}"),
            TmIcError::Dataset(e) => write!(f, "dataset: {e}"),
            TmIcError::Core(e) => write!(f, "core: {e}"),
            TmIcError::Estimation(e) => write!(f, "estimation: {e}"),
            TmIcError::Stream(e) => write!(f, "stream: {e}"),
            TmIcError::Serve(e) => write!(f, "serve: {e}"),
            TmIcError::Experiment(e) => write!(f, "experiment: {e}"),
        }
    }
}

impl std::error::Error for TmIcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TmIcError::Linalg(e) => Some(e),
            TmIcError::Stats(e) => Some(e),
            TmIcError::Topology(e) => Some(e),
            TmIcError::FlowSim(e) => Some(e),
            TmIcError::Dataset(e) => Some(e),
            TmIcError::Core(e) => Some(e),
            TmIcError::Estimation(e) => Some(e),
            TmIcError::Stream(e) => Some(e),
            TmIcError::Serve(e) => Some(e),
            TmIcError::Experiment(e) => Some(e),
        }
    }
}

macro_rules! from_layer {
    ($variant:ident, $err:ty) => {
        impl From<$err> for TmIcError {
            fn from(e: $err) -> Self {
                TmIcError::$variant(e)
            }
        }
    };
}

from_layer!(Linalg, ic_linalg::LinalgError);
from_layer!(Stats, ic_stats::StatsError);
from_layer!(Topology, ic_topology::TopologyError);
from_layer!(FlowSim, ic_flowsim::FlowSimError);
from_layer!(Dataset, ic_datasets::DatasetError);
from_layer!(Core, ic_core::IcError);
from_layer!(Estimation, ic_estimation::EstimationError);
from_layer!(Stream, ic_stream::StreamError);
from_layer!(Serve, ic_serve::ServeError);
from_layer!(Experiment, ic_experiment::ExperimentError);

/// Convenience result alias over [`TmIcError`].
pub type Result<T> = std::result::Result<T, TmIcError>;

/// The toolkit's working set in one import: `use tm_ic::prelude::*;`.
///
/// Covers the model family ([`IcModel`](prelude::IcModel) /
/// [`Fit`](prelude::Fit) and the three parameterizations), synthesis,
/// the estimation pipeline with its priors, and the scenario/runner
/// experiment API.
pub mod prelude {
    pub use crate::{Result, TmIcError};
    pub use ic_core::{
        fit_stable_f, fit_stable_fp, fit_time_varying, generate_synthetic, gravity_predict,
        improvement_percent, mean_rel_l2, rel_l2_series, simplified_ic, Fit, FitOptions, FitReport,
        IcModel, Objective, StableFParams, StableFpParams, SynthConfig, TimeVaryingParams,
        TmSeries, WarmStart,
    };
    pub use ic_datasets::{build_d1, build_d2, Dataset, GeantConfig, TotemConfig};
    pub use ic_engine::{default_threads, Engine, Shard, ShardPlan, WorkspacePool};
    pub use ic_estimation::{
        compare_priors, compare_priors_with, EstimationConfig, EstimationPipeline, GravityPrior,
        IpfOptions, MeasuredIcPrior, ObservationModel, Observations, StableFPrior, StableFpPrior,
        TmPrior, TomogravityOptions,
    };
    pub use ic_experiment::{
        PriorStrategy, Report, Runner, Scenario, ScenarioReport, Source, Task, TopologySpec,
    };
    pub use ic_linalg::{Matrix, SolveStats, SolverPolicy};
    pub use ic_obs::{MetricsRegistry, Span};
    pub use ic_serve::{
        Client, Server, Service, StatsFormat, TenantEvent, TenantSnapshot, TenantSpec,
    };
    pub use ic_stream::{
        replay_estimation, replay_estimation_with, replay_fit, replay_fit_with, DriftDetector,
        DriftOptions, ForecastOptions, LinkLoadStream, OnlineEstimator, OnlineGravity,
        ParamForecaster, ReplayOptions, ReplayReport, ReplayStream, StreamingTomogravity,
        SyntheticStream, WarmStartIcFit, Window, Windower,
    };
    pub use ic_topology::{geant22, totem23, RoutingScheme, Topology};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tm_ic_error_wraps_every_layer() {
        let errs: Vec<TmIcError> = vec![
            ic_linalg::LinalgError::NotPositiveDefinite.into(),
            ic_stats::StatsError::InsufficientData("x").into(),
            ic_topology::TopologyError::Empty.into(),
            ic_core::IcError::BadData("y").into(),
            ic_estimation::EstimationError::BadData("z").into(),
            ic_experiment::ExperimentError::BadScenario("w".into()).into(),
            ic_stream::StreamError::BadConfig("s").into(),
            ic_serve::ServeError::BadRequest("q".into()).into(),
            ic_datasets::DatasetError::Format("v".into()).into(),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
            assert!(std::error::Error::source(&e).is_some());
        }
    }

    #[test]
    fn question_mark_crosses_layers() {
        fn mixed() -> Result<f64> {
            let cfg = ic_core::SynthConfig::geant_like(3)
                .with_nodes(4)
                .with_bins(6);
            let out = ic_core::generate_synthetic(&cfg)?;
            let grav = ic_core::gravity_predict(&out.series)?;
            Ok(ic_core::mean_rel_l2(&out.series, &grav)?)
        }
        assert!(mixed().unwrap() > 0.0);
    }
}
