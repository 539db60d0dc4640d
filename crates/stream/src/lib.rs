//! # ic-stream — online/streaming estimation
//!
//! The batch pipeline turned online. The paper's operational claim is
//! temporal stability: the activity fractions and the preference vector
//! barely move day-to-day and week-to-week, so *yesterday's IC fit is an
//! excellent prior for today's estimate*. This crate exploits that claim
//! continuously instead of in weekly batches, in the network-wide
//! modeling-and-prediction framing of Stoev/Michailidis/Vaughan:
//!
//! * [`source`] — [`LinkLoadStream`] ingestion: [`ReplayStream`] replays
//!   recorded series/datasets bin by bin; [`SyntheticStream`] generates
//!   the Section 5.5 diurnal process lazily (bit-identical to the batch
//!   generator, and optionally unbounded);
//! * [`window`] — [`Windower`] groups bins into tumbling or sliding
//!   [`Window`]s;
//! * [`estimator`] — the [`OnlineEstimator`] trait with three
//!   implementations: [`OnlineGravity`] (the stateless gravity baseline),
//!   [`WarmStartIcFit`] (per-window stable-fP refits warm-started from
//!   the previous optimum), and [`StreamingTomogravity`] (the Section 6
//!   pipeline with a rolling IC prior);
//! * [`forecast`] — [`ParamForecaster`], EWMA + seasonal-naive
//!   prediction of the next window's `(f, {P_i})`;
//! * [`drift`] — [`DriftDetector`], CUSUM/jump/decorrelation change
//!   detection against the paper's stability envelope;
//! * [`replay`] — the one window step: [`WindowTracker`] owns the
//!   windower, forecaster and drift detector and assembles every
//!   [`WindowReport`], and [`gravity_baseline`] scores the gravity-prior
//!   estimate of a window on the caller's runner. [`replay_fit`] /
//!   [`replay_estimation`] drive them over a stream, and `ic-serve` drives
//!   them per tenant, so served and offline reports come from one step.
//!
//! ```
//! use ic_stream::{replay_fit, ReplayOptions, SyntheticStream};
//! use ic_core::SynthConfig;
//!
//! let mut stream =
//!     SyntheticStream::new(SynthConfig::geant_like(7).with_nodes(5).with_bins(24)).unwrap();
//! let report = replay_fit(
//!     &mut stream,
//!     &ReplayOptions::default().with_window_bins(8),
//! )
//! .unwrap();
//! assert_eq!(report.len(), 3);
//! assert!(report.mean_improvement() > 0.0); // IC beats gravity per window
//! assert!(report.windows[1].warm); // window 1 reused window 0's optimum
//! ```
//!
//! Everything is deterministic — a replay of the same stream reproduces
//! the same report bit-for-bit, which is what lets streaming scenarios
//! run under the parallel experiment runner with its 1-vs-N-thread
//! guarantee.

pub mod drift;
pub mod estimator;
pub mod forecast;
pub mod metrics;
pub mod replay;
pub mod source;
pub mod window;

pub use drift::{DriftDetector, DriftDetectorState, DriftEvent, DriftKind, DriftOptions};
pub use estimator::{
    OnlineEstimator, OnlineGravity, StreamingTomogravity, StreamingTomogravityState,
    WarmStartIcFit, WindowEstimate,
};
pub use forecast::{ForecastOptions, ParamForecast, ParamForecaster, ParamForecasterState};
pub use metrics::StreamMetrics;
pub use replay::{
    gravity_baseline, replay_estimation, replay_estimation_with, replay_fit, replay_fit_with,
    ReplayOptions, ReplayReport, WindowReport, WindowTracker,
};
pub use source::{LinkLoadStream, ReplayStream, SyntheticStream};
pub use window::{Window, Windower, WindowerState};

// Re-exported so report consumers (e.g. `ic-experiment`) can name the
// solver-health counters [`WindowReport`] carries without depending on
// `ic-linalg` directly.
pub use ic_linalg::SolveStats;

/// Errors produced by the streaming subsystem.
#[derive(Debug)]
pub enum StreamError {
    /// A stream/window/replay configuration value is out of its domain.
    BadConfig(&'static str),
    /// Input dimensions are inconsistent.
    ShapeMismatch {
        /// What was being computed.
        context: &'static str,
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// An underlying model/fit call failed.
    Core(ic_core::IcError),
    /// An underlying estimation-pipeline call failed.
    Estimation(ic_estimation::EstimationError),
    /// An underlying statistics routine failed.
    Stats(ic_stats::StatsError),
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::BadConfig(msg) => write!(f, "bad stream config: {msg}"),
            StreamError::ShapeMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "shape mismatch in {context}: expected {expected}, got {actual}"
            ),
            StreamError::Core(e) => write!(f, "core model failure: {e}"),
            StreamError::Estimation(e) => write!(f, "estimation failure: {e}"),
            StreamError::Stats(e) => write!(f, "statistics failure: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Core(e) => Some(e),
            StreamError::Estimation(e) => Some(e),
            StreamError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ic_core::IcError> for StreamError {
    fn from(e: ic_core::IcError) -> Self {
        StreamError::Core(e)
    }
}

impl From<ic_estimation::EstimationError> for StreamError {
    fn from(e: ic_estimation::EstimationError) -> Self {
        StreamError::Estimation(e)
    }
}

impl From<ic_stats::StatsError> for StreamError {
    fn from(e: ic_stats::StatsError) -> Self {
        StreamError::Stats(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, StreamError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        let e = StreamError::BadConfig("x");
        assert!(e.to_string().contains("x"));
        assert!(std::error::Error::source(&e).is_none());
        let e = StreamError::ShapeMismatch {
            context: "c",
            expected: 4,
            actual: 9,
        };
        assert!(e.to_string().contains("expected 4"));
        let e: StreamError = ic_core::IcError::BadData("y").into();
        assert!(std::error::Error::source(&e).is_some());
        let e: StreamError = ic_estimation::EstimationError::BadData("z").into();
        assert!(std::error::Error::source(&e).is_some());
        let e: StreamError = ic_stats::StatsError::InsufficientData("w").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
