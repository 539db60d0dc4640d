//! # ic-core — the independent-connection traffic-matrix model
//!
//! This crate is the reproduction of the paper's contribution proper:
//! *"An Independent-Connection Model for Traffic Matrices"* (Erramilli,
//! Crovella, Taft — IMC 2006).
//!
//! The gravity model assumes a packet's network ingress and egress are
//! independent. The paper observes that most Internet traffic consists of
//! **connections** — two-way packet exchanges — so the bytes flowing `i → j`
//! are not independent of the bytes flowing `j → i`. The
//! independent-connection (IC) model instead assumes the **initiator** and
//! **responder** access points of a connection are independent, and writes
//! each OD flow as forward traffic plus reverse traffic:
//!
//! ```text
//! X_ij(t) = f · A_i(t) · P_j / ΣP  +  (1 − f) · A_j(t) · P_i / ΣP
//! ```
//!
//! with `f` the forward-traffic fraction (application-mix dependent), `A_i`
//! the *activity* of node `i` (bytes due to connections initiated there) and
//! `P_i` the *preference* of node `i` (probability a connection's responder
//! is there).
//!
//! Module map:
//!
//! * [`tm`] — the [`tm::TmSeries`] timeseries-of-traffic-matrices
//!   container used everywhere,
//! * [`model`] — evaluators for the general (Eq. 1), simplified (Eq. 2),
//!   time-varying (Eq. 3), stable-f (Eq. 4) and stable-fP (Eq. 5) variants,
//! * [`ic_model`] — the [`IcModel`]/[`Fit`] traits unifying the family
//!   behind one evaluate/fit surface,
//! * [`gravity`] — the gravity model baseline,
//! * [`error`] — the relative ℓ² temporal error metric (Eq. 6),
//! * [`fit`] — the Section 5.1 nonlinear program (block-coordinate descent
//!   with non-negativity and simplex constraints),
//! * [`stability`] — week-over-week parameter-stability analytics
//!   (Figures 5, 6, 8, 9),
//! * [`synth`] — Section 5.5 synthetic TM generation,
//! * [`example`] — the Figure 2 worked example showing why packet-level
//!   independence fails under connection traffic.

pub mod error;
pub mod example;
pub mod fit;
pub mod gravity;
pub mod ic_model;
pub mod model;
pub mod stability;
pub mod synth;
pub mod tm;

pub use error::{improvement_percent, mean_rel_l2, rel_l2_series, rel_l2_temporal};
pub use example::{figure2_example, Figure2Result};
pub use fit::{
    fit_stable_f, fit_stable_fp, fit_time_varying, FitOptions, FitReport, Objective, WarmStart,
};
pub use gravity::{gravity_from_marginals, gravity_predict};
pub use ic_model::{Fit, IcModel};
pub use model::{
    general_ic, simplified_ic, stable_f_series, stable_fp_series, time_varying_series,
    StableFParams, StableFpParams, TimeVaryingParams,
};
pub use synth::{generate_synthetic, synth_process, SynthConfig, SynthOutput, SynthProcess};
pub use tm::{TmSeries, TmWindowIter};

/// Errors produced by the IC model library.
#[derive(Debug, Clone, PartialEq)]
pub enum IcError {
    /// Input dimensions are inconsistent (e.g. preference length vs node
    /// count).
    DimensionMismatch {
        /// What was being computed.
        context: &'static str,
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// A model parameter is out of its domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint violated.
        constraint: &'static str,
    },
    /// The input data is unusable (empty, non-finite, all-zero, ...).
    BadData(&'static str),
    /// An underlying linear-algebra routine failed.
    Linalg(ic_linalg::LinalgError),
    /// An underlying statistics routine failed.
    Stats(ic_stats::StatsError),
}

impl core::fmt::Display for IcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IcError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            IcError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter {name}: {constraint}")
            }
            IcError::BadData(msg) => write!(f, "bad data: {msg}"),
            IcError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            IcError::Stats(e) => write!(f, "statistics failure: {e}"),
        }
    }
}

impl std::error::Error for IcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IcError::Linalg(e) => Some(e),
            IcError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ic_linalg::LinalgError> for IcError {
    fn from(e: ic_linalg::LinalgError) -> Self {
        IcError::Linalg(e)
    }
}

impl From<ic_stats::StatsError> for IcError {
    fn from(e: ic_stats::StatsError) -> Self {
        IcError::Stats(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, IcError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = IcError::DimensionMismatch {
            context: "preference",
            expected: 22,
            actual: 23,
        };
        assert!(e.to_string().contains("22"));
        let e: IcError = ic_linalg::LinalgError::NotPositiveDefinite.into();
        assert!(e.to_string().contains("positive definite"));
        assert!(std::error::Error::source(&e).is_some());
        let e: IcError = ic_stats::StatsError::InsufficientData("x").into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(IcError::BadData("empty").to_string().contains("empty"));
        assert!(IcError::InvalidParameter {
            name: "f",
            constraint: "must be in [0,1]"
        }
        .to_string()
        .contains("[0,1]"));
        assert!(std::error::Error::source(&IcError::BadData("x")).is_none());
    }
}
