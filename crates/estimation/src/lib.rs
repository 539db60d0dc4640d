//! # ic-estimation — traffic-matrix estimation with IC and gravity priors
//!
//! Reproduces Section 6 of the paper. The TM estimation problem: given
//! link counts `Y`, routing matrix `R`, and ingress/egress node counts,
//! recover the traffic matrix `x` from the under-constrained system
//! `Y = R x`. The standard blueprint (shared by \[11, 5, 19, 22\] and
//! followed here exactly):
//!
//! 1. **Prior** — choose a starting-point TM `x_init` ([`prior`]);
//! 2. **Estimation** — refine the prior against the link constraints;
//!    this crate implements the tomogravity weighted least squares of
//!    Zhang et al. \[22\] ([`tomogravity`]);
//! 3. **IPF** — iterative proportional fitting so the estimate honours the
//!    observed marginals ([`ipf`]).
//!
//! The paper's three measurement scenarios map to three IC priors:
//!
//! | scenario | measured beforehand | prior |
//! |----------|--------------------|-------|
//! | §6.1     | `f`, `{P_i}`, `{A_i(t)}` | [`prior::MeasuredIcPrior`] |
//! | §6.2     | `f`, `{P_i}` (previous weeks) | [`prior::StableFpPrior`] (Eq. 7–9) |
//! | §6.3     | `f` only | [`prior::StableFPrior`] (Eq. 11–12) |
//!
//! [`pipeline`] wires the steps together and computes the
//! improvement-over-gravity series that Figures 11–13 plot.

pub mod config;
pub mod evaluate;
pub mod ipf;
pub mod multilevel;
pub mod observe;
pub mod pipeline;
pub mod prior;
pub mod tomogravity;

pub use config::EstimationConfig;
pub use evaluate::{rel_l2_spatial, spatial_error_by_volume, top_flow_error};
pub use ipf::{ipf_fit, ipf_fit_with, IpfOptions, IpfWorkspace};
pub use multilevel::{MultilevelEstimate, MultilevelMetrics, MultilevelPipeline};
pub use observe::{ObservationModel, Observations};
pub use pipeline::{
    compare_priors, compare_priors_with, ComparisonResult, EstimationPipeline, PipelineMetrics,
    PipelineWorkspace,
};
pub use prior::{GravityPrior, MeasuredIcPrior, StableFPrior, StableFpPrior, TmPrior};
pub use tomogravity::{Tomogravity, TomogravityOptions, TomogravityWorkspace};

// Re-exported so downstream crates can pick a solver without depending on
// ic-linalg directly.
pub use ic_linalg::{SolveStats, SolverPolicy};

// Send/Sync audit for the parallel execution engine: the pipeline, its
// inputs, and every reusable workspace cross `ic-engine` worker
// boundaries. Plain owned data only — a non-`Send` field breaks the
// build here, next to the type, instead of at a distant call site.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<ObservationModel>();
    _assert_send_sync::<Observations>();
    _assert_send_sync::<EstimationPipeline>();
    _assert_send_sync::<EstimationConfig>();
    _assert_send_sync::<PipelineWorkspace>();
    _assert_send_sync::<TomogravityWorkspace>();
    _assert_send_sync::<IpfWorkspace>();
    _assert_send_sync::<MultilevelPipeline>();
    _assert_send_sync::<MultilevelEstimate>();
    _assert_send_sync::<EstimationError>();
};

/// Errors produced by the estimation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimationError {
    /// Input dimensions are inconsistent.
    DimensionMismatch {
        /// What was being computed.
        context: &'static str,
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// A parameter is out of its domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint violated.
        constraint: &'static str,
    },
    /// Input data is unusable.
    BadData(&'static str),
    /// An underlying linear-algebra routine failed.
    Linalg(ic_linalg::LinalgError),
    /// An underlying model call failed.
    Core(ic_core::IcError),
    /// An underlying topology/routing call failed.
    Topology(ic_topology::TopologyError),
}

impl core::fmt::Display for EstimationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EstimationError::DimensionMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {actual}"
            ),
            EstimationError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter {name}: {constraint}")
            }
            EstimationError::BadData(msg) => write!(f, "bad data: {msg}"),
            EstimationError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            EstimationError::Core(e) => write!(f, "core model failure: {e}"),
            EstimationError::Topology(e) => write!(f, "topology failure: {e}"),
        }
    }
}

impl std::error::Error for EstimationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstimationError::Linalg(e) => Some(e),
            EstimationError::Core(e) => Some(e),
            EstimationError::Topology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ic_linalg::LinalgError> for EstimationError {
    fn from(e: ic_linalg::LinalgError) -> Self {
        EstimationError::Linalg(e)
    }
}

impl From<ic_core::IcError> for EstimationError {
    fn from(e: ic_core::IcError) -> Self {
        EstimationError::Core(e)
    }
}

impl From<ic_topology::TopologyError> for EstimationError {
    fn from(e: ic_topology::TopologyError) -> Self {
        EstimationError::Topology(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, EstimationError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        assert!(EstimationError::DimensionMismatch {
            context: "prior",
            expected: 4,
            actual: 9
        }
        .to_string()
        .contains("prior"));
        assert!(EstimationError::InvalidParameter {
            name: "f",
            constraint: "!= 0.5"
        }
        .to_string()
        .contains("f"));
        assert!(EstimationError::BadData("x").to_string().contains("x"));
        let e: EstimationError = ic_linalg::LinalgError::NotPositiveDefinite.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: EstimationError = ic_core::IcError::BadData("y").into();
        assert!(std::error::Error::source(&e).is_some());
        let e: EstimationError = ic_topology::TopologyError::Empty.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
