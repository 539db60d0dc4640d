//! The unified estimation configuration.
//!
//! [`EstimationConfig`] collapses the parallel `with_*` ladders that used
//! to be repeated across [`EstimationPipeline`](crate::EstimationPipeline),
//! the streaming estimator, and the scenario builder into one value:
//! step options (fit, tomogravity, IPF) and the optional stage-metrics
//! handle. Every consumer accepts it through a single `.config(..)` call,
//! its only configuration entry point. The solver policy
//! ([`EstimationConfig::with_solver`]) reaches the one stage that solves a
//! normal-equation system, the tomogravity refinement; the fits solve
//! their subproblems in closed form. The multilevel decomposition is not
//! a setting here: a caller who wants it builds a
//! [`MultilevelPipeline`](crate::MultilevelPipeline) from a partition.

use crate::ipf::IpfOptions;
use crate::pipeline::PipelineMetrics;
use crate::tomogravity::TomogravityOptions;
use ic_core::FitOptions;
use ic_linalg::SolverPolicy;
use std::sync::Arc;

/// One configuration value for the whole estimation stack.
///
/// Construct with [`EstimationConfig::default`] and refine with the
/// `with_*` setters; pass to `EstimationPipeline::config`,
/// `StreamingTomogravity::config`, or `ScenarioBuilder::config`. Each
/// consumer reads the fields it understands (the pipeline ignores `fit`,
/// a pure fitting call ignores `ipf`) so one value can configure an
/// entire scenario end to end.
///
/// Marked `#[non_exhaustive]`: future knobs are not breaking changes.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct EstimationConfig {
    /// Block-coordinate-descent options for the parameter fits (step 1
    /// priors and streaming window fits).
    pub fit: FitOptions,
    /// Tomogravity refinement options (step 2).
    pub tomogravity: TomogravityOptions,
    /// IPF options (step 3).
    pub ipf: IpfOptions,
    /// Optional pre-registered pipeline stage metrics.
    pub metrics: Option<Arc<PipelineMetrics>>,
}

impl EstimationConfig {
    /// A default configuration: default step options, the `Auto` solver
    /// policy, no metrics.
    pub fn new() -> Self {
        EstimationConfig::default()
    }

    /// Replaces the fit options.
    pub fn with_fit(mut self, fit: FitOptions) -> Self {
        self.fit = fit;
        self
    }

    /// Replaces the IPF options.
    pub fn with_ipf(mut self, ipf: IpfOptions) -> Self {
        self.ipf = ipf;
        self
    }

    /// Selects the normal-equations solver policy of the tomogravity
    /// refinement, its one option. The fits need none: their subproblems
    /// are solved in closed form.
    pub fn with_solver(mut self, policy: SolverPolicy) -> Self {
        self.tomogravity = self.tomogravity.with_solver(policy);
        self
    }

    /// Attaches pipeline stage metrics.
    pub fn with_metrics(mut self, metrics: Arc<PipelineMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_obs::MetricsRegistry;

    #[test]
    fn defaults_are_the_classic_per_bin_path() {
        let c = EstimationConfig::new();
        assert!(c.metrics.is_none());
        assert_eq!(c.tomogravity, TomogravityOptions::default());
        assert_eq!(c.ipf, IpfOptions::default());
    }

    #[test]
    fn with_solver_sets_the_refine_alone() {
        let c = EstimationConfig::new().with_solver(SolverPolicy::Pcg);
        assert_eq!(c.tomogravity.solver, SolverPolicy::Pcg);
        assert_eq!(c.fit, FitOptions::default());
    }

    #[test]
    fn setters_compose() {
        let registry = MetricsRegistry::new();
        let metrics = PipelineMetrics::register(&registry);
        let c = EstimationConfig::new()
            .with_fit(FitOptions::default().with_max_sweeps(7))
            .with_solver(SolverPolicy::Dense)
            .with_ipf(IpfOptions::default().with_max_iterations(5))
            .with_metrics(metrics);
        assert_eq!(c.fit.max_sweeps, 7);
        assert_eq!(c.tomogravity.solver, SolverPolicy::Dense);
        assert_eq!(c.ipf.max_iterations, 5);
        assert!(c.metrics.is_some());
    }
}
