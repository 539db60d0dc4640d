//! Tenant specifications: everything needed to (re)build one tenant's
//! estimation stack from scratch.
//!
//! A [`TenantSpec`] is self-contained — topology, routing, windowing,
//! and all estimator/forecaster/detector options — so it can cross the
//! wire at registration time, be journaled, and be embedded whole in a
//! snapshot: restoring a snapshot needs no out-of-band re-registration.

use crate::codec::{Dec, Enc};
use crate::{Result, ServeError};
use ic_core::{FitOptions, Objective};
use ic_estimation::EstimationConfig;
use ic_linalg::SolverPolicy;
use ic_stream::{DriftOptions, ForecastOptions, ReplayOptions};
use ic_topology::{RoutingScheme, Topology};

/// One directed link of a tenant's topology.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Source node index (into the spec's node-name list).
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// IGP weight used for shortest-path routing.
    pub igp_weight: f64,
    /// Nominal link capacity.
    pub capacity: f64,
}

/// A tenant's full configuration.
///
/// Build with [`TenantSpec::new`] (which captures an existing
/// [`Topology`]) plus the `with_*` setters. The fit options' warm start
/// must be empty — carried fits are runtime *state*, owned by the service
/// and persisted via snapshots, never part of the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Unique tenant name.
    pub name: String,
    /// Node names, in id order.
    pub node_names: Vec<String>,
    /// Directed links between node indices.
    pub links: Vec<LinkSpec>,
    /// Routing scheme for the observation model.
    pub routing: RoutingScheme,
    /// Seconds per ingested bin.
    pub bin_seconds: f64,
    /// Bins per estimation window.
    pub window_bins: usize,
    /// Window stride; `None` means tumbling.
    pub stride: Option<usize>,
    /// Rolling per-window fit options.
    pub fit: FitOptions,
    /// Normal-equations solver of the tomogravity refinement (applied
    /// through [`ic_estimation::EstimationConfig::with_solver`]).
    pub solver: SolverPolicy,
    /// Parameter-forecasting options.
    pub forecast: ForecastOptions,
    /// Change-detection options.
    pub drift: DriftOptions,
}

impl TenantSpec {
    /// Captures a topology into a spec with default windowing (one-day
    /// windows of 5-minute bins) and default estimator options.
    pub fn new(name: impl Into<String>, topology: &Topology, routing: RoutingScheme) -> Self {
        TenantSpec {
            name: name.into(),
            node_names: topology.node_names().to_vec(),
            links: topology
                .links()
                .iter()
                .map(|l| LinkSpec {
                    from: l.from,
                    to: l.to,
                    igp_weight: l.igp_weight,
                    capacity: l.capacity,
                })
                .collect(),
            routing,
            bin_seconds: 300.0,
            window_bins: 288,
            stride: None,
            fit: FitOptions::default(),
            solver: SolverPolicy::Auto,
            forecast: ForecastOptions::default(),
            drift: DriftOptions::default(),
        }
    }

    /// Sets the seconds per bin.
    pub fn with_bin_seconds(mut self, bin_seconds: f64) -> Self {
        self.bin_seconds = bin_seconds;
        self
    }

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

    /// Sets the rolling fit options.
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

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Entries per ingested column (`nodes²`).
    pub fn column_len(&self) -> usize {
        self.nodes() * self.nodes()
    }

    /// Structural validation (cheap; full validation happens when the
    /// topology is built).
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(ServeError::BadRequest(
                "tenant name must be non-empty".into(),
            ));
        }
        if self.node_names.is_empty() {
            return Err(ServeError::BadRequest(format!(
                "tenant {}: topology has no nodes",
                self.name
            )));
        }
        if self.window_bins == 0 {
            return Err(ServeError::BadRequest(format!(
                "tenant {}: window_bins must be positive",
                self.name
            )));
        }
        if !(self.bin_seconds > 0.0) {
            return Err(ServeError::BadRequest(format!(
                "tenant {}: bin_seconds must be positive",
                self.name
            )));
        }
        if let Err(e) = self.fit.validate() {
            return Err(ServeError::BadRequest(format!(
                "tenant {}: fit options: {e}",
                self.name
            )));
        }
        if self.fit.initial.is_some() {
            return Err(ServeError::BadRequest(format!(
                "tenant {}: spec fit options must not carry a warm start (carried fits are \
                 runtime state, restored from snapshots)",
                self.name
            )));
        }
        for (k, l) in self.links.iter().enumerate() {
            if l.from >= self.nodes() || l.to >= self.nodes() {
                return Err(ServeError::BadRequest(format!(
                    "tenant {}: link {k} references node out of range",
                    self.name
                )));
            }
        }
        Ok(())
    }

    /// Rebuilds the tenant's topology.
    pub fn build_topology(&self) -> Result<Topology> {
        let mut topo = Topology::new(self.name.clone());
        for name in &self.node_names {
            topo.add_node(name.clone())?;
        }
        for l in &self.links {
            topo.add_link(l.from, l.to, l.igp_weight, l.capacity)?;
        }
        Ok(topo)
    }

    /// The unified estimation configuration this spec induces — what the
    /// service applies to the tenant's pipeline and streaming estimator,
    /// and what an offline replay must apply to reproduce the tenant's
    /// reports bit-identically.
    pub fn estimation_config(&self) -> EstimationConfig {
        EstimationConfig::new()
            .with_fit(self.fit.clone())
            .with_solver(self.solver)
    }

    /// The equivalent offline replay options: feeding a tenant's journal
    /// through [`ic_stream::replay_estimation`] with these options and
    /// the same pipeline reproduces the service's per-window reports
    /// bit-identically.
    pub fn replay_options(&self) -> ReplayOptions {
        let mut opts = ReplayOptions::default()
            .with_window_bins(self.window_bins)
            .with_fit_options(self.fit.clone())
            .with_forecast(self.forecast.clone())
            .with_drift(self.drift.clone());
        if let Some(stride) = self.stride {
            opts = opts.with_stride(stride);
        }
        opts
    }

    /// Encodes the spec.
    pub fn encode(&self, e: &mut Enc) {
        e.put_str(&self.name);
        e.put_usize(self.node_names.len());
        for n in &self.node_names {
            e.put_str(n);
        }
        e.put_usize(self.links.len());
        for l in &self.links {
            e.put_usize(l.from);
            e.put_usize(l.to);
            e.put_f64(l.igp_weight);
            e.put_f64(l.capacity);
        }
        e.put_u8(match self.routing {
            RoutingScheme::SinglePath => 0,
            RoutingScheme::Ecmp => 1,
        });
        e.put_f64(self.bin_seconds);
        e.put_usize(self.window_bins);
        match self.stride {
            Some(s) => {
                e.put_bool(true);
                e.put_usize(s);
            }
            None => e.put_bool(false),
        }
        // FitOptions subset: every field except the warm start (always
        // empty in a spec; enforced by validate()), then the refine's
        // solver.
        e.put_usize(self.fit.max_sweeps);
        e.put_f64(self.fit.tolerance);
        e.put_f64(self.fit.initial_f);
        e.put_u8(match self.fit.objective {
            Objective::WeightedSse => 0,
            Objective::SumRelL2 => 1,
        });
        e.put_bool(self.fit.fix_f);
        e.put_u8(match self.solver {
            SolverPolicy::Auto => 0,
            SolverPolicy::Dense => 1,
            SolverPolicy::Pcg => 2,
        });
        e.put_f64(self.forecast.ewma_alpha);
        e.put_usize(self.forecast.season_length);
        e.put_f64(self.forecast.seasonal_weight);
        e.put_f64(self.drift.cusum_slack);
        e.put_f64(self.drift.cusum_threshold);
        e.put_f64(self.drift.max_f_jump);
        e.put_f64(self.drift.min_preference_corr);
    }

    /// Decodes a spec.
    pub fn decode(d: &mut Dec<'_>) -> Result<Self> {
        let name = d.take_str()?;
        let node_count = d.take_usize()?;
        let mut node_names = Vec::with_capacity(node_count.min(1 << 20));
        for _ in 0..node_count {
            node_names.push(d.take_str()?);
        }
        let link_count = d.take_usize()?;
        let mut links = Vec::with_capacity(link_count.min(1 << 20));
        for _ in 0..link_count {
            links.push(LinkSpec {
                from: d.take_usize()?,
                to: d.take_usize()?,
                igp_weight: d.take_f64()?,
                capacity: d.take_f64()?,
            });
        }
        let routing = match d.take_u8()? {
            0 => RoutingScheme::SinglePath,
            1 => RoutingScheme::Ecmp,
            b => return Err(ServeError::Codec(format!("unknown routing byte {b}"))),
        };
        let bin_seconds = d.take_f64()?;
        let window_bins = d.take_usize()?;
        let stride = if d.take_bool()? {
            Some(d.take_usize()?)
        } else {
            None
        };
        let max_sweeps = d.take_usize()?;
        let tolerance = d.take_f64()?;
        let initial_f = d.take_f64()?;
        let objective = match d.take_u8()? {
            0 => Objective::WeightedSse,
            1 => Objective::SumRelL2,
            b => return Err(ServeError::Codec(format!("unknown objective byte {b}"))),
        };
        let fix_f = d.take_bool()?;
        let solver = match d.take_u8()? {
            0 => SolverPolicy::Auto,
            1 => SolverPolicy::Dense,
            2 => SolverPolicy::Pcg,
            b => return Err(ServeError::Codec(format!("unknown solver byte {b}"))),
        };
        let fit = FitOptions::default()
            .with_max_sweeps(max_sweeps)
            .with_tolerance(tolerance)
            .with_initial_f(initial_f)
            .with_objective(objective)
            .with_fix_f(fix_f);
        let forecast = ForecastOptions::default()
            .with_ewma_alpha(d.take_f64()?)
            .with_season_length(d.take_usize()?)
            .with_seasonal_weight(d.take_f64()?);
        let drift = DriftOptions::default()
            .with_cusum_slack(d.take_f64()?)
            .with_cusum_threshold(d.take_f64()?)
            .with_max_f_jump(d.take_f64()?)
            .with_min_preference_corr(d.take_f64()?);
        Ok(TenantSpec {
            name,
            node_names,
            links,
            routing,
            bin_seconds,
            window_bins,
            stride,
            fit,
            solver,
            forecast,
            drift,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Topology {
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
    fn spec_round_trips_and_rebuilds_the_topology() {
        let topo = ring(5);
        let mut spec = TenantSpec::new("backbone-a", &topo, RoutingScheme::Ecmp)
            .with_bin_seconds(60.0)
            .with_window_bins(12)
            .with_stride(6)
            .with_fit_options(
                FitOptions::default()
                    .with_max_sweeps(17)
                    .with_objective(Objective::SumRelL2),
            )
            .with_forecast(ForecastOptions::default().with_season_length(7))
            .with_drift(DriftOptions::default().with_max_f_jump(0.2));
        spec.solver = SolverPolicy::Pcg;
        spec.validate().unwrap();
        assert_eq!(spec.nodes(), 5);
        assert_eq!(spec.column_len(), 25);
        let mut e = Enc::new();
        spec.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = TenantSpec::decode(&mut d).unwrap();
        d.expect_end().unwrap();
        assert_eq!(back, spec);
        let rebuilt = back.build_topology().unwrap();
        assert_eq!(rebuilt.node_count(), topo.node_count());
        assert_eq!(rebuilt.link_count(), topo.link_count());
        assert_eq!(rebuilt.node_names(), topo.node_names());
        assert_eq!(back.replay_options().window_bins, 12);
        let config = back.estimation_config();
        assert_eq!(config.tomogravity.solver, SolverPolicy::Pcg);
        assert_eq!(config.fit, spec.fit);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let topo = ring(3);
        let ok = TenantSpec::new("t", &topo, RoutingScheme::SinglePath);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.name.clear();
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.window_bins = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.bin_seconds = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.links[0].to = 99;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.fit = FitOptions::default().with_warm_start(ic_core::WarmStart {
            f: 0.3,
            preference: vec![0.5, 0.3, 0.2],
        });
        assert!(bad.validate().is_err());
        for fit in [
            FitOptions::default().with_initial_f(f64::NAN),
            FitOptions::default().with_tolerance(f64::NAN),
            FitOptions::default().with_tolerance(-1.0),
        ] {
            let mut bad = ok.clone();
            bad.fit = fit;
            assert!(
                matches!(bad.validate(), Err(ServeError::BadRequest(_))),
                "{:?}",
                bad.fit
            );
        }
        let mut zero_tolerance = ok.clone();
        zero_tolerance.fit = FitOptions::default().with_tolerance(0.0);
        assert!(zero_tolerance.validate().is_ok());
        let mut bad = ok;
        bad.node_names.clear();
        bad.links.clear();
        assert!(bad.validate().is_err());
    }
}
