//! The transport-free service core.
//!
//! A [`Service`] owns many independent tenants and batches their ready
//! windows onto one shared [`ic_engine::Engine`]. A tenant is its
//! [`TenantSpec`], one observation model shared by its gravity-baseline
//! pipeline and its [`StreamingTomogravity`] candidate, and a
//! [`WindowTracker`] built from [`TenantSpec::replay_options`]: the same
//! windowing, forecasting, drift and report step that
//! [`ic_stream::replay_estimation`] runs offline. Solver memory is a
//! per-worker cost: every job of a poll, candidate or baseline, runs on
//! the engine worker's [`PipelineWorkspace`], so the service holds one
//! `rows × rows` Gram per worker (sized for the largest tenant it has
//! run), not one per tenant. Determinism is the design invariant:
//!
//! * **Per-tenant ordering.** Window `k + 1`'s prior depends on window
//!   `k`'s fit, so a [`Service::poll`] round takes at most *one* ready
//!   window per tenant and loops rounds until drained. Within a round,
//!   each warm tenant-window contributes two independent engine jobs (the
//!   IC-prior candidate and the [`gravity_baseline`]), so cross-tenant
//!   throughput rides the executor while every tenant sees exactly the
//!   serial history it would see alone. A cold window (no rolling fit
//!   yet) contributes only its candidate, under the offline replay's
//!   cold-window rule.
//! * **Bit-identity.** The engine assembles results by job index and its
//!   thread count never changes results, so a tenant's report stream is
//!   bit-identical to feeding the same bins through
//!   [`ic_stream::replay_estimation`] offline, for any worker count and
//!   any interleaving of other tenants (proptest-locked in
//!   `tests/service.rs`).
//! * **Record/replay.** With [`Service::enable_journal`] every
//!   registration, ingested column, and snapshot-restore is appended to a
//!   journal that [`Service::replay_journal`] can re-feed through a fresh
//!   service core offline, reproducing every tenant's reports.

use crate::codec::{Dec, Enc};
use crate::snapshot::TenantSnapshot;
use crate::spec::TenantSpec;
use crate::wire::StatsFormat;
use crate::{Result, ServeError};
use ic_engine::{Engine, WorkspacePool};
use ic_estimation::{EstimationPipeline, ObservationModel, PipelineWorkspace};
use ic_obs::{Counter, Histogram, MetricsRegistry, Span};
use ic_stream::{
    gravity_baseline, ParamForecast, StreamMetrics, StreamingTomogravity, Window, WindowEstimate,
    WindowReport, WindowTracker,
};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Identifies a registered tenant (assigned densely from 0).
pub type TenantId = u32;

/// One completed window, pushed to subscribers and returned by
/// [`Service::poll`]. Drift alerts ride inside the report's
/// `drift_events` — first-class, not dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantEvent {
    /// The tenant the window belongs to.
    pub tenant: TenantId,
    /// The tenant's name (denormalized for subscribers).
    pub name: String,
    /// The window's results, identical in structure and bits to the
    /// offline replay drivers' reports.
    pub report: WindowReport,
}

impl TenantEvent {
    /// Stable kebab-case event kind: `"drift-alert"` when the window
    /// fired change detection, else `"window-report"`. This string is the
    /// event-log/CLI vocabulary — grep for it, don't re-derive it.
    pub fn kind(&self) -> &'static str {
        if self.report.drift_events.is_empty() {
            "window-report"
        } else {
            "drift-alert"
        }
    }
}

impl std::fmt::Display for TenantEvent {
    /// The one-line human rendering shared by the CLI and event logs:
    /// `tenant=<name> window=<k> kind=<kind> error=<e> gravity=<g>
    /// improvement=<p>% [drift: <kinds>]`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tenant={} window={} kind={} error={:.6} gravity={:.6} improvement={:.2}%",
            self.name,
            self.report.window,
            self.kind(),
            self.report.error_candidate,
            self.report.error_gravity,
            self.report.improvement,
        )?;
        if !self.report.drift_events.is_empty() {
            write!(f, " drift:")?;
            for ev in &self.report.drift_events {
                write!(f, " {}={:.6}", ev.kind.as_str(), ev.statistic)?;
            }
        }
        Ok(())
    }
}

/// Magic bytes opening every journal.
pub const JOURNAL_MAGIC: [u8; 4] = *b"ICJL";
/// Current journal format version. Version 3 drops the batched-execution
/// pair (a batch-width `usize` and a precision byte) that version 2 added
/// to every journaled tenant spec; the per-bin path is now the only one.
pub const JOURNAL_VERSION: u32 = 3;

const RECORD_REGISTER: u8 = 0;
const RECORD_INGEST: u8 = 1;
const RECORD_RESTORE: u8 = 2;

/// Per-tenant labeled counter handles (`tenant=<name>` series),
/// registered when the service has metrics enabled.
struct TenantMetrics {
    /// `serve.ingest.bins_total{tenant=..}`.
    ingested_bins: Arc<Counter>,
    /// `serve.poll.windows_total{tenant=..}`.
    polled_windows: Arc<Counter>,
}

/// A registered tenant. It holds no solver buffers: its windows run on
/// the service's per-worker workspaces.
struct Tenant {
    spec: TenantSpec,
    /// Gravity-prior baseline pipeline. The candidate wraps a clone of
    /// it, and the clones share one observation model.
    pipeline: EstimationPipeline,
    /// The IC-prior candidate; behind a mutex so an engine job can
    /// advance it while the service only holds `&self.tenants`.
    candidate: Mutex<StreamingTomogravity>,
    tracker: WindowTracker,
    /// Completed windows awaiting a poll round, in arrival order.
    ready: VecDeque<Window>,
    last_estimate: Option<WindowEstimate>,
    last_report: Option<WindowReport>,
    metrics: Option<TenantMetrics>,
}

impl Tenant {
    fn build(spec: TenantSpec, metrics: Option<&ServiceMetrics>) -> Result<Self> {
        spec.validate()?;
        let topology = spec.build_topology()?;
        let model = ObservationModel::new(&topology, spec.routing)?;
        let config = spec.estimation_config();
        let pipeline = EstimationPipeline::new(model).config(config.clone());
        let mut candidate = StreamingTomogravity::new(pipeline.clone()).config(config);
        if let Some(m) = metrics {
            candidate.set_metrics(Arc::clone(&m.stream));
        }
        let tracker = WindowTracker::new(&spec.replay_options())?;
        let tenant_metrics = metrics.map(|m| m.for_tenant(&spec.name));
        Ok(Tenant {
            spec,
            pipeline,
            candidate: Mutex::new(candidate),
            tracker,
            ready: VecDeque::new(),
            last_estimate: None,
            last_report: None,
            metrics: tenant_metrics,
        })
    }
}

/// A candidate/baseline job's output inside a poll round.
enum StepOut {
    Candidate(Box<WindowEstimate>),
    Baseline(f64),
}

/// A poll that takes longer than this logs a `slow-poll` event.
const SLOW_POLL_SECONDS: f64 = 1.0;

/// Pre-registered handles for the serving layer's metrics (see
/// [`Service::enable_metrics`]). Registration happens once here and per
/// tenant at registration time; the poll/ingest hot paths only touch
/// atomics.
struct ServiceMetrics {
    registry: Arc<MetricsRegistry>,
    /// Shared by every tenant's streaming estimator
    /// (`stream.window.seconds`, `stream.windows_total`, ...).
    stream: Arc<StreamMetrics>,
    /// `serve.poll.seconds` — wall time of one [`Service::poll`].
    poll: Arc<Histogram>,
    /// `serve.polls_total`.
    polls: Arc<Counter>,
    /// `solver.dense_solves_total` — live view of the tomogravity
    /// refinement's [`SolveStats`] accumulated across all tenants' windows.
    ///
    /// [`SolveStats`]: ic_linalg::SolveStats
    dense_solves: Arc<Counter>,
    /// `solver.pcg_solves_total`.
    pcg_solves: Arc<Counter>,
    /// `solver.pcg_iterations_total`.
    pcg_iterations: Arc<Counter>,
    /// `solver.pcg_stalls_total`.
    pcg_stalls: Arc<Counter>,
    /// `solver.fallbacks_total`.
    fallbacks: Arc<Counter>,
}

impl ServiceMetrics {
    fn register(registry: Arc<MetricsRegistry>) -> Self {
        ServiceMetrics {
            stream: StreamMetrics::register(&registry),
            poll: registry.histogram("serve.poll.seconds"),
            polls: registry.counter("serve.polls_total"),
            dense_solves: registry.counter("solver.dense_solves_total"),
            pcg_solves: registry.counter("solver.pcg_solves_total"),
            pcg_iterations: registry.counter("solver.pcg_iterations_total"),
            pcg_stalls: registry.counter("solver.pcg_stalls_total"),
            fallbacks: registry.counter("solver.fallbacks_total"),
            registry,
        }
    }

    fn for_tenant(&self, name: &str) -> TenantMetrics {
        TenantMetrics {
            ingested_bins: self
                .registry
                .counter_with("serve.ingest.bins_total", &[("tenant", name)]),
            polled_windows: self
                .registry
                .counter_with("serve.poll.windows_total", &[("tenant", name)]),
        }
    }
}

/// The one rendering behind [`Service::render_stats`] and the server's
/// `Stats` replies: `registry` as Prometheus exposition text or JSON, or
/// [`ServeError::BadRequest`] when there is none (metrics not enabled).
pub(crate) fn render_registry(
    registry: Option<&MetricsRegistry>,
    format: StatsFormat,
) -> Result<String> {
    let registry = registry
        .ok_or_else(|| ServeError::BadRequest("metrics are not enabled on this service".into()))?;
    Ok(match format {
        StatsFormat::Prometheus => registry.render_prometheus(),
        StatsFormat::Json => registry.render_json(),
    })
}

/// The multi-tenant streaming estimation service.
#[derive(Default)]
pub struct Service {
    engine: Engine,
    tenants: Vec<Tenant>,
    /// Per-worker scratch for every job of a poll, the candidate and the
    /// gravity baseline of every tenant (result-neutral). The engine
    /// holds at most one workspace per worker, each reshaped within its
    /// allocation as the worker moves between tenants of different sizes.
    scratch: WorkspacePool<PipelineWorkspace>,
    journal: Option<Vec<u8>>,
    /// Observability handles; absent (the default) every recording site
    /// is a single branch. Metrics never change results.
    metrics: Option<ServiceMetrics>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("tenants", &self.tenants.len())
            .field("pending", &self.pending())
            .field("journaling", &self.journal.is_some())
            .finish()
    }
}

impl Service {
    /// A service batching onto the default engine
    /// ([`Engine::new`] — all available cores).
    pub fn new() -> Self {
        Service::with_engine(Engine::new())
    }

    /// A service batching onto an explicit engine. The thread count
    /// never changes any tenant's results — only wall-clock time.
    pub fn with_engine(engine: Engine) -> Self {
        Service {
            engine,
            tenants: Vec::new(),
            scratch: WorkspacePool::new(),
            journal: None,
            metrics: None,
        }
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Looks a tenant up by name.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        self.tenants
            .iter()
            .position(|t| t.spec.name == name)
            .map(|i| i as TenantId)
    }

    /// The tenant's name.
    pub fn tenant_name(&self, id: TenantId) -> Result<&str> {
        Ok(&self.tenants[self.check(id)?].spec.name)
    }

    /// Ready windows across all tenants awaiting a poll.
    pub fn pending(&self) -> usize {
        self.tenants.iter().map(|t| t.ready.len()).sum()
    }

    fn check(&self, id: TenantId) -> Result<usize> {
        let idx = id as usize;
        if idx >= self.tenants.len() {
            return Err(ServeError::UnknownTenant(id));
        }
        Ok(idx)
    }

    /// Starts journaling. Call *before* registering tenants: the journal
    /// records registrations, ingested columns, and snapshot-restores
    /// from this point on, and [`Service::replay_journal`] replays it
    /// against an empty service.
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            let mut e = Enc::new();
            e.put_raw(&JOURNAL_MAGIC);
            e.put_u32(JOURNAL_VERSION);
            self.journal = Some(e.into_bytes());
        }
    }

    /// The journal so far, when journaling is enabled.
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        self.journal.as_deref()
    }

    /// Turns on metrics and structured events for this service.
    ///
    /// Creates the registry, pre-registers the serve/stream/solver metric
    /// families, instruments every already-registered tenant, and attaches
    /// the shared stream metrics to each tenant's estimator. Recording is
    /// lock-free atomics and is **result-neutral**: every estimate,
    /// snapshot, and journal byte is bit-identical with metrics on or off
    /// (proptest-locked in `tests/service.rs`). Idempotent.
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_some() {
            return;
        }
        let metrics = ServiceMetrics::register(Arc::new(MetricsRegistry::new()));
        for tenant in &mut self.tenants {
            tenant.metrics = Some(metrics.for_tenant(&tenant.spec.name));
            tenant
                .candidate
                .get_mut()
                .expect("candidate lock poisoned")
                .set_metrics(Arc::clone(&metrics.stream));
        }
        self.metrics = Some(metrics);
    }

    /// The metrics registry, when [`Service::enable_metrics`] was called.
    /// Embedders can register their own instruments on it or read events.
    pub fn metrics_registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Renders the metrics registry as Prometheus exposition text or
    /// JSON. Fails with [`ServeError::BadRequest`] when metrics are not
    /// enabled.
    pub fn render_stats(&self, format: StatsFormat) -> Result<String> {
        render_registry(self.metrics_registry().map(Arc::as_ref), format)
    }

    /// Registers a tenant; its name must be unused.
    pub fn register(&mut self, spec: TenantSpec) -> Result<TenantId> {
        if self.tenant_id(&spec.name).is_some() {
            return Err(ServeError::NameTaken(spec.name));
        }
        let tenant = Tenant::build(spec, self.metrics.as_ref())?;
        // Journal only successful registrations, so a replayed journal
        // never trips over a spec this build rejected.
        if let Some(journal) = &mut self.journal {
            let mut e = Enc::new();
            e.put_u8(RECORD_REGISTER);
            tenant.spec.encode(&mut e);
            journal.extend_from_slice(&e.into_bytes());
        }
        self.tenants.push(tenant);
        Ok((self.tenants.len() - 1) as TenantId)
    }

    /// Restores a tenant from a snapshot, picking up exactly where the
    /// snapshotted service left off (bit-identically — including
    /// mid-window partial bins). The snapshot carries the full spec, so
    /// no prior registration is needed; the name must be unused.
    pub fn restore_tenant(&mut self, snapshot: &[u8]) -> Result<TenantId> {
        let snap = TenantSnapshot::from_bytes(snapshot)?;
        if self.tenant_id(&snap.spec.name).is_some() {
            return Err(ServeError::NameTaken(snap.spec.name));
        }
        let mut tenant = Tenant::build(snap.spec, self.metrics.as_ref())?;
        if let Some(journal) = &mut self.journal {
            let mut e = Enc::new();
            e.put_u8(RECORD_RESTORE);
            e.put_bytes(snapshot);
            journal.extend_from_slice(&e.into_bytes());
        }
        tenant
            .tracker
            .restore(snap.windower, snap.forecaster, snap.detector);
        tenant
            .candidate
            .get_mut()
            .expect("candidate lock poisoned")
            .restore(snap.estimator);
        if let Some(m) = &self.metrics {
            m.registry
                .event("restore", format!("tenant={}", tenant.spec.name));
        }
        self.tenants.push(tenant);
        Ok((self.tenants.len() - 1) as TenantId)
    }

    /// Snapshots one tenant's warm state (spec, rolling fit, forecaster,
    /// drift statistics, window position). Fails while the tenant has
    /// unprocessed ready windows — poll first, so no completed-but-
    /// unreported window can be lost across a restart.
    pub fn snapshot_tenant(&self, id: TenantId) -> Result<Vec<u8>> {
        let t = &self.tenants[self.check(id)?];
        if !t.ready.is_empty() {
            return Err(ServeError::BadRequest(format!(
                "tenant {}: {} ready window(s) not yet polled; poll() before snapshotting",
                t.spec.name,
                t.ready.len()
            )));
        }
        let (windower, forecaster, detector) = t.tracker.state();
        let bytes = TenantSnapshot {
            spec: t.spec.clone(),
            windower,
            estimator: t.candidate.lock().expect("candidate lock poisoned").state(),
            forecaster,
            detector,
        }
        .to_bytes();
        if let Some(m) = &self.metrics {
            m.registry.event(
                "snapshot",
                format!("tenant={} bytes={}", t.spec.name, bytes.len()),
            );
        }
        Ok(bytes)
    }

    /// Ingests one link-load column (length `nodes²`) for a tenant.
    /// Returns the tenant's ready-window count after the push; call
    /// [`Service::poll`] to execute ready windows.
    pub fn ingest(&mut self, id: TenantId, column: Vec<f64>) -> Result<usize> {
        let idx = self.check(id)?;
        let expected = self.tenants[idx].spec.column_len();
        if column.len() != expected {
            return Err(ServeError::BadRequest(format!(
                "tenant {}: column has {} entries, want {expected}",
                self.tenants[idx].spec.name,
                column.len()
            )));
        }
        if let Some(journal) = &mut self.journal {
            let mut e = Enc::new();
            e.put_u8(RECORD_INGEST);
            e.put_u32(id);
            e.put_f64s(&column);
            journal.extend_from_slice(&e.into_bytes());
        }
        let t = &mut self.tenants[idx];
        let nodes = t.spec.nodes();
        let bin_seconds = t.spec.bin_seconds;
        if let Some(m) = &t.metrics {
            m.ingested_bins.inc();
        }
        if let Some(window) = t.tracker.push(nodes, bin_seconds, column)? {
            t.ready.push_back(window);
        }
        Ok(t.ready.len())
    }

    /// Executes every ready window across all tenants and returns the
    /// completed-window events in processing order.
    ///
    /// Windows run in rounds — at most one per tenant per round, tenants
    /// in id order — so each tenant's windows execute strictly in stream
    /// order while distinct tenants (and each window's candidate/baseline
    /// pair) batch onto the shared engine as one job list. Each tenant's
    /// [`WindowTracker`] then reports its window, in tenant order; the
    /// poll itself adds only the metrics and events.
    ///
    /// A tenant with no rolling fit yet (its first window, or the first
    /// after a restore of a cold snapshot) gets no baseline job, as in
    /// [`ic_stream::replay_estimation`]: its candidate runs the gravity
    /// prior through a pipeline configured exactly as the baseline's, so
    /// its error is reported as `error_gravity`, with an improvement of 0.
    pub fn poll(&mut self) -> Result<Vec<TenantEvent>> {
        let span = Span::maybe(self.metrics.as_ref().map(|m| &m.poll));
        let mut events = Vec::new();
        loop {
            // Each ready window with whether it needs a baseline job.
            let mut round: Vec<(usize, Window, bool)> = Vec::new();
            for (idx, t) in self.tenants.iter_mut().enumerate() {
                if let Some(w) = t.ready.pop_front() {
                    let warm = t
                        .candidate
                        .get_mut()
                        .expect("candidate lock poisoned")
                        .last_fit()
                        .is_some();
                    round.push((idx, w, warm));
                }
            }
            if round.is_empty() {
                break;
            }
            // Job list: every window's candidate, then its baseline when
            // it has one.
            let jobs: Vec<(usize, bool)> = round
                .iter()
                .enumerate()
                .flat_map(|(k, &(_, _, warm))| {
                    std::iter::once((k, false)).chain(warm.then_some((k, true)))
                })
                .collect();
            let tenants = &self.tenants;
            let round_ref = &round;
            let jobs_ref = &jobs;
            let outs: Vec<StepOut> = self
                .engine
                .run(jobs.len(), &self.scratch, |j, ws| {
                    let (k, baseline) = jobs_ref[j];
                    let (idx, window, _) = &round_ref[k];
                    let tenant = &tenants[*idx];
                    if !baseline {
                        // The candidate step IS the streaming estimator's
                        // per-window body — the one the offline replay drivers
                        // run through `process` — here on this worker's
                        // workspace.
                        let mut candidate =
                            tenant.candidate.lock().expect("candidate lock poisoned");
                        candidate
                            .process_with(window, ws)
                            .map(|e| StepOut::Candidate(Box::new(e)))
                    } else {
                        // Serial here: the engine already parallelizes across
                        // tenants and sides; workspace reuse and thread counts
                        // are result-neutral.
                        gravity_baseline(&tenant.pipeline, window, |prior, obs| {
                            tenant.pipeline.estimate_with(prior, obs, ws)
                        })
                        .map(StepOut::Baseline)
                    }
                })
                .map_err(ServeError::from)?;
            // Coordinator pass, tenants in id order: each tenant's tracker
            // reports its window, then the report is published.
            let mut outs = outs.into_iter();
            for (idx, window, warm) in round {
                let Some(StepOut::Candidate(cand)) = outs.next() else {
                    unreachable!("engine returns one output per job, in job order");
                };
                let error_gravity = if warm {
                    let Some(StepOut::Baseline(error)) = outs.next() else {
                        unreachable!("engine returns one output per job, in job order");
                    };
                    error
                } else {
                    cand.error
                };
                let tenant = &mut self.tenants[idx];
                let report = tenant.tracker.report(&window, &cand, error_gravity)?;
                if let Some(m) = &self.metrics {
                    if let Some(tm) = &tenant.metrics {
                        tm.polled_windows.inc();
                    }
                    if report.forecast_f_error.is_some() {
                        m.stream.forecasts.inc();
                    }
                    m.stream.drift_events.add(report.drift_events.len() as u64);
                    m.dense_solves.add(report.solve_stats.dense_solves);
                    m.pcg_solves.add(report.solve_stats.pcg_solves);
                    m.pcg_iterations.add(report.solve_stats.pcg_iterations);
                    m.pcg_stalls.add(report.solve_stats.pcg_stalls);
                    m.fallbacks.add(report.solve_stats.fallbacks);
                    if report.solve_stats.fallbacks > 0 {
                        m.registry.event(
                            "solver-fallback",
                            format!(
                                "tenant={} window={} fallbacks={}",
                                tenant.spec.name, report.window, report.solve_stats.fallbacks
                            ),
                        );
                    }
                    if report.solve_stats.pcg_stalls > 0 {
                        m.registry.event(
                            "pcg-stall",
                            format!(
                                "tenant={} window={} stalls={}",
                                tenant.spec.name, report.window, report.solve_stats.pcg_stalls
                            ),
                        );
                    }
                }
                tenant.last_report = Some(report.clone());
                tenant.last_estimate = Some(*cand);
                let event = TenantEvent {
                    tenant: idx as TenantId,
                    name: tenant.spec.name.clone(),
                    report,
                };
                if let Some(m) = &self.metrics {
                    if event.kind() == "drift-alert" {
                        m.registry.event("drift-alert", event.to_string());
                    }
                }
                events.push(event);
            }
        }
        if let Some(m) = &self.metrics {
            m.polls.inc();
            if let Some(elapsed) = span.finish() {
                if elapsed > SLOW_POLL_SECONDS {
                    m.registry.event(
                        "slow-poll",
                        format!("windows={} seconds={elapsed:.3}", events.len()),
                    );
                }
            }
        }
        Ok(events)
    }

    /// The tenant's most recent window report.
    pub fn last_report(&self, id: TenantId) -> Result<Option<&WindowReport>> {
        Ok(self.tenants[self.check(id)?].last_report.as_ref())
    }

    /// The tenant's most recent window estimate (the full estimated
    /// traffic-matrix series).
    pub fn last_estimate(&self, id: TenantId) -> Result<Option<&WindowEstimate>> {
        Ok(self.tenants[self.check(id)?].last_estimate.as_ref())
    }

    /// The tenant's forecast of the next window's `(f, {P_i})`, once at
    /// least one window has completed.
    pub fn forecast(&self, id: TenantId) -> Result<Option<ParamForecast>> {
        Ok(self.tenants[self.check(id)?].tracker.forecast())
    }

    /// Replays a journal through a fresh service core: re-registers,
    /// re-ingests, and polls once at the end. Each tenant's event
    /// subsequence is bit-identical to the recording service's, whatever
    /// poll cadence the original used (the cross-tenant interleaving may
    /// group differently).
    pub fn replay_journal(journal: &[u8]) -> Result<(Service, Vec<TenantEvent>)> {
        let mut d = Dec::new(journal);
        let magic = d.take_raw(4)?;
        if magic != JOURNAL_MAGIC {
            return Err(ServeError::Codec(format!(
                "bad journal magic {magic:?} (want {JOURNAL_MAGIC:?})"
            )));
        }
        let version = d.take_u32()?;
        if version != JOURNAL_VERSION {
            return Err(ServeError::Codec(format!(
                "unsupported journal version {version} (this build reads {JOURNAL_VERSION})"
            )));
        }
        let mut service = Service::new();
        while d.remaining() > 0 {
            match d.take_u8()? {
                RECORD_REGISTER => {
                    let spec = TenantSpec::decode(&mut d)?;
                    service.register(spec)?;
                }
                RECORD_INGEST => {
                    let id = d.take_u32()?;
                    let column = d.take_f64s()?;
                    service.ingest(id, column)?;
                }
                RECORD_RESTORE => {
                    let snapshot = d.take_bytes()?;
                    service.restore_tenant(&snapshot)?;
                }
                tag => {
                    return Err(ServeError::Codec(format!(
                        "unknown journal record tag {tag}"
                    )));
                }
            }
        }
        let events = service.poll()?;
        Ok((service, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::{generate_synthetic, SynthConfig, TmSeries};
    use ic_stream::{replay_estimation, ReplayStream};
    use ic_topology::{RoutingScheme, Topology};

    const WINDOW_BINS: usize = 4;

    /// A ring of `n` nodes with one chord, as a tenant with short windows.
    fn spec_for(name: &str, n: usize) -> TenantSpec {
        let mut t = Topology::new(name);
        for k in 0..n {
            t.add_node(format!("n{k}")).unwrap();
        }
        for k in 0..n {
            t.add_symmetric_link(k, (k + 1) % n, 1.0, 1e12).unwrap();
        }
        t.add_symmetric_link(0, n / 2, 1.0, 1e12).unwrap();
        TenantSpec::new(name, &t, RoutingScheme::Ecmp).with_window_bins(WINDOW_BINS)
    }

    fn series_for(seed: u64, nodes: usize, bins: usize) -> TmSeries {
        generate_synthetic(
            &SynthConfig::geant_like(seed)
                .with_nodes(nodes)
                .with_bins(bins),
        )
        .unwrap()
        .series
    }

    /// Dense solves run so far on the service's worker workspaces, the
    /// baselines' included.
    fn dense_solves(service: &Service) -> u64 {
        service
            .scratch
            .fold_idle(0, |acc, ws| acc + ws.solve_stats().dense_solves)
    }

    #[test]
    fn cold_windows_run_the_gravity_estimate_once() {
        let tenants = [
            (spec_for("a", 5), series_for(3, 5, 2 * WINDOW_BINS)),
            (spec_for("b", 7), series_for(4, 7, 2 * WINDOW_BINS)),
            (spec_for("c", 6), series_for(5, 6, 2 * WINDOW_BINS)),
        ];
        let mut service = Service::with_engine(Engine::serial());
        for (spec, _) in &tenants {
            service.register(spec.clone()).unwrap();
        }
        let feed = |service: &mut Service, window: usize| {
            for (id, (_, series)) in tenants.iter().enumerate() {
                for t in window * WINDOW_BINS..(window + 1) * WINDOW_BINS {
                    service.ingest(id as TenantId, series.column(t)).unwrap();
                }
            }
            service.poll().unwrap()
        };
        let bins = (tenants.len() * WINDOW_BINS) as u64;

        // First window: one dense solve per bin per tenant, the candidate's.
        let cold = feed(&mut service, 0);
        assert_eq!(dense_solves(&service), bins);
        assert_eq!(cold.len(), tenants.len());
        for ev in &cold {
            let r = &ev.report;
            assert!(!r.warm, "{}", ev.name);
            assert_eq!(r.error_gravity.to_bits(), r.error_candidate.to_bits());
            assert_eq!(r.improvement, 0.0, "{}", ev.name);
        }

        // Second window: warm candidates, and the baseline runs again.
        let warm = feed(&mut service, 1);
        assert_eq!(dense_solves(&service), 3 * bins);
        assert!(warm.iter().all(|ev| ev.report.warm));

        // Every report equals the offline replay, which follows the same
        // cold-window rule.
        for (id, (spec, series)) in tenants.iter().enumerate() {
            let topo = spec.build_topology().unwrap();
            let model = ObservationModel::new(&topo, spec.routing).unwrap();
            let pipeline = EstimationPipeline::new(model).config(spec.estimation_config());
            let mut stream = ReplayStream::new(series.clone());
            let offline = replay_estimation(&mut stream, pipeline, &spec.replay_options())
                .unwrap()
                .windows;
            let served: Vec<WindowReport> = cold
                .iter()
                .chain(&warm)
                .filter(|ev| ev.tenant == id as TenantId)
                .map(|ev| ev.report.clone())
                .collect();
            assert_eq!(served, offline, "tenant {}", spec.name);
        }
    }
}
