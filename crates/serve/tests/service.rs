//! Determinism contracts of the transport-free service core.
//!
//! The load-bearing invariant: a tenant's report stream through the
//! multi-tenant batching service is bit-identical to feeding the same
//! bins through [`ic_stream::replay_estimation`] alone — for any engine
//! worker count, any poll cadence, any co-tenant interleaving, any window
//! stride and forecast or drift options, and across a snapshot/restore
//! restart or a journal replay.

use ic_core::{generate_synthetic, SynthConfig, TmSeries};
use ic_engine::Engine;
use ic_estimation::{EstimationPipeline, MultilevelMetrics, ObservationModel};
use ic_serve::{Service, StatsFormat, TenantSnapshot, TenantSpec};
use ic_stream::{replay_estimation, DriftOptions, ForecastOptions, ReplayStream, WindowReport};
use ic_topology::{RoutingScheme, Topology};
use proptest::prelude::*;
use std::sync::Arc;

const WINDOW_BINS: usize = 4;

fn ring_topology(name: &str, n: usize) -> Topology {
    let mut t = Topology::new(name);
    let ids: Vec<usize> = (0..n)
        .map(|k| t.add_node(format!("n{k}")).unwrap())
        .collect();
    for k in 0..n {
        t.add_symmetric_link(ids[k], ids[(k + 1) % n], 1.0, 1e12)
            .unwrap();
    }
    t.add_symmetric_link(ids[0], ids[n / 2], 1.0, 1e12).unwrap();
    t
}

fn spec_for(name: &str, nodes: usize) -> TenantSpec {
    TenantSpec::new(name, &ring_topology(name, nodes), RoutingScheme::Ecmp)
        .with_window_bins(WINDOW_BINS)
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

/// `before` bins of one IC process, then `after` bins of another with a
/// different forward ratio and preference vector: a regime switch.
fn regime_series(nodes: usize, before: usize, after: usize) -> TmSeries {
    let a = generate_synthetic(
        &SynthConfig::geant_like(61)
            .with_nodes(nodes)
            .with_bins(before)
            .with_f(0.2),
    )
    .unwrap()
    .series;
    let b = generate_synthetic(
        &SynthConfig::geant_like(62)
            .with_nodes(nodes)
            .with_bins(after)
            .with_f(0.6),
    )
    .unwrap()
    .series;
    let mut out = TmSeries::zeros(nodes, before + after, a.bin_seconds()).unwrap();
    for t in 0..before + after {
        for i in 0..nodes {
            for j in 0..nodes {
                let v = if t < before {
                    a.get(i, j, t)
                } else {
                    b.get(i, j, t - before)
                };
                out.set(i, j, t, v.unwrap()).unwrap();
            }
        }
    }
    out
}

/// Forecasting options other than the defaults: a faster EWMA blended with
/// a two-window season.
fn forecast_options() -> ForecastOptions {
    ForecastOptions::default()
        .with_ewma_alpha(0.6)
        .with_season_length(2)
        .with_seasonal_weight(0.25)
}

/// Change-detection options other than the defaults, all four tighter or
/// looser than the stock envelope.
fn drift_options() -> DriftOptions {
    DriftOptions::default()
        .with_cusum_slack(0.002)
        .with_cusum_threshold(0.02)
        .with_max_f_jump(0.1)
        .with_min_preference_corr(0.9)
}

/// The solo offline reference for a tenant: `replay_estimation` over the
/// same bins, configured exactly as the service configures the tenant.
fn offline_windows(spec: &TenantSpec, series: &TmSeries) -> Vec<WindowReport> {
    let topo = spec.build_topology().unwrap();
    let model = ObservationModel::new(&topo, spec.routing).unwrap();
    let pipeline = EstimationPipeline::new(model).config(spec.estimation_config());
    let mut stream = ReplayStream::new(series.clone());
    replay_estimation(&mut stream, pipeline, &spec.replay_options())
        .unwrap()
        .windows
}

#[test]
fn multi_tenant_batched_service_matches_solo_offline_replay() {
    let tenants = [
        (spec_for("west", 4), series_for(5, 4, 8)),
        (spec_for("east", 5), series_for(7, 5, 8)),
    ];
    let mut service = Service::new();
    let ids: Vec<_> = tenants
        .iter()
        .map(|(spec, _)| service.register(spec.clone()).unwrap())
        .collect();

    // Interleave the two tenants bin by bin, with a mid-stream poll.
    let mut events = Vec::new();
    for t in 0..8 {
        for (id, (_, series)) in ids.iter().zip(&tenants) {
            service.ingest(*id, series.column(t)).unwrap();
        }
        if t == 5 {
            events.extend(service.poll().unwrap());
        }
    }
    events.extend(service.poll().unwrap());
    assert_eq!(service.pending(), 0);

    for (id, (spec, series)) in ids.iter().zip(&tenants) {
        let got: Vec<WindowReport> = events
            .iter()
            .filter(|ev| ev.tenant == *id)
            .map(|ev| ev.report.clone())
            .collect();
        assert_eq!(got, offline_windows(spec, series), "tenant {}", spec.name);
        // The accessors surface the final window.
        assert_eq!(
            service.last_report(*id).unwrap(),
            got.last(),
            "tenant {}",
            spec.name
        );
        assert!(service.forecast(*id).unwrap().is_some());
        let est = service.last_estimate(*id).unwrap().unwrap();
        assert_eq!(est.window, got.last().unwrap().window);
        assert_eq!(
            est.error.to_bits(),
            got.last().unwrap().error_candidate.to_bits()
        );
    }
}

/// Tenants of different sizes share the engine workers' workspaces: within
/// one poll a worker's Gram, IPF matrix and snapshot shrink and grow as it
/// moves between tenants, and every tenant still reports exactly its solo
/// offline replay.
#[test]
fn tenants_of_different_sizes_share_worker_workspaces_bit_identically() {
    let tenants = [
        (spec_for("small", 4), series_for(41, 4, 12)),
        (spec_for("large", 7), series_for(42, 7, 12)),
        (spec_for("medium", 5), series_for(43, 5, 12)),
    ];
    for threads in [1, 3] {
        let mut service = Service::with_engine(Engine::new().with_threads(threads));
        let ids: Vec<_> = tenants
            .iter()
            .map(|(spec, _)| service.register(spec.clone()).unwrap())
            .collect();
        let mut events = Vec::new();
        for t in 0..12 {
            for (id, (_, series)) in ids.iter().zip(&tenants) {
                service.ingest(*id, series.column(t)).unwrap();
            }
            // One poll after the first window, one for the last two.
            if t == 3 || t == 11 {
                events.extend(service.poll().unwrap());
            }
        }
        for (id, (spec, series)) in ids.iter().zip(&tenants) {
            let got: Vec<WindowReport> = events
                .iter()
                .filter(|ev| ev.tenant == *id)
                .map(|ev| ev.report.clone())
                .collect();
            assert_eq!(got.len(), 3, "{threads} threads, tenant {}", spec.name);
            assert_eq!(
                got,
                offline_windows(spec, series),
                "{threads} threads, tenant {}",
                spec.name
            );
        }
    }
}

#[test]
fn kill_and_restore_mid_stream_is_bit_identical() {
    let spec = spec_for("resume", 5);
    let series = series_for(9, 5, 16);

    // The uninterrupted run.
    let mut live = Service::with_engine(Engine::new().with_threads(3));
    let id = live.register(spec.clone()).unwrap();
    for t in 0..16 {
        live.ingest(id, series.column(t)).unwrap();
    }
    let uninterrupted: Vec<WindowReport> = live
        .poll()
        .unwrap()
        .into_iter()
        .map(|ev| ev.report)
        .collect();
    assert_eq!(uninterrupted.len(), 4);

    // The interrupted run: stop after 10 bins — two polled windows plus
    // two bins buffered inside a half-built window.
    let mut first = Service::with_engine(Engine::serial());
    let id1 = first.register(spec.clone()).unwrap();
    for t in 0..10 {
        first.ingest(id1, series.column(t)).unwrap();
    }
    let mut reports: Vec<WindowReport> = first
        .poll()
        .unwrap()
        .into_iter()
        .map(|ev| ev.report)
        .collect();
    let snapshot = first.snapshot_tenant(id1).unwrap();
    drop(first);

    // A brand-new service (different worker count) picks up mid-window.
    let mut second = Service::with_engine(Engine::new().with_threads(2));
    let id2 = second.restore_tenant(&snapshot).unwrap();
    assert_eq!(second.tenant_name(id2).unwrap(), "resume");
    for t in 10..16 {
        second.ingest(id2, series.column(t)).unwrap();
    }
    reports.extend(second.poll().unwrap().into_iter().map(|ev| ev.report));

    assert_eq!(reports, uninterrupted);
    assert_eq!(reports, offline_windows(&spec, &series));
}

#[test]
fn snapshot_refuses_while_ready_windows_are_unpolled() {
    let spec = spec_for("pending", 4);
    let series = series_for(3, 4, 8);
    let mut service = Service::with_engine(Engine::serial());
    let id = service.register(spec).unwrap();
    for t in 0..4 {
        service.ingest(id, series.column(t)).unwrap();
    }
    assert_eq!(service.pending(), 1);
    let err = service.snapshot_tenant(id).unwrap_err().to_string();
    assert!(err.contains("poll() before snapshotting"), "{err}");
    service.poll().unwrap();
    assert!(service.snapshot_tenant(id).is_ok());
}

#[test]
fn journal_replay_reproduces_every_tenants_reports() {
    let tenants = [
        (spec_for("north", 4), series_for(21, 4, 8)),
        (spec_for("south", 5), series_for(22, 5, 8)),
    ];
    let mut service = Service::new();
    service.enable_journal();
    let ids: Vec<_> = tenants
        .iter()
        .map(|(spec, _)| service.register(spec.clone()).unwrap())
        .collect();
    let mut events = Vec::new();
    for t in 0..8 {
        for (id, (_, series)) in ids.iter().zip(&tenants) {
            service.ingest(*id, series.column(t)).unwrap();
        }
        // An uneven poll cadence the replay does not repeat.
        if t == 3 {
            events.extend(service.poll().unwrap());
        }
    }
    events.extend(service.poll().unwrap());

    let journal = service.journal_bytes().unwrap().to_vec();
    let (replayed_service, replayed) = Service::replay_journal(&journal).unwrap();
    assert_eq!(replayed_service.tenant_count(), 2);
    for (id, (spec, _)) in ids.iter().zip(&tenants) {
        let original: Vec<&WindowReport> = events
            .iter()
            .filter(|ev| ev.tenant == *id)
            .map(|ev| &ev.report)
            .collect();
        let from_journal: Vec<&WindowReport> = replayed
            .iter()
            .filter(|ev| ev.tenant == *id)
            .map(|ev| &ev.report)
            .collect();
        assert_eq!(original, from_journal, "tenant {}", spec.name);
    }
}

#[test]
fn journal_records_restores_too() {
    let spec = spec_for("journaled-restore", 4);
    let series = series_for(31, 4, 12);

    // First life: no journal, snapshot after one window.
    let mut first = Service::with_engine(Engine::serial());
    let id = first.register(spec.clone()).unwrap();
    for t in 0..4 {
        first.ingest(id, series.column(t)).unwrap();
    }
    first.poll().unwrap();
    let snapshot = first.snapshot_tenant(id).unwrap();

    // Second life: journaled from the restore on.
    let mut second = Service::with_engine(Engine::serial());
    second.enable_journal();
    let id2 = second.restore_tenant(&snapshot).unwrap();
    for t in 4..12 {
        second.ingest(id2, series.column(t)).unwrap();
    }
    let events: Vec<WindowReport> = second
        .poll()
        .unwrap()
        .into_iter()
        .map(|ev| ev.report)
        .collect();
    assert_eq!(events.len(), 2);

    let journal = second.journal_bytes().unwrap().to_vec();
    let (_, replayed) = Service::replay_journal(&journal).unwrap();
    let replayed: Vec<WindowReport> = replayed.into_iter().map(|ev| ev.report).collect();
    assert_eq!(replayed, events);
    // And the tail matches the uninterrupted offline reference.
    assert_eq!(events, offline_windows(&spec, &series)[1..]);
}

#[test]
fn service_rejects_bad_requests() {
    let spec = spec_for("strict", 4);
    let series = series_for(2, 4, 4);
    let mut service = Service::with_engine(Engine::serial());
    let id = service.register(spec.clone()).unwrap();

    // Duplicate name.
    assert!(matches!(
        service.register(spec.clone()),
        Err(ic_serve::ServeError::NameTaken(_))
    ));
    // Wrong column length.
    assert!(service.ingest(id, vec![1.0; 3]).is_err());
    // Unknown tenant.
    assert!(service.ingest(99, series.column(0)).is_err());
    assert!(service.last_report(99).is_err());
    assert!(service.snapshot_tenant(99).is_err());
    // Restoring over an existing name collides.
    let snap = service.snapshot_tenant(id).unwrap();
    assert!(matches!(
        service.restore_tenant(&snap),
        Err(ic_serve::ServeError::NameTaken(_))
    ));
    // Garbage snapshot bytes are rejected.
    assert!(service.restore_tenant(b"not a snapshot").is_err());
}

/// The service runs no multilevel pipeline and registers no
/// `multilevel.*` family. An embedder that runs one registers the family
/// on the service's registry, and its numbers show up in both stats
/// renderings.
#[test]
fn multilevel_metrics_registered_on_the_service_registry_surface_in_stats() {
    let mut service = Service::with_engine(Engine::serial());
    assert!(service.metrics_registry().is_none());

    service.enable_metrics();
    let prom = service.render_stats(StatsFormat::Prometheus).unwrap();
    assert!(!prom.contains("multilevel"), "{prom}");
    let registry = service.metrics_registry().expect("metrics enabled");
    let handles = MultilevelMetrics::register(registry);
    // Registration is idempotent per key: registering again hands back
    // the same instruments.
    let again = MultilevelMetrics::register(registry);
    assert!(Arc::ptr_eq(&handles.coarse, &again.coarse));
    assert!(Arc::ptr_eq(&handles.clusters, &again.clusters));

    handles.clusters.set(6.0);
    handles.boundary_link_fraction.set(0.125);
    handles.coarse.record(0.5);
    handles.cluster.record(0.1);
    handles.cluster.record(0.2);
    handles.reconcile.record(0.05);

    let prom = service.render_stats(StatsFormat::Prometheus).unwrap();
    assert!(prom.contains("multilevel_clusters 6"), "{prom}");
    assert!(
        prom.contains("multilevel_boundary_link_fraction 0.125"),
        "{prom}"
    );
    assert!(prom.contains("multilevel_coarse_seconds_count 1"), "{prom}");
    assert!(
        prom.contains("multilevel_cluster_seconds_count 2"),
        "{prom}"
    );
    assert!(
        prom.contains("multilevel_reconcile_seconds_count 1"),
        "{prom}"
    );

    let json = service.render_stats(StatsFormat::Json).unwrap();
    assert!(json.contains("multilevel.clusters"), "{json}");
}

/// Tenants with sliding windows (a stride below the window length, and
/// one above it so bins are skipped), non-default forecasting and drift
/// options, and a regime switch that fires drift: every served report
/// equals the tenant's offline replay, on one worker and on two.
#[test]
fn sliding_windows_forecast_and_drift_options_match_offline_replay() {
    const SWITCH: usize = 12;
    let tenants = [
        (
            spec_for("overlap", 5)
                .with_stride(2)
                .with_forecast(forecast_options()),
            series_for(71, 5, 14),
        ),
        (
            spec_for("gapped", 4)
                .with_stride(7)
                .with_drift(drift_options()),
            series_for(72, 4, 25),
        ),
        (
            spec_for("regime", 5)
                .with_stride(3)
                .with_forecast(forecast_options())
                .with_drift(drift_options()),
            regime_series(5, SWITCH, 12),
        ),
    ];
    let offline: Vec<Vec<WindowReport>> = tenants
        .iter()
        .map(|(spec, series)| offline_windows(spec, series))
        .collect();
    let starts =
        |reports: &[WindowReport]| -> Vec<usize> { reports.iter().map(|r| r.start_bin).collect() };
    assert_eq!(starts(&offline[0]), [0, 2, 4, 6, 8, 10]);
    assert_eq!(starts(&offline[1]), [0, 7, 14, 21]);
    assert_eq!(starts(&offline[2]), [0, 3, 6, 9, 12, 15, 18]);
    assert!(
        offline[2]
            .iter()
            .any(|r| r.start_bin + r.bins > SWITCH && !r.drift_events.is_empty()),
        "the regime switch fires drift"
    );
    assert!(offline[0].iter().any(|r| r.forecast_f_error.is_some()));

    for threads in [1, 2] {
        let mut service = Service::with_engine(Engine::new().with_threads(threads));
        let ids: Vec<_> = tenants
            .iter()
            .map(|(spec, _)| service.register(spec.clone()).unwrap())
            .collect();
        let mut events = Vec::new();
        for t in 0..25 {
            for (id, (_, series)) in ids.iter().zip(&tenants) {
                if t < series.bins() {
                    service.ingest(*id, series.column(t)).unwrap();
                }
            }
            if t % 5 == 4 {
                events.extend(service.poll().unwrap());
            }
        }
        events.extend(service.poll().unwrap());
        for ((id, (spec, _)), offline) in ids.iter().zip(&tenants).zip(&offline) {
            let got: Vec<WindowReport> = events
                .iter()
                .filter(|ev| ev.tenant == *id)
                .map(|ev| ev.report.clone())
                .collect();
            assert_eq!(&got, offline, "{threads} threads, tenant {}", spec.name);
        }
    }
}

/// A snapshot taken while a gapped windower is discarding bins carries
/// the skip: restored into a fresh service, the tenant reports the same
/// windows as the uninterrupted stream and the offline replay.
#[test]
fn snapshot_while_the_windower_skips_bins_is_bit_identical() {
    let spec = spec_for("skipping", 5)
        .with_stride(7)
        .with_forecast(forecast_options())
        .with_drift(drift_options());
    let series = series_for(81, 5, 25);

    // First life: window 0 (bins 0–3) completes and is polled, and bin 4
    // is the first of three skipped bins.
    let mut first = Service::with_engine(Engine::serial());
    let id = first.register(spec.clone()).unwrap();
    for t in 0..5 {
        first.ingest(id, series.column(t)).unwrap();
    }
    let mut reports: Vec<WindowReport> = first
        .poll()
        .unwrap()
        .into_iter()
        .map(|ev| ev.report)
        .collect();
    let snapshot = first.snapshot_tenant(id).unwrap();
    let carried = TenantSnapshot::from_bytes(&snapshot).unwrap();
    assert_eq!(carried.windower.pending_skip, 2);
    assert!(carried.windower.buffer.is_empty());
    drop(first);

    let mut second = Service::with_engine(Engine::new().with_threads(2));
    let id2 = second.restore_tenant(&snapshot).unwrap();
    for t in 5..25 {
        second.ingest(id2, series.column(t)).unwrap();
    }
    reports.extend(second.poll().unwrap().into_iter().map(|ev| ev.report));

    let starts: Vec<usize> = reports.iter().map(|r| r.start_bin).collect();
    assert_eq!(starts, [0, 7, 14, 21]);
    assert_eq!(reports, offline_windows(&spec, &series));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The 1-vs-N contract, service edition: two co-tenant streams
    /// through engines with different worker counts produce bit-identical
    /// events, equal to each tenant's solo offline replay — whatever the
    /// poll cadence.
    #[test]
    fn worker_count_and_poll_cadence_never_change_results(
        threads in 2usize..5,
        seed_a in 1u64..500,
        seed_b in 500u64..1000,
        poll_after in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let tenants = [
            (spec_for("a", 4), series_for(seed_a, 4, 8)),
            (spec_for("b", 5), series_for(seed_b, 5, 8)),
        ];
        let mut serial = Service::with_engine(Engine::serial());
        let mut parallel = Service::with_engine(Engine::new().with_threads(threads));
        let ids: Vec<_> = tenants
            .iter()
            .map(|(spec, _)| {
                let id = serial.register(spec.clone()).unwrap();
                assert_eq!(id, parallel.register(spec.clone()).unwrap());
                id
            })
            .collect();

        let mut serial_events = Vec::new();
        let mut parallel_events = Vec::new();
        for (t, poll) in poll_after.iter().enumerate() {
            for (id, (_, series)) in ids.iter().zip(&tenants) {
                serial.ingest(*id, series.column(t)).unwrap();
                parallel.ingest(*id, series.column(t)).unwrap();
            }
            if *poll {
                serial_events.extend(serial.poll().unwrap());
                // The parallel side polls only at the end: grouping must
                // not matter either.
            }
        }
        serial_events.extend(serial.poll().unwrap());
        parallel_events.extend(parallel.poll().unwrap());

        for (id, (spec, series)) in ids.iter().zip(&tenants) {
            let off = offline_windows(spec, series);
            for events in [&serial_events, &parallel_events] {
                let got: Vec<WindowReport> = events
                    .iter()
                    .filter(|ev| ev.tenant == *id)
                    .map(|ev| ev.report.clone())
                    .collect();
                prop_assert_eq!(&got, &off);
            }
        }
    }

    /// Observability is result-neutral: a metrics-enabled service emits
    /// bit-identical events, snapshot bytes, and journal bytes to a bare
    /// one over the same stream — while its counters actually count.
    #[test]
    fn instrumented_service_is_bit_identical_to_bare(
        threads in 1usize..4,
        seed in 1u64..1000,
        poll_after in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let spec = spec_for("obs", 4);
        let series = series_for(seed, 4, 12);
        let mut bare = Service::with_engine(Engine::new().with_threads(threads));
        let mut instrumented = Service::with_engine(Engine::new().with_threads(threads));
        bare.enable_journal();
        instrumented.enable_journal();
        instrumented.enable_metrics();
        let id = bare.register(spec.clone()).unwrap();
        prop_assert_eq!(id, instrumented.register(spec).unwrap());

        let mut bare_events = Vec::new();
        let mut inst_events = Vec::new();
        let mut polls = 1u64; // the final poll below
        for (t, poll) in poll_after.iter().enumerate() {
            bare.ingest(id, series.column(t)).unwrap();
            instrumented.ingest(id, series.column(t)).unwrap();
            if *poll {
                bare_events.extend(bare.poll().unwrap());
                inst_events.extend(instrumented.poll().unwrap());
                polls += 1;
            }
        }
        bare_events.extend(bare.poll().unwrap());
        inst_events.extend(instrumented.poll().unwrap());

        prop_assert_eq!(&bare_events, &inst_events);
        prop_assert_eq!(
            bare.snapshot_tenant(id).unwrap(),
            instrumented.snapshot_tenant(id).unwrap()
        );
        prop_assert_eq!(
            bare.journal_bytes().unwrap(),
            instrumented.journal_bytes().unwrap()
        );

        // The bare side has no registry; the instrumented side counted
        // every poll and every ingested bin.
        prop_assert!(bare.metrics_registry().is_none());
        prop_assert!(bare.render_stats(StatsFormat::Prometheus).is_err());
        let prom = instrumented.render_stats(StatsFormat::Prometheus).unwrap();
        prop_assert!(prom.contains(&format!("serve_polls_total {polls}")), "{}", prom);
        prop_assert!(
            prom.contains("serve_ingest_bins_total{tenant=\"obs\"} 12"),
            "{}", prom
        );
        prop_assert!(
            prom.contains(&format!(
                "serve_poll_windows_total{{tenant=\"obs\"}} {}",
                inst_events.len()
            )),
            "{}", prom
        );
    }
}
