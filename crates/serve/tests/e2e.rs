//! End-to-end tests over real TCP sockets: an in-process [`Server`] on an
//! ephemeral localhost port, driven by [`Client`]. The wire adds no
//! numeric surface, so everything asserted bit-identical in
//! `tests/service.rs` must survive the socket round-trip too — including
//! a snapshot carried across a full server restart.

use ic_core::{generate_synthetic, SynthConfig, TmSeries};
use ic_engine::Engine;
use ic_estimation::{EstimationPipeline, ObservationModel};
use ic_serve::{Client, Server, Service, TenantSpec};
use ic_stream::{replay_estimation, ReplayStream, WindowReport};
use ic_topology::{RoutingScheme, Topology};
use std::time::{Duration, Instant};

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
fn two_tenants_over_tcp_match_offline_replay() {
    let handle = Server::bind("127.0.0.1:0", Service::new()).unwrap();
    let addr = handle.addr();
    let tenants = [
        (spec_for("tcp-west", 4), series_for(41, 4, 8)),
        (spec_for("tcp-east", 5), series_for(42, 5, 8)),
    ];

    // A second connection subscribes and must receive the pushed events.
    let subscriber = Client::connect(addr).unwrap();
    let mut subscription = subscriber.subscribe().unwrap();

    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.hello().unwrap(), 0);
    let ids: Vec<_> = tenants
        .iter()
        .map(|(spec, _)| client.register(spec.clone()).unwrap())
        .collect();
    assert_eq!(client.hello().unwrap(), 2);

    for t in 0..8 {
        for (id, (_, series)) in ids.iter().zip(&tenants) {
            client.ingest(*id, series.column(t)).unwrap();
        }
    }
    let events = client.poll().unwrap();
    assert_eq!(events.len(), 4); // 2 tenants × 2 windows

    for (id, (spec, series)) in ids.iter().zip(&tenants) {
        let got: Vec<WindowReport> = events
            .iter()
            .filter(|ev| ev.tenant == *id)
            .map(|ev| ev.report.clone())
            .collect();
        assert_eq!(got, offline_windows(spec, series), "tenant {}", spec.name);

        // Per-tenant accessors over the wire.
        let report = client.report(*id).unwrap().unwrap();
        assert_eq!(&report, got.last().unwrap());
        let frame = client.estimate(*id).unwrap().unwrap();
        assert_eq!(frame.nodes as usize, spec.nodes());
        assert_eq!(frame.bins as usize, WINDOW_BINS);
        assert_eq!(
            frame.error.to_bits(),
            got.last().unwrap().error_candidate.to_bits()
        );
        frame.to_series().unwrap();
        assert!(client.forecast(*id).unwrap().is_some());
    }

    // The subscriber saw the same events, pushed.
    let pushed = subscription
        .next_events(Duration::from_secs(10))
        .unwrap()
        .expect("subscription closed early");
    assert_eq!(pushed, events);

    // Server-side errors surface as Remote, connection stays usable.
    let err = client.ingest(99, vec![0.0]).unwrap_err();
    assert!(matches!(err, ic_serve::ServeError::Remote(_)), "{err}");
    assert_eq!(client.hello().unwrap(), 2);

    client.shutdown().unwrap();
    let service = handle.join();
    assert_eq!(service.tenant_count(), 2);
}

/// Sequential round trips are paced by the work, not the socket: a frame
/// written in two pieces on a Nagle socket waits for the peer's delayed
/// ACK on every round trip.
#[test]
fn sequential_ingest_round_trips_do_not_stall() {
    const ROUND_TRIPS: usize = 200;
    let handle = Server::bind("127.0.0.1:0", Service::new()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    // 50 nodes: a 2,500-entry column. No window fills, so no poll work.
    let spec = spec_for("tcp-pace", 50).with_window_bins(2 * ROUND_TRIPS);
    let id = client.register(spec).unwrap();
    let series = series_for(44, 50, 1);
    let column = series.column(0);
    assert_eq!(column.len(), 2500);

    let start = Instant::now();
    for k in 0..ROUND_TRIPS {
        assert_eq!(client.ingest(id, column.clone()).unwrap(), 0, "ingest {k}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "{ROUND_TRIPS} ingest round trips took {elapsed:?}"
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn snapshot_survives_a_full_server_restart_bit_identically() {
    let spec = spec_for("tcp-resume", 5);
    let series = series_for(43, 5, 16);
    let offline = offline_windows(&spec, &series);
    assert_eq!(offline.len(), 4);

    // First server: half the trace (plus two buffered bins), snapshot.
    let first = Server::bind("127.0.0.1:0", Service::new()).unwrap();
    let mut client = Client::connect_with_retry(first.addr(), Duration::from_secs(5)).unwrap();
    let id = client.register(spec.clone()).unwrap();
    let mut reports = Vec::new();
    for t in 0..10 {
        client.ingest(id, series.column(t)).unwrap();
    }
    reports.extend(client.poll().unwrap().into_iter().map(|ev| ev.report));
    let snapshot = client.snapshot(id).unwrap();
    client.shutdown().unwrap();
    drop(client);
    first.join();

    // Second server, different engine: restore and finish the trace.
    let second = Server::bind(
        "127.0.0.1:0",
        Service::with_engine(Engine::new().with_threads(2)),
    )
    .unwrap();
    let mut client = Client::connect_with_retry(second.addr(), Duration::from_secs(5)).unwrap();
    let id = client.restore(&snapshot).unwrap();
    for t in 10..16 {
        client.ingest(id, series.column(t)).unwrap();
    }
    reports.extend(client.poll().unwrap().into_iter().map(|ev| ev.report));
    client.shutdown().unwrap();
    second.join();

    // The stitched run over two server lifetimes equals the
    // uninterrupted offline replay, bit for bit.
    assert_eq!(reports, offline);
}
