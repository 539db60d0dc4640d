//! `serve-mixed`: four tenants served over TCP by the shipped
//! `tm-ic-serve` binary, with ingest (writes) beside polls and metrics
//! scrapes (reads) on the one service lock.
//!
//! The server runs as a child process (`serve --threads 2`, metrics on, as
//! the binary always sets them). Tenants `geant22`, `totem23` and two
//! 50-node hierarchical networks register over the wire with ECMP and the
//! default `TenantSpec` except for short tumbling windows; their streams
//! are `SynthConfig::geant_like` with independent per-entry noise, so the
//! IC prior is not trivially exact. Tenant `k` is pre-fed one window plus
//! `k` bins and polled once, so the timed windows are warm and their
//! boundaries fall in different rounds; the second 50-node tenant switches
//! to a new `f` and seed halfway through the paced phase, so its warm start
//! misses and drift detection fires.
//!
//! Connection A runs rounds — one `Ingest` per tenant, then `Poll` — first
//! open-loop at a fixed rate (each request timed from its due time), then
//! a fixed number of rounds closed-loop, back to back. Connection B, on a
//! second thread, sends `Stats{Json}` scrapes on an open-loop schedule.
//!
//! Phases are sized in rounds, not seconds: every request over the wire
//! costs 40 to 90 ms on the reference machine (the protocol writes each
//! frame's header and payload separately, and delayed acknowledgements
//! hold the payload back), so a round of five requests takes 0.2 to
//! 0.45 s. Windows are 6 bins instead of a day's 24 so that a run sees
//! several of them.

use crate::layers::{probe_operator, solver_counts};
use crate::report::Outcome;
use crate::stats::{run_open_loop, Failures, Samples, WallClock};
use crate::sysinfo::{peak_rss_mb, triad};
use crate::trace::Tracer;
use crate::{median_of, RunConfig, THREADS};
use ic_core::{fit_stable_fp, generate_synthetic, SynthConfig, TmSeries};
use ic_engine::Engine;
use ic_estimation::{
    EstimationPipeline, GravityPrior, ObservationModel, PipelineWorkspace, SolveStats,
};
use ic_serve::codec::Enc;
use ic_serve::wire::encode_window_report;
use ic_serve::{
    Client, Request, Response, Service, StatsFormat, TenantEvent, TenantId, TenantSpec,
};
use ic_stream::{
    replay_estimation, OnlineEstimator, ReplayStream, StreamingTomogravity, Window, WindowReport,
};
use ic_topology::{geant22, hierarchical, totem23, HierarchicalConfig, RoutingScheme, Topology};
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub const NAME: &str = "serve-mixed";

const WINDOW_BINS: usize = 6;
/// Open-loop rounds per second on connection A in the paced phase, well
/// below what a round's five round trips allow.
const ROUND_RATE: f64 = 1.2;
/// Rounds of the paced phase and of the closed-loop phase. Each is two
/// windows, so every tenant completes two windows in each.
const PACED_ROUNDS: usize = 2 * WINDOW_BINS;
const CLOSED_ROUNDS: usize = 2 * WINDOW_BINS;
/// Open-loop `Stats` scrapes on connection B per pass, and their rate.
const SCRAPES: usize = 100;
const SCRAPE_RATE: f64 = 9.0;
/// Coefficient of variation of the per-entry noise on the streams.
const NOISE_CV: f64 = 0.3;
/// The tenant whose traffic changes regime halfway through the paced
/// phase.
const REGIME_TENANT: usize = 3;
/// The tenant the offline per-layer probes run on: the first 50-node one.
const PROBE_TENANT: usize = 2;
/// Round trips timed against the idle server (traced runs).
const IDLE_PROBES: usize = 50;
/// Windows the offline per-layer probes of the stream and core layers
/// process.
const PROBE_WINDOWS: usize = 8;
/// Accuracy contract: mean `error_candidate` over the reports.
pub const REL_ERR_CEILING: f64 = 0.5;

struct TenantInput {
    spec: TenantSpec,
    topology: Topology,
    series: TmSeries,
    prefeed: usize,
}

fn synth(nodes: usize, bins: usize, seed: u64, f: f64) -> Result<TmSeries, String> {
    Ok(generate_synthetic(
        &SynthConfig::geant_like(seed)
            .with_nodes(nodes)
            .with_bins(bins)
            .with_f(f)
            .with_preference_sigma(crate::flat::PREFERENCE_SIGMA)
            .with_activity_alpha(crate::flat::ACTIVITY_ALPHA),
    )
    .map_err(|e| format!("synthetic traffic: {e}"))?
    .series)
}

/// The four tenants with `rounds` bins each beyond their pre-feed; the
/// regime tenant switches at round `switch_round`. Tenant `k` is pre-fed
/// `WINDOW_BINS + k` bins.
fn tenants(
    seed: u64,
    rounds: usize,
    switch_round: usize,
    tracer: &mut Tracer,
) -> Result<Vec<TenantInput>, String> {
    let topologies = tracer
        .span("topology.generate", |_| {
            Ok::<_, ic_topology::TopologyError>(vec![
                ("geant22", geant22()),
                ("totem23", totem23()),
                (
                    "hier-a",
                    hierarchical(&HierarchicalConfig::new(5, 9, seed ^ 0xA))?,
                ),
                (
                    "hier-b",
                    hierarchical(&HierarchicalConfig::new(5, 9, seed ^ 0xB))?,
                ),
            ])
        })
        .map_err(|e| format!("topology: {e}"))?;
    let mut out = Vec::with_capacity(topologies.len());
    for (k, (name, topology)) in topologies.into_iter().enumerate() {
        let n = topology.node_count();
        let prefeed = WINDOW_BINS + k;
        let bins = prefeed + rounds;
        let tenant_seed = crate::gen::splitmix(seed ^ (k as u64 + 1));
        let mut series = synth(n, bins, tenant_seed, 0.25)?;
        let switch = prefeed + switch_round;
        if k == REGIME_TENANT && switch < bins {
            let after = synth(n, bins - switch, crate::gen::splitmix(tenant_seed), 0.6)?;
            for t in switch..bins {
                for i in 0..n {
                    for j in 0..n {
                        let v = after.get(i, j, t - switch).map_err(|e| e.to_string())?;
                        series.set(i, j, t, v).map_err(|e| e.to_string())?;
                    }
                }
            }
        }
        crate::gen::perturb(&mut series, NOISE_CV, tenant_seed ^ 0x5E);
        out.push(TenantInput {
            spec: TenantSpec::new(name, &topology, RoutingScheme::Ecmp)
                .with_window_bins(WINDOW_BINS),
            topology,
            series,
            prefeed,
        });
    }
    Ok(out)
}

/// The `tm-ic-serve` child process; killed and reaped if still running
/// when dropped.
struct ServerProcess {
    child: Child,
    /// Kept open so the server's final `shut down` line has a reader.
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServerProcess {
    fn start() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let bin = exe.with_file_name("tm-ic-serve");
        let threads = THREADS.to_string();
        let mut child = Command::new(&bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", &threads])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let Some(addr) = line
            .trim()
            .strip_prefix("listening on ")
            .map(str::to_string)
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not start: {read:?} {line:?}"));
        };
        Ok(ServerProcess {
            child,
            stdout,
            addr,
        })
    }

    /// Waits for the process to exit after a `Shutdown` request.
    fn wait(mut self) -> Result<(), String> {
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A running server with its tenants registered and pre-fed.
struct Session {
    server: ServerProcess,
    a: Client,
    b: Client,
    ids: Vec<TenantId>,
    inputs: Vec<TenantInput>,
    /// Rounds fed so far beyond the pre-feed.
    round: usize,
    /// Reports of the set-up poll.
    warmup: Vec<TenantEvent>,
}

fn setup(
    seed: u64,
    rounds: usize,
    switch_round: usize,
    tracer: &mut Tracer,
) -> Result<Session, String> {
    let inputs = tenants(seed, rounds, switch_round, tracer)?;
    let server = ServerProcess::start()?;
    let remote = |e: ic_serve::ServeError| e.to_string();
    let mut a = Client::connect_with_retry(server.addr.as_str(), Duration::from_secs(10))
        .map_err(remote)?;
    a.hello().map_err(remote)?;
    let b = Client::connect(server.addr.as_str()).map_err(remote)?;
    let mut ids = Vec::with_capacity(inputs.len());
    for input in &inputs {
        ids.push(a.register(input.spec.clone()).map_err(remote)?);
    }
    for (input, &id) in inputs.iter().zip(&ids) {
        for t in 0..input.prefeed {
            a.ingest(id, input.series.column(t)).map_err(remote)?;
        }
    }
    let warmup = a.poll().map_err(remote)?;
    Ok(Session {
        server,
        a,
        b,
        ids,
        inputs,
        round: 0,
        warmup,
    })
}

/// What one pass (paced phase, then closed-loop phase) measured.
#[derive(Default)]
struct Pass {
    ingest_latency: Samples,
    window_latency: Samples,
    poll_rtt_windows: Samples,
    generator_lateness: Samples,
    scrape_latency: Samples,
    closed_bins: usize,
    closed_wall: f64,
    events: Vec<TenantEvent>,
    failures: Failures,
    requests: u64,
    events_frame_bytes: Samples,
}

/// One tenant's bin of round `round`; `false` on an error response.
fn ingest(a: &mut Client, input: &TenantInput, id: TenantId, round: usize) -> bool {
    a.ingest(id, input.series.column(input.prefeed + round))
        .is_ok()
}

/// A paced phase, then a closed-loop phase, on connection A, with the
/// scrape schedule running on connection B.
fn pass(s: &mut Session, tracer: &mut Tracer) -> Pass {
    let tenants = s.inputs.len();
    let slots = tenants + 1;
    let period = 1.0 / ROUND_RATE;
    let window_limit = WINDOW_BINS as f64 * period;
    let origin = Instant::now();
    let dues: Vec<f64> = (0..PACED_ROUNDS * slots)
        .map(|k| (k / slots) as f64 * period + (k % slots) as f64 * period / slots as f64)
        .collect();
    let scrape_dues: Vec<f64> = (0..SCRAPES).map(|k| k as f64 / SCRAPE_RATE).collect();
    let mut out = Pass::default();
    let mut ok = vec![true; dues.len()];
    let mut polled: Vec<(usize, Vec<TenantEvent>)> = Vec::new();
    let mut scrape_ok = vec![true; scrape_dues.len()];
    let round0 = s.round;
    let Session {
        a, b, ids, inputs, ..
    } = s;
    let mut closed_events = Vec::new();
    let (timings, scrapes) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| {
            run_open_loop(&mut WallClock::new(origin), &scrape_dues, |k, _| {
                scrape_ok[k] = b.stats(StatsFormat::Json).is_ok();
            })
        });
        let timings = run_open_loop(&mut WallClock::new(origin), &dues, |k, _| {
            let (round, slot) = (k / slots, k % slots);
            if slot < tenants {
                ok[k] = ingest(a, &inputs[slot], ids[slot], round0 + round);
            } else {
                match a.poll() {
                    Ok(events) => polled.push((k, events)),
                    Err(_) => ok[k] = false,
                }
            }
        });
        // Closed loop: rounds back to back.
        let closed_start = Instant::now();
        for closed_round in 0..CLOSED_ROUNDS {
            let round = round0 + PACED_ROUNDS + closed_round;
            for tenant in 0..tenants {
                let sent = origin.elapsed().as_secs_f64();
                let fine = ingest(a, &inputs[tenant], ids[tenant], round);
                tracer.record(
                    "serve.ingest",
                    sent,
                    origin.elapsed().as_secs_f64(),
                    round as u64,
                );
                out.failures.operation(fine);
                out.requests += 1;
            }
            let sent = origin.elapsed().as_secs_f64();
            let result = a.poll();
            tracer.record(
                "serve.poll",
                sent,
                origin.elapsed().as_secs_f64(),
                round as u64,
            );
            out.failures.operation(result.is_ok());
            out.requests += 1;
            if let Ok(events) = result {
                out.closed_bins += events.iter().map(|e| e.report.bins).sum::<usize>();
                closed_events.extend(events);
            }
        }
        out.closed_wall = closed_start.elapsed().as_secs_f64();
        (timings, scraper.join().expect("scrape thread panicked"))
    });
    s.round += PACED_ROUNDS + CLOSED_ROUNDS;

    for (k, t) in timings.iter().enumerate() {
        let (round, slot) = (k / slots, k % slots);
        let name = if slot < tenants {
            "serve.ingest"
        } else {
            "serve.poll"
        };
        tracer.record(name, t.sent, t.done, (round0 + round) as u64);
        out.failures.operation(ok[k]);
        out.requests += 1;
        out.generator_lateness.push(t.generator_lateness());
        if slot < tenants {
            out.ingest_latency.push(t.latency());
        }
    }
    for (k, events) in polled {
        if !events.is_empty() {
            out.poll_rtt_windows.push(timings[k].rtt());
            out.events_frame_bytes
                .push(Response::Events(events.clone()).encode().len() as f64);
        }
        let done = timings[k].done;
        for ev in &events {
            // The window's last bin was ingested in this round.
            let due = dues[k + 1 - slots + ev.tenant as usize];
            let latency = done - due;
            out.window_latency.push(latency);
            out.failures.window(latency, window_limit);
        }
        out.events.extend(events);
    }
    out.events.extend(closed_events);
    for (t, fine) in scrapes.iter().zip(&scrape_ok) {
        tracer.record("serve.stats", t.sent, t.done, 0);
        out.scrape_latency.push(t.latency());
        out.generator_lateness.push(t.generator_lateness());
        out.failures.operation(*fine);
        out.requests += 1;
    }
    for ev in &out.events {
        let r = &ev.report;
        out.failures
            .output([r.error_candidate, r.error_gravity, r.fitted_f]);
    }
    out
}

/// Bit-exact fingerprint of a report (the wire encoding).
fn report_bits(report: &WindowReport) -> Vec<u8> {
    let mut e = Enc::new();
    encode_window_report(&mut e, report);
    e.into_bytes()
}

/// Offline `replay_estimation` over the bins a tenant was fed, configured
/// as the service configures the tenant (what `tm-ic-serve smoke` checks).
fn offline_reports(input: &TenantInput, bins: usize) -> Result<Vec<WindowReport>, String> {
    let model =
        ObservationModel::new(&input.topology, input.spec.routing).map_err(|e| e.to_string())?;
    let pipeline = EstimationPipeline::new(model).config(input.spec.estimation_config());
    let mut stream = ReplayStream::new(
        input
            .series
            .slice_bins(0, bins)
            .map_err(|e| e.to_string())?,
    );
    replay_estimation(&mut stream, pipeline, &input.spec.replay_options())
        .map(|r| r.windows)
        .map_err(|e| e.to_string())
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let passes = if cfg.traced { 2 } else { 1 };
    let rounds = passes * (PACED_ROUNDS + CLOSED_ROUNDS);
    let switch_round = PACED_ROUNDS / 2;

    let (mut s, setup_secs, setup_tracer) = cfg.set_up(
        |tracer| setup(cfg.seed, rounds, switch_round, tracer),
        shutdown,
    )?;

    let run = pass(&mut s, &mut Tracer::new(false, cfg.origin));
    let bins_per_s = run.closed_bins as f64 / run.closed_wall;
    let mut candidate_err = Samples::new();
    for ev in &run.events {
        candidate_err.push(ev.report.error_candidate);
    }
    let rel_err = candidate_err.mean();
    out.e2e("setup_s", median_of(&setup_secs), "s");
    out.e2e("bins_per_s", bins_per_s, "bins/s");
    out.e2e("rel_err", rel_err, "1");
    out.only(
        "window_latency_p50_s",
        run.window_latency.percentile(0.5),
        "s",
    );
    out.only(
        "window_latency_p90_s",
        run.window_latency.percentile(0.9),
        "s",
    );
    out.only(
        "ingest_latency_p50_s",
        run.ingest_latency.percentile(0.5),
        "s",
    );
    out.only(
        "ingest_latency_p99_s",
        run.ingest_latency.percentile(0.99),
        "s",
    );
    out.only(
        "scrape_latency_p50_s",
        run.scrape_latency.percentile(0.5),
        "s",
    );
    out.only(
        "scrape_latency_p90_s",
        run.scrape_latency.percentile(0.9),
        "s",
    );
    out.only("failed_fraction", run.failures.fraction(), "1");
    out.note(
        run.window_latency
            .describe("window_latency_s (paced)", &[0.5, 0.9]),
    );
    out.note(
        run.ingest_latency
            .describe("ingest_latency_s (paced)", &[0.5, 0.99]),
    );
    out.note(run.scrape_latency.describe("scrape_latency_s", &[0.5, 0.9]));
    out.note(
        run.generator_lateness
            .describe("generator_lateness_s", &[0.5, 0.99]),
    );
    out.note(format!(
        "setup_s per repetition: {setup_secs:?}; paced {PACED_ROUNDS} rounds at {ROUND_RATE}/s, \
         {CLOSED_ROUNDS} closed-loop rounds delivered {} tenant-bins in {:.3} s, {} reports",
        run.closed_bins,
        run.closed_wall,
        run.events.len()
    ));
    out.failures = run.failures;

    let mut all_events = std::mem::take(&mut s.warmup);
    all_events.extend(run.events.iter().cloned());
    let mut traced_pass = None;
    if cfg.traced {
        let mut tracer = Tracer::new(true, cfg.origin);
        let traced = pass(&mut s, &mut tracer);
        all_events.extend(traced.events.iter().cloned());
        traced_pass = Some((traced, tracer));
    }
    let peak = peak_rss_mb(s.server.child.id()).unwrap_or(f64::NAN);
    out.e2e("peak_rss_mb", peak, "MB");

    let mut idle = None;
    if cfg.traced {
        idle = Some(idle_round_trips(&mut s)?);
    }
    let fed: Vec<usize> = s.inputs.iter().map(|i| i.prefeed + s.round).collect();
    let inputs = std::mem::take(&mut s.inputs);
    shutdown(s)?;

    // Correctness, outside the timed region.
    let mut regime_alerts = 0;
    for (k, input) in inputs.iter().enumerate() {
        let got: Vec<&WindowReport> = all_events
            .iter()
            .filter(|ev| ev.tenant as usize == k)
            .map(|ev| &ev.report)
            .collect();
        let want = offline_reports(input, fed[k])?;
        let mismatch = got
            .iter()
            .zip(&want)
            .find(|(g, w)| report_bits(g) != report_bits(w));
        let mut detail = format!("{} reports served, {} offline", got.len(), want.len());
        if let Some((g, w)) = mismatch {
            detail.push_str(&format!("; first difference: served {g:?} offline {w:?}"));
        }
        out.check(
            &format!(
                "serve-mixed: {} reports bit-identical to offline replay_estimation",
                input.spec.name
            ),
            got.len() == want.len() && mismatch.is_none(),
            detail,
        );
        if k == REGIME_TENANT {
            let switch = input.prefeed + switch_round;
            regime_alerts = got
                .iter()
                .filter(|r| r.start_bin + r.bins > switch && !r.drift_events.is_empty())
                .count();
        }
    }
    out.check(
        "serve-mixed: the regime-change tenant raised a drift alert",
        regime_alerts > 0,
        format!("{regime_alerts} alerting windows after the switch"),
    );
    out.check(
        "serve-mixed: no failed operation (errors, non-finite reports, late windows)",
        run.failures.failed() == 0,
        format!("{:?}", run.failures),
    );
    out.check(
        "serve-mixed: rel_err within its ceiling",
        rel_err.is_finite() && rel_err <= REL_ERR_CEILING,
        format!("rel_err {rel_err:.6} vs ceiling {REL_ERR_CEILING}"),
    );

    if let (Some((traced, mut tracer)), Some(idle)) = (traced_pass, idle) {
        let traced_rate = traced.closed_bins as f64 / traced.closed_wall;
        out.layer(
            "bench.trace_overhead_fraction",
            bins_per_s / traced_rate - 1.0,
            "1",
        );
        out.note(format!(
            "tracing overhead: bins_per_s {bins_per_s:.6} untraced vs {traced_rate:.6} traced"
        ));
        let mut stats = SolveStats::default();
        let mut drift_alerts = 0;
        for ev in &all_events {
            stats.merge(&ev.report.solve_stats);
            drift_alerts += ev.report.drift_events.len();
        }
        solver_counts(&stats, &mut out);
        out.note(format!(
            "linalg: solver counters over every report: {stats:?}"
        ));
        out.layer(
            "topology.generate_s",
            setup_tracer.durations("topology.generate").sum(),
            "s",
        );
        let mut requests = run.requests + traced.requests;
        requests += 2 * IDLE_PROBES as u64;
        out.only("serve.requests", requests as f64, "count");
        out.only(
            "serve.requests_failed",
            (run.failures.errors + traced.failures.errors) as f64,
            "count",
        );
        out.only("serve.ingest_rtt_p50_s", idle.ingest.median(), "s");
        out.only("serve.stats_rtt_idle_p50_s", idle.stats.median(), "s");
        out.only(
            "serve.poll_rtt_p50_s",
            traced.poll_rtt_windows.percentile(0.5),
            "s",
        );
        out.only(
            "serve.poll_rtt_p90_s",
            traced.poll_rtt_windows.percentile(0.9),
            "s",
        );
        out.only(
            "serve.scrape_wait_p90_s",
            traced.scrape_latency.percentile(0.9) - idle.stats.median(),
            "s",
        );
        out.only("serve.ingest_frame_bytes", idle.ingest_frame_bytes, "B");
        out.only(
            "serve.events_frame_bytes",
            traced.events_frame_bytes.median(),
            "B",
        );
        out.only(
            "serve.generator_lateness_p99_s",
            traced.generator_lateness.percentile(0.99),
            "s",
        );
        out.only("stream.drift_alerts", drift_alerts as f64, "count");
        out.note(
            traced
                .poll_rtt_windows
                .describe("serve.poll_rtt_s (rounds completing a window)", &[0.5, 0.9]),
        );
        out.note(
            idle.ingest
                .describe("serve.ingest_rtt_s (idle server)", &[0.5]),
        );
        out.note(
            idle.stats
                .describe("serve.stats_rtt_s (idle server)", &[0.5]),
        );
        let probe = &inputs[PROBE_TENANT];
        offline_layers(probe, &mut tracer, &mut out)?;
        engine_efficiency(&inputs, &mut tracer, &mut out)?;
        let bandwidth = triad();
        let window = probe
            .series
            .slice_bins(0, WINDOW_BINS)
            .map_err(|e| e.to_string())?;
        probe_operator(
            &mut tracer,
            &probe.topology,
            RoutingScheme::Ecmp,
            &window,
            &GravityPrior,
            &bandwidth,
            &mut out,
        )?;
        out.spans(&tracer);
    }
    Ok(out)
}

/// Closes connection B (its server worker blocks on it), asks the server
/// to shut down on connection A, and waits for the process to exit.
fn shutdown(s: Session) -> Result<(), String> {
    let Session {
        server, mut a, b, ..
    } = s;
    drop(b);
    a.shutdown().map_err(|e| e.to_string())?;
    drop(a);
    server.wait()
}

struct Idle {
    ingest: Samples,
    stats: Samples,
    ingest_frame_bytes: f64,
}

/// `Ingest` and `Stats` round trips against the idle server. The ingests
/// go to an extra tenant whose window never fills, so the served tenants'
/// streams are untouched.
fn idle_round_trips(s: &mut Session) -> Result<Idle, String> {
    let input = &s.inputs[PROBE_TENANT];
    let spec = TenantSpec {
        name: "idle-probe".into(),
        ..input.spec.clone().with_window_bins(1 << 20)
    };
    let id = s.a.register(spec).map_err(|e| e.to_string())?;
    let column = input.series.column(0);
    let ingest_frame_bytes = Request::Ingest {
        tenant: id,
        column: column.clone(),
    }
    .encode()
    .len() as f64;
    let mut out = Idle {
        ingest: Samples::new(),
        stats: Samples::new(),
        ingest_frame_bytes,
    };
    for _ in 0..IDLE_PROBES {
        let t0 = Instant::now();
        s.a.ingest(id, column.clone()).map_err(|e| e.to_string())?;
        out.ingest.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        s.a.stats(StatsFormat::Json).map_err(|e| e.to_string())?;
        out.stats.push(t0.elapsed().as_secs_f64());
    }
    Ok(out)
}

/// The stream and core layers called directly on the first windows of
/// one tenant: `StreamingTomogravity::process`, the gravity baseline
/// `estimate_with`, and the warm-started `fit_stable_fp`.
fn offline_layers(
    input: &TenantInput,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let model =
        ObservationModel::new(&input.topology, input.spec.routing).map_err(|e| e.to_string())?;
    let config = input.spec.estimation_config();
    let pipeline = EstimationPipeline::new(model).config(config.clone());
    let mut candidate = StreamingTomogravity::new(pipeline.clone()).config(config.clone());
    let mut ws = PipelineWorkspace::new();
    let mut previous = None;
    let mut sweeps = Samples::new();
    for w in 0..PROBE_WINDOWS {
        tracer.set_run(w as u64);
        let series = input
            .series
            .slice_bins(w * WINDOW_BINS, WINDOW_BINS)
            .map_err(|e| e.to_string())?;
        let window = Window {
            index: w,
            start_bin: w * WINDOW_BINS,
            series,
        };
        tracer
            .span("stream.process", |_| candidate.process(&window))
            .map_err(|e| format!("stream process: {e}"))?;
        tracer
            .span("stream.baseline", |t| {
                let obs = t.span("estimation.observe", |_| {
                    pipeline.model().observe(&window.series)
                })?;
                pipeline.estimate_with(&GravityPrior, &obs, &mut ws)
            })
            .map_err(|e| format!("baseline: {e}"))?;
        let options = match &previous {
            Some(prev) => config.fit.clone().with_initial(prev),
            None => config.fit.clone(),
        };
        let fit = tracer
            .span("core.fit", |_| fit_stable_fp(&window.series, options))
            .map_err(|e| format!("fit: {e}"))?;
        sweeps.push(fit.objective_history.len() as f64);
        previous = Some(fit);
    }
    let process = tracer.durations("stream.process");
    out.only("stream.process_p50_s", process.percentile(0.5), "s");
    out.only("stream.process_p90_s", process.percentile(0.9), "s");
    out.only(
        "stream.baseline_p50_s",
        tracer.durations("stream.baseline").median(),
        "s",
    );
    out.only("core.fit_p50_s", tracer.durations("core.fit").median(), "s");
    out.only("core.fit_sweeps_mean", sweeps.mean(), "count");
    out.only(
        "estimation.window_observe_s_per_bin",
        tracer.durations("estimation.observe").median() / WINDOW_BINS as f64,
        "s",
    );
    out.note(process.describe(
        &format!("stream.process_s ({}, per window)", input.spec.name),
        &[0.5, 0.9],
    ));
    Ok(())
}

/// In-process `Service::poll` over the same ready windows on a serial and
/// a 2-thread engine, plus `render_stats(Json)` on the metrics it leaves.
fn engine_efficiency(
    inputs: &[TenantInput],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut secs = Vec::new();
    let mut rendered = 0.0;
    for engine in [Engine::serial(), Engine::new().with_threads(THREADS)] {
        let mut service = Service::with_engine(engine);
        service.enable_metrics();
        for input in inputs {
            let id = service
                .register(input.spec.clone())
                .map_err(|e| e.to_string())?;
            for t in 0..2 * WINDOW_BINS {
                service
                    .ingest(id, input.series.column(t))
                    .map_err(|e| e.to_string())?;
            }
        }
        let t0 = Instant::now();
        service.poll().map_err(|e| e.to_string())?;
        secs.push(t0.elapsed().as_secs_f64());
        let json = tracer
            .span("obs.render_json", |_| {
                service.render_stats(StatsFormat::Json)
            })
            .map_err(|e| e.to_string())?;
        rendered = json.len() as f64;
    }
    out.layer(
        "engine.parallel_efficiency",
        secs[0] / (THREADS as f64 * secs[1]),
        "1",
    );
    out.only(
        "obs.render_json_s",
        tracer.durations("obs.render_json").median(),
        "s",
    );
    out.only("obs.render_json_bytes", rendered, "B");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_are_seeded_and_the_regime_tenant_switches() {
        let mut t = Tracer::new(false, Instant::now());
        let a = tenants(5, 40, 10, &mut t).unwrap();
        let b = tenants(5, 40, 10, &mut t).unwrap();
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.series.as_matrix(), y.series.as_matrix());
            assert_eq!(x.series.bins(), x.prefeed + 40);
        }
        // A switch past the last bin leaves the stream unswitched.
        let unswitched = tenants(5, 40, 40, &mut t).unwrap();
        let (regime, plain) = (&a[REGIME_TENANT], &unswitched[REGIME_TENANT]);
        let switch = regime.prefeed + 10;
        assert_eq!(
            regime.series.column(switch - 1),
            plain.series.column(switch - 1)
        );
        assert_ne!(regime.series.column(switch), plain.series.column(switch));
        assert_eq!(a[0].series.as_matrix(), unswitched[0].series.as_matrix());
    }
}
