//! `flat-300`: offline flat estimation on a 300-node hierarchical network,
//! sized past the dense/PCG crossover of `SolverPolicy::Auto` so every
//! solve is matrix-free PCG.
//!
//! The truth is IC synthetic traffic with independent per-entry noise; the
//! prior is `StableFpPrior` with the generator's own `f` and preference,
//! i.e. an exactly calibrated IC prior. (Fitting it with `fit_stable_fp`
//! on a calibration window, the paper's §5 procedure, takes about a minute
//! at 300 nodes on the reference machine, more than a run can spend.)
//! Windows of two bins are estimated with `estimate_parallel_pooled` on a
//! 2-thread engine, one bin per worker.

use crate::layers::{probe_operator, solver_counts};
use crate::report::Outcome;
use crate::stats::{Failures, Samples};
use crate::sysinfo::{peak_rss_mb, triad};
use crate::trace::Tracer;
use crate::{median_of, RunConfig, THREADS};
use ic_core::{generate_synthetic, mean_rel_l2, SynthConfig, TmSeries};
use ic_engine::{Engine, WorkspacePool};
use ic_estimation::{
    EstimationPipeline, ObservationModel, Observations, PipelineWorkspace, SolveStats,
    StableFpPrior,
};
use ic_topology::{hierarchical, HierarchicalConfig, RoutingScheme, Topology};
use std::time::Instant;

pub const NAME: &str = "flat-300";

const BACKBONES: usize = 30;
const POPS_PER_BACKBONE: usize = 9;
/// Coefficient of variation of the per-entry noise on the IC truth.
const NOISE_CV: f64 = 0.3;
/// Spread of the synthetic preferences and node sizes. `geant_like`'s
/// heavier tails suit 22 nodes; at 300 a handful of flows would dominate
/// the relative error and make it swing from seed to seed.
pub const PREFERENCE_SIGMA: f64 = 0.6;
pub const ACTIVITY_ALPHA: f64 = 3.0;
/// Bins per estimate call: one per engine worker.
const WINDOW_BINS: usize = 2;
/// Distinct windows; every run estimates all of them at least once. The
/// machine's speed drifts between runs by more than a single call shows,
/// so a run measures several.
const WINDOWS: usize = 4;
/// Accuracy contract: mean relative L2 error of the estimate against the
/// synthetic truth must stay below this.
pub const REL_ERR_CEILING: f64 = 0.6;

struct Inputs {
    topo: Topology,
    pipeline: EstimationPipeline,
    prior: StableFpPrior,
    truth: Vec<TmSeries>,
    obs: Vec<Observations>,
}

fn setup(seed: u64, tracer: &mut Tracer) -> Result<Inputs, String> {
    let topo = tracer
        .span("topology.generate", |_| {
            hierarchical(&HierarchicalConfig::new(BACKBONES, POPS_PER_BACKBONE, seed))
        })
        .map_err(|e| format!("topology: {e}"))?;
    let model = ObservationModel::new(&topo, RoutingScheme::Ecmp)
        .map_err(|e| format!("observation model: {e}"))?;
    let synth = generate_synthetic(
        &SynthConfig::geant_like(seed)
            .with_nodes(topo.node_count())
            .with_bins(WINDOWS * WINDOW_BINS)
            .with_preference_sigma(PREFERENCE_SIGMA)
            .with_activity_alpha(ACTIVITY_ALPHA),
    )
    .map_err(|e| format!("synthetic traffic: {e}"))?;
    let mut series = synth.series;
    crate::gen::perturb(&mut series, NOISE_CV, seed ^ 0xF1A7);
    let mut truth = Vec::with_capacity(WINDOWS);
    let mut obs = Vec::with_capacity(WINDOWS);
    for w in 0..WINDOWS {
        let t = series
            .slice_bins(w * WINDOW_BINS, WINDOW_BINS)
            .map_err(|e| e.to_string())?;
        obs.push(model.observe(&t).map_err(|e| format!("observe: {e}"))?);
        truth.push(t);
    }
    Ok(Inputs {
        topo,
        pipeline: EstimationPipeline::new(model),
        prior: StableFpPrior {
            f: synth.params.f,
            preference: synth.params.preference,
        },
        truth,
        obs,
    })
}

/// The timed phase: windows back to back until `seconds` have passed and
/// every window has been estimated once.
struct Timed {
    latencies: Samples,
    bins: usize,
    wall: f64,
    first_cycle: Vec<TmSeries>,
    failures: Failures,
    stats: SolveStats,
}

fn timed(inputs: &Inputs, seconds: f64, tracer: &mut Tracer) -> Timed {
    let engine = Engine::new().with_threads(THREADS);
    let pool: WorkspacePool<PipelineWorkspace> = WorkspacePool::new();
    let mut out = Timed {
        latencies: Samples::new(),
        bins: 0,
        wall: 0.0,
        first_cycle: Vec::new(),
        failures: Failures::default(),
        stats: SolveStats::default(),
    };
    let start = Instant::now();
    let mut k = 0;
    // No call starts that the last call's duration says would overrun.
    while k < WINDOWS || start.elapsed().as_secs_f64() + out.latencies.max() < seconds {
        let w = k % WINDOWS;
        tracer.set_run(k as u64);
        let t0 = Instant::now();
        let result = tracer.span("estimation.estimate", |_| {
            inputs
                .pipeline
                .estimate_parallel_pooled(&inputs.prior, &inputs.obs[w], &engine, &pool)
        });
        out.latencies.push(t0.elapsed().as_secs_f64());
        out.failures.operation(result.is_ok());
        if let Ok(est) = result {
            out.failures
                .output(est.as_matrix().as_slice().iter().copied());
            out.bins += est.bins();
            if k < WINDOWS {
                out.first_cycle.push(est);
            }
        }
        k += 1;
    }
    out.wall = out.latencies.sum();
    out.stats = pool.fold_idle(SolveStats::default(), |mut acc, ws| {
        acc.merge(&ws.solve_stats());
        acc
    });
    out
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, setup_secs, setup_tracer) = cfg.set_up(
        |tracer| setup(cfg.seed, tracer),
        |old| {
            drop(old);
            Ok(())
        },
    )?;

    let mut untraced = Tracer::new(false, cfg.origin);
    let run = timed(&inputs, cfg.seconds, &mut untraced);
    let peak = peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
    // From the fastest call: other tenants of the machine slow calls down
    // in bursts, and the fastest call is the one least disturbed.
    let bins_per_s = WINDOW_BINS as f64 / run.latencies.min();
    let mut rel = Samples::new();
    for (truth, est) in inputs.truth.iter().zip(&run.first_cycle) {
        rel.push(mean_rel_l2(truth, est).unwrap_or(f64::NAN));
    }
    let rel_err = rel.mean();

    out.e2e("setup_s", median_of(&setup_secs), "s");
    out.e2e("bins_per_s", bins_per_s, "bins/s");
    out.e2e("rel_err", rel_err, "1");
    out.e2e("peak_rss_mb", peak, "MB");
    out.only("window_latency_p50_s", run.latencies.percentile(0.5), "s");
    out.only("window_latency_p90_s", run.latencies.percentile(0.9), "s");
    out.note(run.latencies.describe(
        "window_latency_s (one estimate call of 2 bins)",
        &[0.5, 0.9],
    ));
    out.note(format!(
        "setup_s per repetition: {setup_secs:?}; {} bins in {:.3} s",
        run.bins, run.wall
    ));
    out.failures = run.failures;
    out.only("failed_fraction", run.failures.fraction(), "1");

    // Correctness, outside the timed region.
    let t0 = Instant::now();
    let serial = inputs.pipeline.estimate_parallel_pooled(
        &inputs.prior,
        &inputs.obs[0],
        &Engine::serial(),
        &WorkspacePool::new(),
    );
    let serial_secs = t0.elapsed().as_secs_f64();
    let identical = match (&serial, run.first_cycle.first()) {
        (Ok(s), Some(p)) => {
            let (a, b) = (s.as_matrix().as_slice(), p.as_matrix().as_slice());
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => false,
    };
    out.check(
        "flat-300: 2-thread estimate bit-identical to Engine::serial()",
        identical,
        format!("window 0, {WINDOW_BINS} bins"),
    );
    out.check(
        "flat-300: every estimate call succeeded with finite output",
        run.failures.failed() == 0,
        format!("{:?}", run.failures),
    );
    out.check(
        "flat-300: rel_err within its ceiling",
        rel_err.is_finite() && rel_err <= REL_ERR_CEILING,
        format!("rel_err {rel_err:.6} vs ceiling {REL_ERR_CEILING}"),
    );

    if cfg.traced {
        let mut tracer = Tracer::new(true, cfg.origin);
        let traced = timed(&inputs, cfg.seconds, &mut tracer);
        let traced_rate = WINDOW_BINS as f64 / traced.latencies.min();
        out.layer(
            "bench.trace_overhead_fraction",
            bins_per_s / traced_rate - 1.0,
            "1",
        );
        out.note(format!(
            "tracing overhead: bins_per_s {bins_per_s:.6} untraced vs {traced_rate:.6} traced"
        ));
        solver_counts(&run.stats, &mut out);
        out.note(format!(
            "linalg: {} bins estimated, solver counters of the timed phase: {:?}",
            run.bins, run.stats
        ));
        out.layer(
            "topology.generate_s",
            setup_tracer.durations("topology.generate").sum(),
            "s",
        );
        out.layer(
            "engine.parallel_efficiency",
            serial_secs / (THREADS as f64 * run.latencies.first()),
            "1",
        );
        let bandwidth = triad();
        probe_operator(
            &mut tracer,
            &inputs.topo,
            RoutingScheme::Ecmp,
            &inputs.truth[0],
            &inputs.prior,
            &bandwidth,
            &mut out,
        )?;
        out.spans(&tracer);
    }
    Ok(out)
}
