//! `perfbench`: the repository benchmark described by `BENCHMARK.json`.
//!
//! ```text
//! perfbench --workload <serve-mixed|flat-300|multilevel-5k> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Normally started through `python3 perfbench/run.py`, which builds this
//! package and the `tm-ic-serve` server first. Each run generates its
//! inputs from the seed, measures for about `--seconds`, checks its outputs
//! outside the timed region, and prints human-readable lines followed by
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones (the traced run also repeats the timed phase untraced and
//! reports the tracing overhead). A failed check exits non-zero. A results
//! file with provenance, every metric and the recorded spans is written to
//! `perfbench/out/`.
//!
//! Every workload runs the stack's defaults: `SolverPolicy::Auto`, batch
//! width 1, `Precision::F64`, two engine threads. `flat-300`, the one
//! workload on the PCG side of `Auto`, runs by name but is not listed in
//! `BENCHMARK.json`: its throughput swings between runs by more than any
//! regression bound (see `perfbench/metrics.json`).

mod flat;
mod gen;
mod layers;
mod multilevel;
mod report;
mod serve;
mod stats;
mod sysinfo;
mod trace;

use report::{json_num, json_str, metrics_json, Metric, Outcome};
use std::time::Instant;

/// Engine threads and client connections of every workload.
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median and the last one is used.
pub const SETUP_REPS: usize = 3;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20061025;

/// The end-to-end metrics every workload reports (names and units as in
/// `BENCHMARK.json`).
const END_TO_END: [&str; 4] = ["setup_s", "bins_per_s", "rel_err", "peak_rss_mb"];

/// The per-layer metrics every traced run reports.
const PER_LAYER: [&str; 19] = [
    "topology.generate_s",
    "estimation.model_build_s",
    "estimation.observe_s_per_bin",
    "estimation.prior_s_per_bin",
    "estimation.refine_s_per_bin",
    "estimation.ipf_s_per_bin",
    "linalg.dense_solves",
    "linalg.pcg_solves",
    "linalg.pcg_stalls",
    "linalg.fallbacks",
    "linalg.pcg_iterations_per_solve",
    "linalg.spmv_s",
    "linalg.spmv_flops",
    "linalg.spmv_bytes_computed",
    "linalg.spmv_flops_per_byte",
    "linalg.triad_gbytes_per_s",
    "linalg.spmv_bandwidth_fraction",
    "engine.parallel_efficiency",
    "bench.trace_overhead_fraction",
];

/// What one invocation asks for.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Origin of every span and schedule time.
    pub origin: Instant,
}

impl RunConfig {
    /// Runs `setup` [`SETUP_REPS`] times, handing every result but the
    /// last to `discard` before the next repetition starts. Returns the
    /// last result, the seconds of each repetition, and the tracer the
    /// last repetition recorded into (enabled when the run is traced).
    pub fn set_up<T>(
        &self,
        mut setup: impl FnMut(&mut trace::Tracer) -> Result<T, String>,
        mut discard: impl FnMut(T) -> Result<(), String>,
    ) -> Result<(T, Vec<f64>, trace::Tracer), String> {
        let mut secs = Vec::with_capacity(SETUP_REPS);
        let mut kept = None;
        let mut tracer = trace::Tracer::new(false, self.origin);
        for rep in 0..SETUP_REPS {
            if let Some(old) = kept.take() {
                discard(old)?;
            }
            if rep + 1 == SETUP_REPS {
                tracer = trace::Tracer::new(self.traced, self.origin);
            }
            let t0 = Instant::now();
            kept = Some(setup(&mut tracer)?);
            secs.push(t0.elapsed().as_secs_f64());
        }
        Ok((kept.expect("SETUP_REPS is positive"), secs, tracer))
    }
}

/// Median of raw values (NaN when empty).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = stats::Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <serve-mixed|flat-300|multilevel-5k> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2);
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match args.iter().position(|a| a == name) {
        None => default,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(v) => v,
            None => usage(),
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload: String = flag(&args, "--workload", String::new());
    let cfg = RunConfig {
        seed: flag(&args, "--seed", DEFAULT_SEED),
        seconds: flag(&args, "--seconds", 10.0),
        traced: match flag(&args, "--trace", 0u8) {
            0 => false,
            1 => true,
            _ => usage(),
        },
        origin: Instant::now(),
    };
    let result = match workload.as_str() {
        serve::NAME => serve::run(&cfg),
        flat::NAME => flat::run(&cfg),
        multilevel::NAME => multilevel::run(&cfg),
        _ => usage(),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    let expected: &[&str] = if cfg.traced { &PER_LAYER } else { &END_TO_END };
    let (complete, detail) = {
        let reported = reported_metrics(&outcome, cfg.traced);
        let missing: Vec<&str> = expected
            .iter()
            .copied()
            .filter(|name| !reported.iter().any(|m| m.name == *name))
            .collect();
        let non_finite: Vec<&str> = reported
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect();
        (
            missing.is_empty() && non_finite.is_empty(),
            format!("missing {missing:?}, non-finite {non_finite:?}"),
        )
    };
    outcome.check("every reported metric present and finite", complete, detail);

    let provenance = sysinfo::provenance_json(&workload, cfg.seed, THREADS, cfg.traced);
    println!(
        "# perfbench {workload} seed={} trace={}",
        cfg.seed, cfg.traced as u8
    );
    println!("provenance: {provenance}");
    for line in &outcome.notes {
        println!("{line}");
    }
    for (title, metrics) in [
        ("end-to-end", &outcome.end_to_end),
        ("per-layer", &outcome.per_layer),
        ("workload-only", &outcome.workload_only),
    ] {
        for m in metrics {
            println!("{title}: {} = {} {}", m.name, json_num(m.value), m.unit);
        }
    }
    for (name, ok, detail) in &outcome.checks {
        println!(
            "check: {} {name} ({detail})",
            if *ok { "PASS" } else { "FAIL" }
        );
    }
    if let Err(e) = write_results(&workload, &cfg, &provenance, &outcome) {
        eprintln!("perfbench: could not write the results file: {e}");
    }
    let correct = outcome.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failures.attempted.max(1),
        outcome.failures.failed(),
        metrics_json(reported_metrics(&outcome, cfg.traced))
    );
    if !correct {
        eprintln!("perfbench: {workload}: a correctness check failed");
        std::process::exit(1);
    }
}

/// The metrics of the JSON line: per-layer when traced, else end-to-end.
fn reported_metrics(outcome: &Outcome, traced: bool) -> &[Metric] {
    if traced {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    }
}

/// Writes `perfbench/out/<workload>-seed<n>-trace<t>.json`: provenance,
/// checks, every metric and the spans.
fn write_results(
    workload: &str,
    cfg: &RunConfig,
    provenance: &str,
    outcome: &Outcome,
) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "{{\"name\": {}, \"passed\": {ok}, \"detail\": {}}}",
                json_str(name),
                json_str(detail)
            )
        })
        .collect();
    let notes: Vec<String> = outcome.notes.iter().map(|n| json_str(n)).collect();
    let body = format!(
        "{{\"provenance\": {provenance},\n\"attempted\": {}, \"failed\": {},\n\
         \"checks\": [{}],\n\"end_to_end\": {},\n\"per_layer\": {},\n\"workload_only\": {},\n\
         \"notes\": [{}],\n\"spans\": {}}}\n",
        outcome.failures.attempted,
        outcome.failures.failed(),
        checks.join(", "),
        metrics_json(&outcome.end_to_end),
        metrics_json(&outcome.per_layer),
        metrics_json(&outcome.workload_only),
        notes.join(",\n"),
        outcome.spans_json.as_deref().unwrap_or("[]"),
    );
    std::fs::write(
        dir.join(format!(
            "{workload}-seed{}-trace{}.json",
            cfg.seed, cfg.traced as u8
        )),
        body,
    )
}
