//! CI perf-regression gate: compares a freshly produced bench JSON
//! against a committed baseline snapshot and fails (exit code 1) when a
//! tracked metric regresses beyond the tolerance.
//!
//! The metric set is inferred from the keys present in the baseline:
//!
//! * streaming (`BENCH_streaming.json`): `throughput_bins_per_sec` ↑,
//!   `warm_speedup` ↑, `service_bins_per_sec` ↑ (the multi-tenant
//!   `ic-serve` ingest+poll path);
//! * estimation (`BENCH_estimation.json`): `sparse_refine_secs_per_bin` ↓,
//!   `pcg_secs_per_bin` ↓, `pipeline_secs_per_bin` ↓,
//!   `parallel_pipeline_secs_per_bin` ↓, `speedup_vs_dense` ↑,
//!   `allocs_per_bin_warm` ↓, `instrumented_pipeline_secs_per_bin` ↓ and
//!   `instrumented_allocs_per_bin_warm` ↓ (the `ic-obs`-instrumented
//!   pipeline and warm refine sweep; a 0-alloc baseline means any
//!   instrumentation-added allocation fails the gate), and
//!   `multilevel_secs_per_bin` ↓ (the partition-aware multilevel solve
//!   the default `--mode both` piggybacks on every size) — compared
//!   positionally per topology size.
//!
//! The engine-sharded timing is gated as an absolute per-bin time rather
//! than as a parallel-speedup ratio: the ratio is a function of the
//! runner's core count (a 1-CPU runner can never exceed 1x), while the
//! absolute timing regresses exactly when the parallel path gets slower
//! on comparable hardware. Baselines must therefore be produced with the
//! same `--threads` the gate's current run uses.
//!
//! Usage: `perf_gate --baseline PATH --current PATH [--tolerance 0.25]
//! [--update]`. `--update` copies the current file over the baseline
//! instead of comparing — the documented way to refresh snapshots after an
//! intentional performance change (or a hardware change).
//!
//! Ratio metrics (`warm_speedup`, `speedup_vs_dense`) are largely
//! hardware-independent; absolute timings drift with the runner, which is
//! why the gate compares them with a generous default tolerance and why
//! baselines are refreshed with `--update` rather than edited by hand.

use ic_bench::arg_value;
use ic_bench::perf::{compare, Direction, Regression};
use std::process::ExitCode;

const METRICS: &[(&str, Direction)] = &[
    // Streaming bench.
    ("throughput_bins_per_sec", Direction::HigherIsBetter),
    ("warm_speedup", Direction::HigherIsBetter),
    ("service_bins_per_sec", Direction::HigherIsBetter),
    // Estimation bench.
    ("sparse_refine_secs_per_bin", Direction::LowerIsBetter),
    ("pcg_secs_per_bin", Direction::LowerIsBetter),
    ("pipeline_secs_per_bin", Direction::LowerIsBetter),
    ("parallel_pipeline_secs_per_bin", Direction::LowerIsBetter),
    ("speedup_vs_dense", Direction::HigherIsBetter),
    ("allocs_per_bin_warm", Direction::LowerIsBetter),
    (
        "instrumented_pipeline_secs_per_bin",
        Direction::LowerIsBetter,
    ),
    ("instrumented_allocs_per_bin_warm", Direction::LowerIsBetter),
    // Partition-aware multilevel solve on the same observations
    // (`--mode both`, the smoke default).
    ("multilevel_secs_per_bin", Direction::LowerIsBetter),
];

fn main() -> ExitCode {
    let Some(baseline_path) = arg_value("--baseline") else {
        eprintln!("perf_gate: --baseline PATH is required");
        return ExitCode::FAILURE;
    };
    let Some(current_path) = arg_value("--current") else {
        eprintln!("perf_gate: --current PATH is required");
        return ExitCode::FAILURE;
    };
    let tolerance: f64 = arg_value("--tolerance")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);

    let current = match std::fs::read_to_string(&current_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf_gate: cannot read current {current_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if std::env::args().any(|a| a == "--update") {
        if let Err(e) = std::fs::write(&baseline_path, &current) {
            eprintln!("perf_gate: cannot update baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("perf_gate: baseline {baseline_path} refreshed from {current_path}");
        return ExitCode::SUCCESS;
    }
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perf_gate: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let regressions = compare(&baseline, &current, METRICS, tolerance);
    if regressions.is_empty() {
        println!(
            "perf_gate: OK — no metric in {current_path} regressed more than {:.0}% vs {baseline_path}",
            tolerance * 100.0
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "perf_gate: FAIL — {} metric(s) regressed more than {:.0}% vs {baseline_path}:",
        regressions.len(),
        tolerance * 100.0
    );
    for Regression {
        key,
        index,
        baseline,
        current,
    } in &regressions
    {
        eprintln!("  {key}[{index}]: baseline {baseline:.6} -> current {current:.6}");
    }
    ExitCode::FAILURE
}
