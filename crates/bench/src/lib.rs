//! # ic-bench — experiment harness for the paper's figures
//!
//! One binary per reproducible figure of the paper (`fig02` … `fig13`)
//! plus ablation studies, and Criterion benches for the numerical
//! kernels. This library holds the shared harness: scale selection,
//! dataset building, series summaries, and the fit/estimation drivers the
//! binaries compose. End-to-end and per-layer performance numbers come
//! from the benchmark in `perfbench/`, not from this crate.
//!
//! Every binary accepts `--scale smoke|full` (default `full`); smoke runs
//! finish in seconds and exercise the identical code paths on shorter
//! weeks, which is what the integration tests use.

use ic_core::{fit_stable_fp, improvement_percent, rel_l2_series, FitOptions, FitReport, TmSeries};
use ic_datasets::{build_d1, build_d2, Dataset, GeantConfig, TotemConfig};
use ic_estimation::{
    compare_priors, ComparisonResult, EstimationPipeline, ObservationModel, TmPrior,
};
use ic_topology::{geant22, totem23, RoutingScheme};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-sized datasets (weeks of 2016/672 bins).
    Full,
    /// Day-long "weeks" for fast runs and CI.
    Smoke,
}

impl Scale {
    /// Parses `--scale smoke|full` from process args; defaults to `Full`.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--scale" && w[1] == "smoke" {
                return Scale::Smoke;
            }
        }
        if std::env::var("IC_BENCH_SCALE").as_deref() == Ok("smoke") {
            return Scale::Smoke;
        }
        Scale::Full
    }
}

/// The D1 config at the requested scale with `weeks` weeks (shared by the
/// direct builders below and the `ic-experiment` scenario wrappers).
pub fn d1_config(scale: Scale, weeks: usize, seed: u64) -> GeantConfig {
    let mut cfg = match scale {
        Scale::Full => GeantConfig::default(),
        Scale::Smoke => GeantConfig::smoke(seed),
    };
    cfg.weeks = weeks;
    cfg.seed = seed;
    cfg
}

/// The D2 config at the requested scale with `weeks` weeks.
pub fn d2_config(scale: Scale, weeks: usize, seed: u64) -> TotemConfig {
    let mut cfg = match scale {
        Scale::Full => TotemConfig::default(),
        Scale::Smoke => TotemConfig::smoke(seed),
    };
    cfg.weeks = weeks;
    cfg.seed = seed;
    cfg
}

/// Builds the D1 dataset at the requested scale with `weeks` weeks.
pub fn d1_at(scale: Scale, weeks: usize, seed: u64) -> Dataset {
    build_d1(&d1_config(scale, weeks, seed)).expect("D1 build is infallible for valid configs")
}

/// Builds the D2 dataset at the requested scale with `weeks` weeks.
pub fn d2_at(scale: Scale, weeks: usize, seed: u64) -> Dataset {
    build_d2(&d2_config(scale, weeks, seed)).expect("D2 build is infallible for valid configs")
}

/// Fit options used across figure binaries (paper Section 5.1 settings).
pub fn paper_fit_options() -> FitOptions {
    FitOptions::default()
        .with_max_sweeps(40)
        .with_tolerance(1e-6)
        .with_initial_f(0.3)
}

/// Fits the stable-fP model to every week of a measured series.
pub fn fit_weeks(weeks: &[TmSeries]) -> Vec<FitReport<ic_core::StableFpParams>> {
    weeks
        .iter()
        .map(|w| fit_stable_fp(w, paper_fit_options()).expect("weekly fit"))
        .collect()
}

/// Per-bin percentage improvement of an IC fit over the gravity model on
/// the same observed week (the Figure 3 quantity).
pub fn fit_improvement_series(
    observed: &TmSeries,
    fit: &FitReport<ic_core::StableFpParams>,
) -> Vec<f64> {
    let ic_pred = fit
        .predict(observed.bin_seconds())
        .expect("prediction from valid fit");
    let grav = ic_core::gravity_predict(observed).expect("gravity prediction");
    let e_ic = rel_l2_series(observed, &ic_pred).expect("series error");
    let e_gr = rel_l2_series(observed, &grav).expect("series error");
    e_gr.iter()
        .zip(e_ic.iter())
        .map(|(&g, &c)| improvement_percent(g, c))
        .collect()
}

/// Runs a Figure 11/12/13-style estimation comparison on one week.
pub fn estimation_comparison(
    dataset_name: &str,
    week: &TmSeries,
    prior: &dyn TmPrior,
) -> ComparisonResult {
    let topo = match dataset_name {
        "geant-d1" => geant22(),
        "totem-d2" => totem23(),
        other => panic!("unknown dataset {other}"),
    };
    let om = ObservationModel::new(&topo, RoutingScheme::Ecmp).expect("observation model");
    let obs = om.observe(week).expect("observe week");
    let pipeline = EstimationPipeline::new(om);
    compare_priors(&pipeline, prior, week, &obs).expect("comparison")
}

/// Summary statistics of a series, for compact experiment reports.
#[derive(Debug, Clone, Copy)]
pub struct SeriesSummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// 5th percentile.
    pub p5: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

/// Summarizes a series (mean and 5/50/95 percentiles).
pub fn summarize(series: &[f64]) -> SeriesSummary {
    assert!(!series.is_empty(), "summarize of empty series");
    let mut sorted = series.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite series"));
    let pct = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    SeriesSummary {
        mean: series.iter().sum::<f64>() / series.len() as f64,
        p5: pct(0.05),
        p50: pct(0.50),
        p95: pct(0.95),
    }
}

/// Prints a decimated series as `bin<TAB>value` rows (at most `max_rows`).
pub fn print_series(label: &str, series: &[f64], max_rows: usize) {
    println!("# series: {label} ({} bins)", series.len());
    let stride = (series.len() / max_rows.max(1)).max(1);
    for (t, v) in series.iter().enumerate().step_by(stride) {
        println!("{t}\t{v:.4}");
    }
}

/// Prints a `SeriesSummary` as a one-line report.
pub fn print_summary(label: &str, s: &SeriesSummary) {
    println!(
        "{label}: mean={:.2} p5={:.2} median={:.2} p95={:.2}",
        s.mean, s.p5, s.p50, s.p95
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_percentiles() {
        let xs: Vec<f64> = (0..=100).map(|v| v as f64).collect();
        let s = summarize(&xs);
        assert!((s.mean - 50.0).abs() < 1e-9);
        assert!((s.p5 - 5.0).abs() < 1.0);
        assert!((s.p50 - 50.0).abs() < 1.0);
        assert!((s.p95 - 95.0).abs() < 1.0);
    }

    #[test]
    fn scale_default_is_full() {
        // No --scale arg in the test harness invocation.
        assert_eq!(Scale::from_args(), Scale::Full);
    }

    #[test]
    fn smoke_pipeline_end_to_end() {
        // The smallest full pass through the harness: build a smoke D1,
        // fit week 1, compute the Figure 3 improvement.
        let ds = d1_at(Scale::Smoke, 1, 42);
        let weeks = ds.measured_weeks().unwrap();
        let fits = fit_weeks(&weeks);
        assert_eq!(fits.len(), 1);
        let imp = fit_improvement_series(&weeks[0], &fits[0]);
        let s = summarize(&imp);
        assert!(
            s.mean > 0.0,
            "IC should improve on gravity; got mean {}",
            s.mean
        );
    }
}
