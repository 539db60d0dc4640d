//! Structured experiment results with CSV and JSON emitters.
//!
//! A [`Report`] is the runner's output: one [`ScenarioReport`] per
//! scenario, in batch order. The emitters are dependency-free (no serde in
//! this offline workspace): CSV carries the per-scenario summary row,
//! JSON carries everything including the per-bin series.

use ic_stream::{DriftEvent, SolveStats};
use std::io::{self, Write};

/// Results of one executed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (from the builder).
    pub name: String,
    /// Task kind (`"estimation"`, `"fit-improvement"`, `"gravity-gap"`).
    pub task: String,
    /// Name of the prior used, for estimation tasks.
    pub prior: Option<String>,
    /// Number of time bins in the target week.
    pub bins: usize,
    /// Per-bin percentage improvement over the gravity baseline
    /// (empty for gravity-gap tasks).
    pub improvement: Vec<f64>,
    /// Mean of the improvement series (0 when empty).
    pub mean_improvement: f64,
    /// Per-bin relative L2 errors of the candidate (IC) estimate.
    pub errors_candidate: Vec<f64>,
    /// Per-bin relative L2 errors of the gravity baseline.
    pub errors_gravity: Vec<f64>,
    /// Fitted forward ratio, when the scenario ran a fit.
    pub fitted_f: Option<f64>,
    /// Final fit objective (mean RelL2), when the scenario ran a fit.
    pub fit_objective: Option<f64>,
    /// Change-detection events fired during a streaming task, flattened
    /// across windows in firing order (empty for non-streaming tasks).
    /// Previously these died inside the replay loop; now they are part
    /// of the report and both emitters carry them.
    pub drift_events: Vec<DriftEvent>,
    /// Solver-health counters accumulated over every normal-equations
    /// solve the scenario performed: the tomogravity refinement, in one
    /// pass or per streaming window. The fits solve in closed form and
    /// count nothing, so tasks that never refine (fit-improvement,
    /// gravity-gap) report all zeros.
    pub solve_stats: SolveStats,
}

impl ScenarioReport {
    /// Mean candidate error over bins (NaN if the task produced none).
    pub fn mean_candidate_error(&self) -> f64 {
        mean(&self.errors_candidate)
    }

    /// Mean gravity error over bins (NaN if the task produced none).
    pub fn mean_gravity_error(&self) -> f64 {
        mean(&self.errors_gravity)
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// 5th/50th/95th percentiles by the same nearest-rank rounding the bench
/// harness uses, so report quantiles agree with the printed figure
/// summaries. One sort serves all three.
fn percentiles(xs: &[f64]) -> (f64, f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pick = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
    (pick(0.05), pick(0.50), pick(0.95))
}

/// The runner's output: per-scenario reports in batch order.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// One report per scenario, in the order the batch was submitted.
    pub scenarios: Vec<ScenarioReport>,
}

impl Report {
    /// Number of scenario reports.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Renders the summary table as CSV (one row per scenario).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "name,task,prior,bins,mean_improvement,p5_improvement,p50_improvement,\
             p95_improvement,mean_error_candidate,mean_error_gravity,fitted_f,fit_objective,\
             drift_events,dense_solves,pcg_solves,pcg_iterations,pcg_stalls,fallbacks\n",
        );
        for s in &self.scenarios {
            let (p5, p50, p95) = percentiles(&s.improvement);
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                csv_field(&s.name),
                csv_field(&s.task),
                csv_field(s.prior.as_deref().unwrap_or("")),
                s.bins,
                csv_num(s.mean_improvement),
                csv_num(p5),
                csv_num(p50),
                csv_num(p95),
                csv_num(s.mean_candidate_error()),
                csv_num(s.mean_gravity_error()),
                s.fitted_f.map(csv_num).unwrap_or_default(),
                s.fit_objective.map(csv_num).unwrap_or_default(),
                s.drift_events.len(),
                s.solve_stats.dense_solves,
                s.solve_stats.pcg_solves,
                s.solve_stats.pcg_iterations,
                s.solve_stats.pcg_stalls,
                s.solve_stats.fallbacks,
            ));
        }
        out
    }

    /// Writes [`Report::to_csv`] to a writer.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(self.to_csv().as_bytes())
    }

    /// Renders the full report (including per-bin series) as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"scenarios\":[");
        for (i, s) in self.scenarios.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"task\":{},\"prior\":{},\"bins\":{},\
                 \"mean_improvement\":{},\"improvement\":{},\
                 \"errors_candidate\":{},\"errors_gravity\":{},\
                 \"fitted_f\":{},\"fit_objective\":{},\"drift_events\":{},\
                 \"solve_stats\":{}}}",
                json_string(&s.name),
                json_string(&s.task),
                s.prior
                    .as_deref()
                    .map(json_string)
                    .unwrap_or_else(|| "null".into()),
                s.bins,
                json_num(s.mean_improvement),
                json_array(&s.improvement),
                json_array(&s.errors_candidate),
                json_array(&s.errors_gravity),
                s.fitted_f.map(json_num).unwrap_or_else(|| "null".into()),
                s.fit_objective
                    .map(json_num)
                    .unwrap_or_else(|| "null".into()),
                json_drift_events(&s.drift_events),
                json_solve_stats(&s.solve_stats),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Writes [`Report::to_json`] to a writer.
    pub fn write_json<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(self.to_json().as_bytes())
    }
}

/// CSV field escaping: quote when the field contains a comma, quote or
/// newline; double inner quotes.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Numeric CSV cell; non-finite values render as empty cells.
fn csv_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::new()
    }
}

/// Numeric JSON value; JSON has no NaN/inf, so non-finite becomes null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_array(xs: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, &v) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_num(v));
    }
    out.push(']');
    out
}

fn json_drift_events(events: &[DriftEvent]) -> String {
    let mut out = String::from("[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"window\":{},\"kind\":{},\"statistic\":{}}}",
            ev.window,
            json_string(ev.kind.as_str()),
            json_num(ev.statistic),
        ));
    }
    out.push(']');
    out
}

fn json_solve_stats(s: &SolveStats) -> String {
    format!(
        "{{\"dense_solves\":{},\"pcg_solves\":{},\"pcg_iterations\":{},\
         \"pcg_stalls\":{},\"fallbacks\":{}}}",
        s.dense_solves, s.pcg_solves, s.pcg_iterations, s.pcg_stalls, s.fallbacks,
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_stream::DriftKind;

    fn sample_report() -> Report {
        Report {
            scenarios: vec![
                ScenarioReport {
                    name: "fig11a, geant".into(),
                    task: "estimation".into(),
                    prior: Some("ic-measured".into()),
                    bins: 3,
                    improvement: vec![10.0, 20.0, 30.0],
                    mean_improvement: 20.0,
                    errors_candidate: vec![0.1, 0.2, 0.3],
                    errors_gravity: vec![0.2, 0.3, 0.4],
                    fitted_f: Some(0.25),
                    fit_objective: Some(0.05),
                    drift_events: vec![DriftEvent {
                        window: 2,
                        kind: DriftKind::ForwardRatioJump,
                        statistic: 0.08,
                    }],
                    solve_stats: SolveStats {
                        dense_solves: 3,
                        pcg_solves: 2,
                        pcg_iterations: 40,
                        pcg_stalls: 1,
                        fallbacks: 1,
                    },
                },
                ScenarioReport {
                    name: "gap".into(),
                    task: "gravity-gap".into(),
                    prior: None,
                    bins: 2,
                    improvement: vec![],
                    mean_improvement: 0.0,
                    errors_candidate: vec![],
                    errors_gravity: vec![0.5, 0.7],
                    fitted_f: None,
                    fit_objective: None,
                    drift_events: Vec::new(),
                    solve_stats: SolveStats::default(),
                },
            ],
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("name,task,prior,bins"));
        // Comma-containing name is quoted.
        assert!(lines[1].starts_with("\"fig11a, geant\",estimation,ic-measured,3,20,"));
        // Missing numerics are empty cells; the solver counters close the
        // row after the drift count.
        assert!(lines[0]
            .ends_with("drift_events,dense_solves,pcg_solves,pcg_iterations,pcg_stalls,fallbacks"));
        assert!(lines[2].ends_with(",,0,0,0,0,0,0"));
        assert!(lines[1].ends_with(",1,3,2,40,1,1"));
        let mut buf = Vec::new();
        sample_report().write_csv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), csv);
    }

    #[test]
    fn csv_percentiles_match_series() {
        let csv = sample_report().to_csv();
        let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        // name is quoted and contains a comma, so fields shift by one.
        assert_eq!(row[6], "10"); // p5 of [10, 20, 30]
        assert_eq!(row[7], "20"); // p50
        assert_eq!(row[8], "30"); // p95
    }

    #[test]
    fn json_is_well_formed_and_null_safe() {
        let json = sample_report().to_json();
        assert!(json.starts_with("{\"scenarios\":["));
        assert!(json.contains("\"prior\":\"ic-measured\""));
        assert!(json.contains("\"prior\":null"));
        assert!(json.contains("\"improvement\":[10,20,30]"));
        assert!(json.contains("\"fitted_f\":null"));
        assert!(json.contains(
            "\"drift_events\":[{\"window\":2,\"kind\":\"forward-ratio-jump\",\"statistic\":0.08}]"
        ));
        assert!(json.contains("\"drift_events\":[]"));
        assert!(json.contains(
            "\"solve_stats\":{\"dense_solves\":3,\"pcg_solves\":2,\"pcg_iterations\":40,\
             \"pcg_stalls\":1,\"fallbacks\":1}"
        ));
        assert!(json.contains(
            "\"solve_stats\":{\"dense_solves\":0,\"pcg_solves\":0,\"pcg_iterations\":0,\
             \"pcg_stalls\":0,\"fallbacks\":0}"
        ));
        // NaN means render as null, not as invalid JSON.
        let mut r = sample_report();
        r.scenarios[0].mean_improvement = f64::NAN;
        assert!(r.to_json().contains("\"mean_improvement\":null"));
        let mut buf = Vec::new();
        sample_report().write_json(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), json);
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn mean_helpers() {
        let r = &sample_report().scenarios[0];
        assert!((r.mean_candidate_error() - 0.2).abs() < 1e-12);
        assert!((r.mean_gravity_error() - 0.3).abs() < 1e-12);
        assert!(sample_report().scenarios[1].mean_candidate_error().is_nan());
        assert_eq!(sample_report().len(), 2);
        assert!(!sample_report().is_empty());
    }
}
