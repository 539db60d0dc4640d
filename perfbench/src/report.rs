//! What a workload run produces, and how it is printed.

use crate::stats::Failures;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation accounting behind `attempted`, `failed` and
    /// `failed_fraction`.
    pub failures: Failures,
    /// End-to-end metrics named in `BENCHMARK.json` (reported untraced).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics named in `BENCHMARK.json` (reported traced).
    pub per_layer: Vec<Metric>,
    /// Metrics particular to this workload; printed and written to the
    /// results file, not part of the final JSON line.
    pub workload_only: Vec<Metric>,
    /// Human-readable lines: percentile summaries with sample counts.
    pub notes: Vec<String>,
    /// Correctness checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// The tracer's spans as JSON, when the run was traced.
    pub spans_json: Option<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(metric(name, value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(metric(name, value, unit));
    }

    pub fn only(&mut self, name: &str, value: f64, unit: &'static str) {
        self.workload_only.push(metric(name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Keeps the tracer's spans for the results file and prints each span
    /// name's count, total and self time.
    pub fn spans(&mut self, tracer: &crate::trace::Tracer) {
        for (name, t) in tracer.totals() {
            self.note(format!(
                "span {name}: count {} total {:.6} s self {:.6} s",
                t.count, t.total, t.self_time
            ));
        }
        self.spans_json = Some(tracer.to_json());
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
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

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (which JSON cannot hold) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics_json(metrics: &[Metric]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_escapes_and_keeps_every_digit() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "null");
        let m = metrics_json(&[metric("setup_s", 1.25, "s")]);
        assert_eq!(m, "{\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}");
    }

    #[test]
    fn any_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        assert!(o.correct());
        o.check("a", true, "");
        assert!(o.correct());
        o.check("b", false, "mismatch");
        assert!(!o.correct());
    }
}
