//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing here reaches inside the program: a
//! span's duration is the wall time of one public call, and a layer's
//! self time is that duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// `layer.function`, e.g. `estimation.refine`.
    pub name: String,
    /// Seconds since the tracer's origin.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request, window or call the span belongs to; spans of one
    /// operation share it.
    pub run: u64,
}

impl SpanRecord {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: usize,
    pub total: f64,
    pub self_time: f64,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans recorded from now on with operation id `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Records an already-timed interval (a request timed on another
    /// thread, or by the open-loop generator).
    pub fn record(&mut self, name: &str, start: f64, end: f64, run: u64) {
        if self.enabled {
            self.spans.push(SpanRecord {
                name: name.to_string(),
                start,
                end,
                parent: self.open.last().copied(),
                run,
            });
        }
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> crate::stats::Samples {
        let mut out = crate::stats::Samples::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(s.duration());
        }
        out
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_time) {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total += s.duration();
            t.self_time += (s.duration() - child).max(0.0);
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"start\":{},\"end\":{},\"parent\":{},\"run\":{}}}",
                    crate::report::json_str(&s.name),
                    s.start,
                    s.end,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.run
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut t = Tracer::new(true, Instant::now());
        t.record("outer", 0.0, 1.0, 7);
        // Children recorded while "outer" is not open have no parent;
        // build the nesting through `span` instead.
        let mut t2 = Tracer::new(true, Instant::now());
        t2.span("outer", |t| {
            t.record("inner", 0.0, 0.0, 0);
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = t2.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(inner.count, 2);
        assert_eq!(t2.spans[1].parent, Some(0));
        assert!(inner.total >= 0.005);
        assert!((outer.self_time - (outer.total - inner.total)).abs() < 1e-9);
        assert_eq!(t.totals()["outer"].self_time, 1.0);
        assert_eq!(t.spans[0].run, 7);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("x", |_| 3);
        t.record("y", 0.0, 1.0, 0);
        assert_eq!(v, 3);
        assert!(t.spans.is_empty());
        assert_eq!(t.to_json(), "[]");
    }
}
