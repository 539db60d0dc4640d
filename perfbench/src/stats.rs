//! Exact percentiles, open-loop schedule accounting and failure counting.
//!
//! Every timing percentile the benchmark reports is computed here from
//! raw samples (nearest rank over the sorted values), never read from
//! `ic-obs` power-of-two histograms, whose answers are bucket edges.

/// Percentiles tried, from lowest to highest, when asking which one a
/// sample supports.
const LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// A percentile is supported when at least this many samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Raw timing samples (seconds, or any other unit).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            f64::NAN
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// The first sample pushed (NaN when empty).
    pub fn first(&self) -> f64 {
        self.values.first().copied().unwrap_or(f64::NAN)
    }

    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::max)
    }

    /// Nearest-rank percentile `q ∈ (0, 1]`: the smallest sample with at
    /// least `q·n` samples at or below it (NaN when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank(sorted.len(), q) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// `name: p50=… p90=… (n=…, highest supported p…)`, listing each
    /// requested percentile and flagging those with fewer than
    /// [`MIN_BEYOND`] samples beyond them.
    pub fn describe(&self, name: &str, quantiles: &[f64]) -> String {
        let mut out = format!("{name}:");
        for &q in quantiles {
            let mark = if supported(self.len(), q) { "" } else { "*" };
            out.push_str(&format!(
                " {}={:.6}{mark}",
                quantile_label(q),
                self.percentile(q)
            ));
        }
        let top = match highest_supported(self.len()) {
            Some(q) => format!(
                "highest supported {}={:.6}",
                quantile_label(q),
                self.percentile(q)
            ),
            None => "no percentile supported".to_string(),
        };
        out.push_str(&format!(
            " (n={}, {top}; * = fewer than {MIN_BEYOND} samples beyond)",
            self.len()
        ));
        out
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `q` among `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples support percentile `q` (at least [`MIN_BEYOND`]
/// samples beyond it).
pub fn supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// The highest percentile of the ladder p50, p90, p99, p99.9 that `n`
/// samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&q| supported(n, q))
}

pub fn quantile_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round() as u64)
    } else {
        format!("p{pct}")
    }
}

/// One request of an open-loop schedule; times in seconds from the
/// schedule's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule wanted the request sent.
    pub due: f64,
    /// When the connection was free to send it (the previous response's
    /// arrival, or `due` if that came earlier).
    pub ready: f64,
    /// When it was actually sent.
    pub sent: f64,
    /// When its response arrived.
    pub done: f64,
}

impl Timing {
    /// Latency from the due time: includes every wait a stalled earlier
    /// response imposed on this request.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// Round trip of the request itself.
    pub fn rtt(&self) -> f64 {
        self.done - self.sent
    }

    /// How late the generator itself sent, beyond the moment both the due
    /// time had passed and the connection was free.
    pub fn generator_lateness(&self) -> f64 {
        (self.sent - self.ready).max(0.0)
    }
}

/// Time source of an open-loop generator (a fake one in tests).
pub trait Clock {
    /// Seconds since the schedule's origin.
    fn now(&mut self) -> f64;
    /// Blocks until `t` (seconds since the origin).
    fn sleep_until(&mut self, t: f64);
}

/// The wall clock, with its origin at construction.
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    pub fn new(origin: std::time::Instant) -> Self {
        WallClock { origin }
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn sleep_until(&mut self, t: f64) {
        loop {
            let left = t - self.now();
            if left <= 0.0 {
                return;
            }
            // Sleep most of the way, then spin the last stretch: a plain
            // sleep overshoots by the scheduler's slack.
            if left > 0.002 {
                std::thread::sleep(std::time::Duration::from_secs_f64(left - 0.001));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Runs an open-loop schedule on one connection: request `k` is due at
/// `dues[k]`, is sent at its due time or as soon as the previous response
/// has arrived, whichever is later, and is timed from its due time. `op`
/// performs request `k`.
pub fn run_open_loop<C: Clock>(
    clock: &mut C,
    dues: &[f64],
    mut op: impl FnMut(usize, &mut C),
) -> Vec<Timing> {
    let mut out = Vec::with_capacity(dues.len());
    let mut prev_done = f64::NEG_INFINITY;
    for (k, &due) in dues.iter().enumerate() {
        clock.sleep_until(due);
        let sent = clock.now();
        op(k, clock);
        let done = clock.now();
        out.push(Timing {
            due,
            ready: due.max(prev_done),
            sent,
            done,
        });
        prev_done = done;
    }
    out
}

/// Failed-operation accounting behind `failed_fraction`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Failures {
    /// Operations attempted: requests sent, estimates produced, windows
    /// expected.
    pub attempted: u64,
    /// Operations answered with an error.
    pub errors: u64,
    /// Outputs holding a non-finite value.
    pub non_finite: u64,
    /// Window reports that arrived later than the allowed limit.
    pub late: u64,
}

impl Failures {
    /// One request or call; `ok` is false when it returned an error.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.errors += 1;
        }
    }

    /// One output: fails when any value is NaN or infinite.
    pub fn output(&mut self, values: impl IntoIterator<Item = f64>) {
        self.attempted += 1;
        if values.into_iter().any(|v| !v.is_finite()) {
            self.non_finite += 1;
        }
    }

    /// One window report with its latency; fails beyond `limit` seconds.
    pub fn window(&mut self, latency: f64, limit: f64) {
        self.attempted += 1;
        if latency.is_nan() || latency > limit {
            self.late += 1;
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.non_finite + self.late
    }

    pub fn fraction(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        // Pushed in reverse so the percentile must sort.
        for v in (1..=n).rev() {
            s.push(v as f64);
        }
        s
    }

    #[test]
    fn percentiles_are_nearest_rank_on_raw_samples() {
        let s = samples(100);
        assert_eq!(s.percentile(0.5), 50.0);
        assert_eq!(s.percentile(0.9), 90.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        // A 2x change in the data is a 2x change in the answer, not a
        // bucket edge.
        let mut doubled = Samples::new();
        for v in 1..=100 {
            doubled.push(2.0 * v as f64);
        }
        assert_eq!(doubled.percentile(0.5), 2.0 * s.percentile(0.5));
        assert!(Samples::new().percentile(0.5).is_nan());
    }

    #[test]
    fn highest_supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(beyond(100, 0.9), 10);
        assert!(!supported(99, 0.9));
        let line = samples(100).describe("lat", &[0.5, 0.99]);
        assert!(line.contains("p50=50.000000 "), "{line}");
        assert!(line.contains("p99=99.000000*"), "{line}");
        assert!(
            line.contains("n=100, highest supported p90=90.000000"),
            "{line}"
        );
    }

    /// A fake clock: operations advance time by their service time, and
    /// each sleep overshoots its target by `overshoot`.
    struct FakeClock {
        t: f64,
        overshoot: f64,
    }

    impl Clock for FakeClock {
        fn now(&mut self) -> f64 {
            self.t
        }
        fn sleep_until(&mut self, t: f64) {
            if t > self.t {
                self.t = t + self.overshoot;
            }
        }
    }

    #[test]
    fn a_stalled_response_charges_later_requests_from_their_due_times() {
        let dues = [0.0, 0.1, 0.2, 0.3, 0.4];
        let service = [0.01, 0.25, 0.01, 0.01, 0.01];
        let mut clock = FakeClock {
            t: 0.0,
            overshoot: 0.0,
        };
        let timings = run_open_loop(&mut clock, &dues, |k, c| c.t += service[k]);
        let lat: Vec<f64> = timings.iter().map(|t| t.latency()).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // Request 1 stalls for 0.25 s; requests 2 and 3 were due during
        // the stall and are charged the wait, request 4 is on time again.
        assert!(close(lat[0], 0.01), "{lat:?}");
        assert!(close(lat[1], 0.25), "{lat:?}");
        assert!(close(lat[2], 0.36 - 0.2), "{lat:?}");
        assert!(close(lat[3], 0.37 - 0.3), "{lat:?}");
        assert!(close(lat[4], 0.01), "{lat:?}");
        // Waiting on the connection is the system's delay, not the
        // generator's: with an exact clock the generator is never late.
        assert!(timings.iter().all(|t| t.generator_lateness() == 0.0));
        assert!(close(timings[2].rtt(), 0.01));
    }

    #[test]
    fn generator_lateness_is_reported() {
        let dues = [0.1, 0.2, 0.3];
        let mut clock = FakeClock {
            t: 0.0,
            overshoot: 0.003,
        };
        let timings = run_open_loop(&mut clock, &dues, |_, c| c.t += 0.01);
        let late: Vec<f64> = timings.iter().map(|t| t.generator_lateness()).collect();
        assert!(late.iter().all(|&l| (l - 0.003).abs() < 1e-12), "{late:?}");
        // The overshoot is part of each request's latency too.
        assert!((timings[1].latency() - 0.013).abs() < 1e-12);
    }

    #[test]
    fn failed_fraction_counts_errors_non_finite_outputs_and_late_windows() {
        let mut f = Failures::default();
        f.operation(true);
        f.operation(false);
        f.output([1.0, 2.0]);
        f.output([1.0, f64::NAN]);
        f.output([f64::INFINITY]);
        f.window(0.5, 1.0);
        f.window(1.5, 1.0);
        f.window(f64::NAN, 1.0);
        assert_eq!(f.attempted, 8);
        assert_eq!(f.errors, 1);
        assert_eq!(f.non_finite, 2);
        assert_eq!(f.late, 2);
        assert_eq!(f.failed(), 5);
        assert!((f.fraction() - 5.0 / 8.0).abs() < 1e-15);
        assert_eq!(Failures::default().fraction(), 0.0);
    }
}
