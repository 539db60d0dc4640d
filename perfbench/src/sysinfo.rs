//! Provenance of a result and machine measurements: hardware, toolchain,
//! peak memory and STREAM-triad bandwidth.

use crate::report::json_str;
use std::process::Command;
use std::time::Instant;

/// Size in bytes of the largest CPU cache level cpu0 reports.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Ok(level), Ok(size)) = (
            std::fs::read_to_string(format!("{dir}/level")),
            std::fs::read_to_string(format!("{dir}/size")),
        ) else {
            continue;
        };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// `107520K` / `4M` / `512` → bytes.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.chars().last()? {
        'K' | 'k' => (&s[..s.len() - 1], 1024),
        'M' | 'm' => (&s[..s.len() - 1], 1024 * 1024),
        'G' | 'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `fallback`.
fn command_line(program: &str, args: &[&str], fallback: &str) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        })
        .unwrap_or_else(|| fallback.to_string())
}

/// Peak resident set (`VmHWM`) of process `pid` in MB (10⁶ bytes).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Everything a result needs to name its hardware and build, as JSON.
pub fn provenance_json(workload: &str, seed: u64, threads: usize, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let llc = llc_bytes().map_or("null".to_string(), |b| b.to_string());
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"threads\": {threads}, \"nproc\": {nproc}, \
         \"cpu_model\": {}, \"llc_bytes\": {llc}, \"rustc\": {}, \"git_commit\": {}, \
         \"traced\": {traced}}}",
        json_str(workload),
        json_str(&cpu_model()),
        json_str(&command_line("rustc", &["--version"], "unknown")),
        json_str(&command_line(
            "git",
            &["rev-parse", "HEAD"],
            "unavailable (not a git checkout)"
        )),
    )
}

/// STREAM triad `a = b + s·c` on one thread.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    /// Bytes of each of the three arrays.
    pub array_bytes: u64,
    /// The last-level cache size the arrays were sized against.
    pub llc_bytes: u64,
    /// Best of the repetitions, counting 24 bytes moved per element as
    /// STREAM does.
    pub gbytes_per_s: f64,
}

/// Runs the triad with each array at least four times the last-level
/// cache, so the arrays stream from memory. Single-threaded, like the
/// CSR kernels it is compared against.
pub fn triad() -> Triad {
    const FALLBACK_LLC: u64 = 32 * 1024 * 1024;
    const REPS: usize = 5;
    let llc = llc_bytes().unwrap_or(FALLBACK_LLC);
    let len = (4 * llc).div_ceil(8) as usize;
    let mut a = vec![0.0f64; len];
    let b: Vec<f64> = (0..len).map(|i| (i % 1024) as f64).collect();
    let c: Vec<f64> = (0..len).map(|i| ((i * 7) % 1024) as f64).collect();
    let s = std::hint::black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        for ((x, &y), &z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        std::hint::black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert_eq!(a[len - 1], b[len - 1] + 3.0 * c[len - 1]);
    Triad {
        array_bytes: (len * 8) as u64,
        llc_bytes: llc,
        gbytes_per_s: (24 * len) as f64 / best / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("107520K"), Some(107520 * 1024));
        assert_eq!(parse_size("4M"), Some(4 * 1024 * 1024));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
