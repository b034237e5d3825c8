//! Host diagnostics recorded beside every run. None of these ever
//! normalises a metric: they tell a reader whether a slow run was the
//! host (steal time, a slower fixed reference loop) or the code.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

/// Read the aggregate CPU line of `/proc/stat`; zeros when it is not
/// available (not Linux), which reads as 0% steal.
pub fn cpu_times() -> CpuTimes {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return CpuTimes::default();
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already folded into user/nice.
    CpuTimes {
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().take(8).sum(),
    }
}

/// Steal time between two readings, as a percentage of all CPU time.
pub fn steal_pct(from: CpuTimes, to: CpuTimes) -> f64 {
    let total = to.total.saturating_sub(from.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * to.steal.saturating_sub(from.steal) as f64 / total as f64
}

/// One pass of a fixed loop: ~1.3 MiB of small vectors walked in a
/// pseudo-random order while short-lived boxes are allocated and freed,
/// the shape of the engine's own work (pointer-chasing over more than
/// L2, allocator traffic), with no code of the system under test.
fn ref_loop_once() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let bufs: Vec<Vec<u64>> = (0..384u64)
        .map(|i| (0..256 + (i % 7) * 64).map(|k| k ^ i).collect())
        .collect();
    let mut acc = 0u64;
    for _ in 0..600_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let b = &bufs[(x % bufs.len() as u64) as usize];
        let boxed = black_box(Box::new(b[((x >> 32) % b.len() as u64) as usize]));
        acc = acc.wrapping_add(*boxed);
    }
    acc
}

/// Median wall time of three reference-loop passes after one untimed
/// warm-up pass, in milliseconds.
pub fn ref_loop_ms() -> f64 {
    black_box(ref_loop_once());
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(ref_loop_once());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The checkout the benchmark was built from.
fn checkout() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the checkout")
}

/// Run a command in the checkout and return its first stdout line, or
/// `"unknown"`. Git may not look above the checkout for a repository.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(checkout())
        .env(
            "GIT_CEILING_DIRECTORIES",
            checkout().parent().unwrap_or(checkout()),
        )
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The static part of the host record: core count, toolchain, revision.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={nproc} rustc=\"{}\" git_rev={}",
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_a_share_of_the_interval() {
        let a = CpuTimes {
            steal: 10,
            total: 1000,
        };
        let b = CpuTimes {
            steal: 30,
            total: 1400,
        };
        assert_eq!(steal_pct(a, b), 5.0);
        assert_eq!(steal_pct(a, a), 0.0);
    }
}
