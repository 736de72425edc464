//! Host and revision stamp carried by every result record, and the
//! process's peak resident memory.

use nautilus_util::json::Json;
use std::process::Command;

/// `(l1d, l2, l3)` data-cache sizes in bytes as sysfs reports them for
/// cpu0 — the same source the FMA GEMM blocking is tuned from. A level
/// sysfs does not list is `None`.
fn cache_sizes() -> [Option<u64>; 3] {
    let mut sizes = [None; 3];
    for idx in 0..6 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |leaf: &str| std::fs::read_to_string(format!("{base}/{leaf}")).ok();
        let (Some(level), Some(size), Some(ty)) = (read("level"), read("size"), read("type"))
        else {
            continue;
        };
        let size = size.trim();
        let (num, mult) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1 << 20),
            _ => (size, 1),
        };
        let Ok(n) = num.parse::<u64>() else { continue };
        let slot = match (level.trim(), ty.trim()) {
            ("1", "Instruction") => continue,
            ("1", _) => 0,
            ("2", _) => 1,
            ("3", _) => 2,
            _ => continue,
        };
        sizes[slot] = sizes[slot].or(Some(n * mult));
    }
    sizes
}

/// Git revision and dirty flag of the working directory, when it is the
/// top of a git checkout; `None` elsewhere (an exported source tree).
fn git_revision() -> Option<(String, bool)> {
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8_lossy(&out.stdout).trim().to_string();
    let status = Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()?;
    Some((rev, !status.stdout.is_empty()))
}

fn env_or_null(name: &str) -> Json {
    std::env::var(name).map_or(Json::Null, Json::Str)
}

/// The stamp: revision, core count, SIMD support, cache geometry, and the
/// environment overrides that change how the program runs.
pub fn stamp() -> Json {
    let (rev, dirty) = match git_revision() {
        Some((rev, dirty)) => (Json::Str(rev), Json::Bool(dirty)),
        None => (Json::Null, Json::Null),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (kernel, blocking) = nautilus_tensor::ops::gemm::kernel_info();
    let [l1d, l2, l3] = cache_sizes();
    let size = |s: Option<u64>| s.map_or(Json::Null, |b| Json::Int(b as i128));
    Json::obj([
        ("git_rev", rev),
        ("git_dirty", dirty),
        ("nproc", Json::Int(nproc as i128)),
        (
            "pool_threads",
            Json::Int(nautilus_util::pool::num_threads() as i128),
        ),
        (
            "avx2_fma",
            Json::Bool(nautilus_tensor::ops::gemm::fma_supported()),
        ),
        ("l1d_bytes", size(l1d)),
        ("l2_bytes", size(l2)),
        ("l3_bytes", size(l3)),
        ("gemm_kernel", Json::Str(kernel.as_str().into())),
        (
            "gemm_blocking",
            Json::obj([
                ("mc", Json::Int(blocking.mc as i128)),
                ("kc", Json::Int(blocking.kc as i128)),
                ("nc", Json::Int(blocking.nc as i128)),
            ]),
        ),
        ("NAUTILUS_THREADS", env_or_null("NAUTILUS_THREADS")),
        ("NAUTILUS_GEMM_KERNEL", env_or_null("NAUTILUS_GEMM_KERNEL")),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Cumulative `(steal, total)` CPU time of the machine in clock ticks,
/// from the first line of `/proc/stat`; `(0, 0)` where it is unreadable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings: a run with a high share measured a busy host.
pub fn steal_frac(start: (u64, u64), end: (u64, u64)) -> f64 {
    let total = end.1.saturating_sub(start.1);
    if total == 0 {
        0.0
    } else {
        end.0.saturating_sub(start.0) as f64 / total as f64
    }
}

/// CPU time (user + system) in seconds from a `stat` file of procfs.
fn cpu_secs(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesized command name start at field 3
    // (state); utime and stime are fields 14 and 15, in 1/100 s ticks.
    let fields: Vec<f64> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse().ok())
        .collect();
    fields.iter().sum::<f64>() / 100.0
}

/// CPU seconds this process has used, its ended threads included.
pub fn process_cpu_secs() -> f64 {
    cpu_secs("/proc/self/stat")
}

/// CPU seconds the calling thread has run, to the nanosecond
/// (`/proc/thread-self/schedstat`). Time the hypervisor stole from the
/// machine does not count, so on a busy host this moves far less than the
/// wall clock.
pub fn thread_cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}
