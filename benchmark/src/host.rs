//! Facts about the machine and build, read from `/proc`, `/sys` and the
//! environment `run.sh` prepares. Every reader degrades to a neutral
//! value instead of failing: the facts annotate results, they do not
//! gate them.

use std::fs;

fn proc_kib(path: &str, key: &str) -> Option<f64> {
    fs::read_to_string(path).ok()?.lines().find(|l| l.starts_with(key))?.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` of this process in MiB (0 where `/proc` has none).
pub fn peak_rss_mib() -> f64 {
    proc_kib("/proc/self/status", "VmHWM:").unwrap_or(0.0) / 1024.0
}

pub fn mem_available_bytes() -> u64 {
    (proc_kib("/proc/meminfo", "MemAvailable:").unwrap_or(0.0) * 1024.0) as u64
}

/// Size of the largest cache sysfs lists for cpu0. In a VM this is the
/// host socket's LLC, not necessarily the share this guest gets.
pub fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let s = fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")).ok()?;
            let s = s.trim();
            let (num, mult) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1u64 << 10),
                b'M' => (&s[..s.len() - 1], 1u64 << 20),
                b'G' => (&s[..s.len() - 1], 1u64 << 30),
                _ => (s, 1),
            };
            Some(num.parse::<u64>().ok()? * mult)
        })
        .max()
        .unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg").map(|s| s.trim().to_string()).unwrap_or_else(|_| "unknown".into())
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).ok().filter(|v| !v.is_empty()).unwrap_or_else(|| "unknown".into())
}

/// `(key, value)` facts recorded with every output.
pub fn facts() -> Vec<(&'static str, String)> {
    vec![
        // The registry is unreachable, so the workspace is built against
        // the local stand-ins under benchmark/stubs (serial rayon).
        ("build", "cargo-release+stubs".into()),
        ("rayon_threads", env_or_unknown("RAYON_NUM_THREADS")),
        ("git_sha", env_or_unknown("GMGBENCH_GIT_SHA")),
        ("rustc", env_or_unknown("GMGBENCH_RUSTC")),
        ("nproc", nproc().to_string()),
        ("llc_bytes", llc_bytes().to_string()),
        ("mem_available_bytes", mem_available_bytes().to_string()),
        ("loadavg", loadavg()),
    ]
}
