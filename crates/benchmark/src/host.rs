//! Facts about the host a result was measured on. A number is never
//! printed without them: thread setting, core count, compiler, and the
//! CPU features `aqua-linalg`'s SIMD dispatch keys on.

use serde_json::{json, Value};

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line: a benchmark
/// that silently reported 0 MiB would pass every regression bound.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM line in /proc/self/status")
}

/// Cores the OS lets this process use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The SIMD tier `aqua-linalg` dispatches to on this CPU (it never
/// enables FMA, so only the vector width matters).
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host facts recorded with every result.
pub fn facts(threads: usize) -> Value {
    json!({
        "nproc": nproc(),
        "aqua_threads": threads,
        "rustc": rustc_version(),
        "simd_tier": simd_tier(),
        "arch": std::env::consts::ARCH,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn facts_name_the_thread_setting() {
        let f = facts(2);
        assert_eq!(f["aqua_threads"].as_i64(), Some(2));
        assert!(f["nproc"].as_i64().unwrap() >= 1);
    }
}
