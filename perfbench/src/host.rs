//! Host fingerprint and process memory.
//!
//! Results are comparable only between runs on the same host with the
//! same kernel and blocking, so every report carries the fingerprint and
//! `compare` refuses two reports whose host parts differ. The commit is
//! part of the stamp but not of the host identity: comparing commits is
//! the point.

use multicore_matmul::exec::blocking::{self, CacheLevels};
use multicore_matmul::exec::kernel;
use serde::Value;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The commit of the checkout, read from `.git` without running git;
/// `"unknown"` outside a git work tree.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// The part of the fingerprint two comparable results must share.
pub fn host_identity() -> Value {
    let c = CacheLevels::detect_host();
    let plan64 = blocking::active_plan::<f64>();
    let plan32 = blocking::active_plan::<f32>();
    obj(vec![
        ("cpu_model", Value::Str(cpu_model())),
        ("nproc", Value::UInt(nproc() as u64)),
        ("l1d_bytes", Value::UInt(c.l1d_bytes)),
        ("l2_bytes", Value::UInt(c.l2_bytes)),
        ("llc_bytes", Value::UInt(c.shared_bytes)),
        ("kernel_variant", Value::Str(kernel::variant().name().into())),
        ("plan_f64", Value::Str(plan64.to_string())),
        ("plan_f32", Value::Str(plan32.to_string())),
    ])
}

/// The full stamp: host identity plus the commit.
pub fn fingerprint() -> Value {
    obj(vec![("host", host_identity()), ("git_commit", Value::Str(git_commit()))])
}

/// A `VmXxx:` line of `/proc/self/status`, KiB.
fn status_kib(key: &str) -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, KiB.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:").unwrap_or(0)
}

/// Restart the peak count from the current resident set: give freed
/// heap pages back to the system, then reset VmHWM through
/// `/proc/self/clear_refs`. Returns whether the reset took effect; where
/// it cannot, [`peak_rss_kib`] keeps counting from process start.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap memory.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Current resident set of this process, KiB.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS:").unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_count_restarts_after_a_reset() {
        {
            let v = vec![1u8; 96 << 20];
            std::hint::black_box(&v);
        }
        let high = peak_rss_kib();
        if reset_peak_rss() {
            assert!(peak_rss_kib() + (48 << 10) < high, "{} vs {high}", peak_rss_kib());
        }
    }
}
