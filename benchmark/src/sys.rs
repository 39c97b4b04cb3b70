//! Host readings: process CPU time and memory from `/proc`, and the
//! manifest that stamps every result file.

use std::fs;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` is 100
/// on every Linux ABI; std has no `sysconf`, so it is a constant here.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads, exited ones
/// included (`utime` + `stime` of `/proc/self/stat`). 0 where `/proc`
/// is not available.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    let utime = ticks(fields.next());
    let stime = ticks(fields.next());
    (utime + stime) / USER_HZ
}

fn status_kb(key: &str) -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process, in MB (`VmHWM`): since the last
/// [`reset_peak_rss`] that worked, or else since the process started.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resets the peak resident set to the current one (`5` written to
/// `/proc/self/clear_refs`, Linux 4.0 and later). Returns whether the
/// kernel took it.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Current resident set of this process, in bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS:") * 1024.0
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a result file came from: what `compare` prints beside the
/// numbers, and what it refuses to compare across (`seed`, `smoke`).
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    pub git_rev: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub profile: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl Manifest {
    /// Reads the host; `git_rev` is `unknown` outside a git checkout.
    pub fn collect(seed: u64, seconds: f64, smoke: bool) -> Manifest {
        Manifest {
            git_rev: command_line("git", &["rev-parse", "--short", "HEAD"]),
            nproc: ldr_bench::workpool::host_cores(),
            cpu_model: cpu_model(),
            rustc: command_line("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release opt-level=3 debug=true".to_string()
            },
            seed,
            seconds,
            smoke,
        }
    }
}
