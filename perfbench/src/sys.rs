//! What the benchmark reads about its own process and machine: peak
//! memory, per-thread CPU time, load average, CPU steal, core count, the
//! source revision. Linux `/proc` files; every reader degrades to a neutral value
//! where a file is missing.

use std::collections::BTreeMap;
use std::fs;

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn vmhwm_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// The 1-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// CPU time the hypervisor gave to other guests ("steal"), summed over
/// every CPU, in seconds since boot.
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.strip_prefix("cpu ")?;
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    vroom_exec::available_workers()
}

/// CPU time of every live thread of this process, in nanoseconds, keyed by
/// thread id. Read from `/proc/self/task/*/schedstat` (nanosecond
/// resolution), falling back to `stat`'s clock ticks.
pub fn thread_cpu_ns() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let sched = fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok());
        let cpu = sched.or_else(|| {
            // stat fields 14 and 15 (utime, stime) in clock ticks, counted
            // after the parenthesised command name.
            let stat = fs::read_to_string(path.join("stat")).ok()?;
            let rest = stat.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks: u64 = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
            Some(ticks * 10_000_000)
        });
        if let Some(ns) = cpu {
            out.insert(tid, ns);
        }
    }
    out
}

/// The source revision, read from `.git` when the benchmark runs inside a
/// git checkout; `unknown` elsewhere.
pub fn git_revision() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `release` or `debug`.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
