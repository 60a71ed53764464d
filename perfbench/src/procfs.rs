//! The server's CPU time and peak memory, read from `/proc`.

use std::collections::BTreeMap;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux target this runs on).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU milliseconds from a `/proc/<pid>/stat` line. The
/// command field may hold spaces and parentheses, so fields are counted
/// after the last `)`: utime and stime are fields 14 and 15.
pub fn cpu_ms_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state).
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_S)
}

/// Peak resident set (`VmHWM`) in MiB from a `/proc/<pid>/status` text.
pub fn peak_rss_mb_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nanoseconds on CPU from a `/proc/<pid>/task/<tid>/schedstat` line
/// (its first field).
pub fn cpu_ns_from_schedstat(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// A CPU reading of process `pid`: nanoseconds per live thread, and the
/// whole process's tick-resolution total (which keeps exited threads).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuReading {
    pub threads_ns: BTreeMap<u32, u64>,
    pub total_ms: f64,
}

pub fn cpu_reading(pid: u32) -> Option<CpuReading> {
    let mut threads_ns = BTreeMap::new();
    for entry in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let entry = entry.ok()?;
        let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        // A thread may exit between listing and reading.
        if let Some(ns) = std::fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|s| cpu_ns_from_schedstat(&s))
        {
            threads_ns.insert(tid, ns);
        }
    }
    let total_ms = cpu_ms_from_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)?;
    Some(CpuReading {
        threads_ns,
        total_ms,
    })
}

/// CPU milliseconds used between two readings: per-thread nanoseconds
/// when every thread of `before` is still alive in `after` (threads
/// born in between count whole), else the tick-resolution total.
pub fn cpu_ms_between(before: &CpuReading, after: &CpuReading) -> f64 {
    if before
        .threads_ns
        .keys()
        .all(|t| after.threads_ns.contains_key(t))
    {
        let ns: u64 = after
            .threads_ns
            .iter()
            .map(|(t, &ns)| ns.saturating_sub(before.threads_ns.get(t).copied().unwrap_or(0)))
            .sum();
        ns as f64 / 1e6
    } else {
        after.total_ms - before.total_ms
    }
}

/// Peak resident MiB of process `pid` so far.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    peak_rss_mb_from_status(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_ticks_after_an_awkward_command_name() {
        let stat = "4242 (pga (shop) serve) S 1 4242 4242 0 -1 4194560 1500 0 0 0 \
                    250 75 0 0 20 0 5 0 123456 26000000 3000 18446744073709551615";
        assert_eq!(cpu_ms_from_stat(stat), Some(3250.0));
        assert_eq!(cpu_ms_from_stat("garbage"), None);
    }

    #[test]
    fn parses_peak_rss() {
        let status =
            "Name:\tpga-shop-serve\nVmPeak:\t  100000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(peak_rss_mb_from_status(status), Some(5.0));
        assert_eq!(peak_rss_mb_from_status("Name:\tx\n"), None);
    }

    #[test]
    fn parses_schedstat_and_counts_new_threads_whole() {
        assert_eq!(cpu_ns_from_schedstat("5000123 42 7\n"), Some(5_000_123));
        assert_eq!(cpu_ns_from_schedstat(""), None);
        let reading = |threads: &[(u32, u64)], total_ms| CpuReading {
            threads_ns: threads.iter().copied().collect(),
            total_ms,
        };
        let before = reading(&[(1, 1_000_000), (2, 500_000)], 10.0);
        let after = reading(&[(1, 3_000_000), (2, 500_000), (3, 250_000)], 20.0);
        assert_eq!(cpu_ms_between(&before, &after), 2.25);
        // Thread 2 exited: only the process total still has its time.
        let exited = reading(&[(1, 3_000_000)], 20.0);
        assert_eq!(cpu_ms_between(&before, &exited), 10.0);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        let r = cpu_reading(pid).unwrap();
        assert!(r.threads_ns.contains_key(&pid));
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
    }
}
