//! Host and process state read from `/proc` (Linux only, no extra crates).

use std::time::Duration;

/// Clock ticks per second of the `/proc` CPU-time fields (`USER_HZ`,
/// fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field n is `fields[n - 3]`.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MB (`VmHWM`) from the text of
/// `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The one-minute load average and the runnable-task count from the text
/// of `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<(f64, u32)> {
    let mut it = text.split_whitespace();
    let load1 = it.next()?.parse().ok()?;
    let running = it.nth(2)?.split('/').next()?.parse().ok()?;
    Some((load1, running))
}

/// `(busy, total)` jiffies of the aggregate `cpu` line of `/proc/stat`;
/// idle and iowait count as not busy.
pub fn parse_host_jiffies(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let total: u64 = v.iter().take(8).sum();
    let idle = v.get(3)? + v.get(4).copied().unwrap_or(0);
    Some((total - idle, total))
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// CPU seconds this process has used so far, all threads.
pub fn cpu_seconds() -> f64 {
    read("/proc/self/stat")
        .and_then(|s| parse_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// Peak resident memory of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| parse_peak_rss_mb(&s))
        .unwrap_or(0.0)
}

/// `(load1, runnable tasks)`, or zeros where `/proc` is unavailable.
pub fn loadavg() -> (f64, u32) {
    read("/proc/loadavg")
        .and_then(|s| parse_loadavg(&s))
        .unwrap_or((0.0, 0))
}

/// Share of the host's CPU time that was busy over `window`, while this
/// process sleeps: the load other processes put on the host.
pub fn host_busy_share(window: Duration) -> f64 {
    let sample = || read("/proc/stat").and_then(|s| parse_host_jiffies(&s));
    let before = sample();
    std::thread::sleep(window);
    let (Some((b0, t0)), Some((b1, t1))) = (before, sample()) else {
        return 0.0;
    };
    crate::stats::ratio(b1.saturating_sub(b0) as f64, t1.saturating_sub(t0) as f64)
}

/// Host state taken before a run.
#[derive(Debug, Clone, Copy)]
pub struct HostState {
    /// Worker threads the host offers this process.
    pub nproc: usize,
    /// One-minute load average at the start.
    pub load1: f64,
    /// Runnable tasks at the start (this process included).
    pub running: u32,
    /// Busy share of all CPUs over a short idle window at the start.
    pub busy_share: f64,
}

impl HostState {
    /// Samples the host; takes about a quarter of a second.
    pub fn capture() -> Self {
        let (load1, running) = loadavg();
        HostState {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            load1,
            running,
            busy_share: host_busy_share(Duration::from_millis(250)),
        }
    }

    /// Whether other work kept more than a quarter of the host busy while
    /// this process was idle.
    pub fn loaded(&self) -> bool {
        self.busy_share > 0.25
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_fields_after_tricky_comm() {
        let stat = "4242 (my (odd) prog) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 3 0 1234 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.25));
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_peak_rss() {
        let status = "Name:\tperf\nVmPeak:\t  900 kB\nVmHWM:\t  51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(50.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn loadavg_fields() {
        assert_eq!(parse_loadavg("1.85 2.14 0.33 3/85 7255\n"), Some((1.85, 3)));
        assert_eq!(parse_loadavg("garbage"), None);
    }

    #[test]
    fn host_jiffies() {
        let text = "cpu  100 5 20 800 10 0 5 0 0 0\ncpu0 50 2 10 400 5 0 2 0 0 0\n";
        // total 940, idle 800 + iowait 10.
        assert_eq!(parse_host_jiffies(text), Some((130, 940)));
    }

    #[test]
    fn live_proc_reads_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(HostState::capture().nproc >= 1);
    }
}
