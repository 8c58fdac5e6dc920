//! Process figures read from `/proc/self`.

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(cpu_ns, runq_wait_ns)` of this process's main thread, from
/// `/proc/self/schedstat`: time on a CPU and time spent runnable but
/// waiting for one. All work runs on the main thread (`jobs = 1`).
pub fn schedstat() -> Option<(u64, u64)> {
    let s = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let mut it = s.split_whitespace();
    let cpu = it.next()?.parse().ok()?;
    let wait = it.next()?.parse().ok()?;
    Some((cpu, wait))
}
