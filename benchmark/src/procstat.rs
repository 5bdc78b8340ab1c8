//! What the operating system says about this process: CPU time and peak
//! resident memory, read from `/proc` (Linux only, like the rest of the
//! serving stack's tooling).

use std::fs;

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`. Fixed at
/// 100 on every Linux architecture this repository builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of the `stat` file at `path`.
fn stat_cpu_seconds(path: &str) -> f64 {
    let stat = fs::read_to_string(path).expect("the stat file is readable");
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis, after which field 3 comes first.
    let rest = &stat[stat.rfind(')').expect("stat names the command") + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields
        .nth(11)
        .and_then(|f| f.parse().ok())
        .expect("utime is field 14");
    let stime: f64 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .expect("stime is field 15");
    (utime + stime) / TICKS_PER_SECOND
}

/// User plus system CPU seconds this process has used, threads that have
/// exited included. (The scheduler's exact per-thread clocks in
/// `schedstat` were tried and agree with these sampled times to a few
/// percent over a window of seconds; they lose a thread's time when it
/// exits, which the load-generator threads do at the window's end.)
pub fn cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// User plus system CPU seconds the calling thread has used.
pub fn thread_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// CPU seconds the host has kept from this machine's processors while
/// they had work to run (the `steal` column of `/proc/stat`, all
/// processors summed); 0 where the kernel does not report it.
pub fn stolen_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_ascii_whitespace().nth(8))
        .and_then(|steal| steal.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / TICKS_PER_SECOND)
}

/// The high-water mark of this process's resident set, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has a VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_rss_is_positive() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() - before >= 0.03);
        assert!(peak_rss_mb() > 1.0);
    }
}
