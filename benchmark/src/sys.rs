//! What the operating system and the toolchain know about this run:
//! process CPU time, peak memory, core count, commit and compiler.

use std::process::Command;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is 100 on every
/// Linux this runs on, and reading it would need a libc binding.
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used, in
/// 10 ms ticks: fine for a window of many seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after `)`.
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0.0 };
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick() + tick()) / CLK_TCK
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

/// `rustc -V` of the toolchain on the path (the one cargo built with).
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive_and_monotone() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..100_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.0);
        assert!(cores() >= 1);
    }
}
