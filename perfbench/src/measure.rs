//! Clocks and statistics: process CPU time from `getrusage`, peak memory,
//! percentiles, medians.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads `struct rusage` with the 64-bit Linux layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage_self() -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for this target
    // (checked by the layout gate above); getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage
}

/// User plus system CPU time of the whole process (all threads, including
/// ones that have exited), in seconds.
pub fn process_cpu_s() -> f64 {
    let u = rusage_self();
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&u.utime) + tv(&u.stime)
}

/// Peak resident set size of this process image so far, in MB (10^6
/// bytes): `VmHWM` from `/proc/self/status`. (`getrusage`'s `ru_maxrss`
/// would also count the parent's peak from before `exec`, e.g. cargo's.)
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The `p`-th percentile (`0.0..=1.0`) by linear interpolation between
/// closest ranks. `values` need not be sorted; empty input gives 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values` (0 for empty input).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rusage_reads_plausible_values() {
        let spin = Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_millis() < 20 {
            x = x.wrapping_add(1);
        }
        assert!(x > 0);
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.1);
    }
}
