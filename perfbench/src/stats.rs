//! Order statistics and process accounting shared by both run modes.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(p/100 · n)` (1-based), so `p = 100` is the maximum and `p = 50`
/// the lower median. Returns `NaN` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match rank(sorted.len(), p) {
        0 => f64::NAN,
        r => sorted[r - 1],
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples (0 when
/// `n == 0`).
#[must_use]
pub fn rank(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples rank strictly above the `p`-th percentile.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of `candidates` (any order) that leaves at least
/// `min_beyond` of `n` samples above it, if any does.
#[must_use]
pub fn highest_tail_pct(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates.iter().copied().filter(|&p| beyond(n, p) >= min_beyond).max_by(|a, b| a.total_cmp(b))
}

/// Median of unsorted values (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Milliseconds as a float.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// User + system CPU time of this process, all threads, living or
/// joined (fields 14 and 15 of `/proc/self/stat`, in clock ticks of
/// 1/100 s).
#[must_use]
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    // After ')' the first field is field 3 (state), so utime (14) is
    // index 11 and stime (15) index 12.
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 95.0), 5);
        assert_eq!(beyond(50, 80.0), 10);
        assert_eq!(beyond(3, 100.0), 0);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let c = [50.0, 75.0, 80.0, 90.0, 95.0, 99.0];
        assert_eq!(highest_tail_pct(1000, &c, 10), Some(99.0));
        assert_eq!(highest_tail_pct(200, &c, 10), Some(95.0));
        assert_eq!(highest_tail_pct(199, &c, 10), Some(90.0));
        assert_eq!(highest_tail_pct(100, &c, 10), Some(90.0));
        assert_eq!(highest_tail_pct(99, &c, 10), Some(80.0));
        assert_eq!(highest_tail_pct(50, &c, 10), Some(80.0));
        assert_eq!(highest_tail_pct(20, &c, 10), Some(50.0));
        // Too few samples: no percentile has ten beyond it.
        assert_eq!(highest_tail_pct(19, &c, 10), None);
        assert_eq!(highest_tail_pct(3, &c, 10), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mib() > 0.0);
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < Duration::from_millis(50) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        assert!(x != 1 && process_cpu() > Duration::ZERO);
    }
}
