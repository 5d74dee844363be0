//! The clock, order statistics and process memory readings.

use std::time::Instant;

/// The benchmark's clock. Every timestamp goes through here; none feeds
/// back into what a crawl does.
pub fn now() -> Instant {
    // lint:allow(determinism) benchmark timing only, never read by the program under test
    Instant::now()
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule, or
/// 0 for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.clamp(1, sorted.len()) - 1)
        .copied()
        .unwrap_or(0)
}

/// How many samples of `sorted` lie strictly above its `q`-quantile.
pub fn beyond(sorted: &[u64], q: f64) -> usize {
    let cut = quantile(sorted, q);
    sorted.len() - sorted.partition_point(|&v| v <= cut)
}

/// Median of `values` (mean of the middle two for an even count), or 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mid = |i: usize| v.get(i).copied().unwrap_or(0.0);
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => mid(n / 2),
        _ => (mid(n / 2 - 1) + mid(n / 2)) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`, `VmRSS`), in bytes.
pub fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
        Some(kb * 1024)
    })
}

/// Bytes → megabytes (10⁶ bytes).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(beyond(&v, 0.99), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn reads_own_memory() {
        assert!(proc_status_bytes("VmHWM").is_some_and(|b| b > 0));
    }
}
