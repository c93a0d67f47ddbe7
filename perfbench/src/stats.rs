//! Order statistics over timing samples.

use std::time::Duration;

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are at or below it (rank `ceil(p/100 * n)`,
/// 1-based); `None` when empty. Found by selection rather than a full
/// sort, in linear time, so it suits the million-sample query passes.
/// Permutes `samples`.
pub fn select_rank<T: Copy + Ord>(samples: &mut [T], p: f64) -> Option<T> {
    let rank = rank_of(samples.len(), p)?;
    Some(*samples.select_nth_unstable(rank).1)
}

/// The 0-based index nearest-rank picks for `p` percent of `n` samples.
fn rank_of(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// Median of float samples (mean of the middle two for an even count);
/// `0.0` when empty. Does not reorder the input.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Milliseconds in a duration, with full precision.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of durations, in milliseconds.
pub fn median_ms(samples: &[Duration]) -> f64 {
    median(&samples.iter().map(|&d| ms(d)).collect::<Vec<_>>())
}

/// `part / whole`, or `0.0` when `whole` is zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let mut v = vec![50u32, 15, 40, 20, 35];
        assert_eq!(select_rank(&mut v, 5.0), Some(15));
        assert_eq!(select_rank(&mut v, 30.0), Some(20));
        assert_eq!(select_rank(&mut v, 40.0), Some(20));
        assert_eq!(select_rank(&mut v, 50.0), Some(35));
        assert_eq!(select_rank(&mut v, 100.0), Some(50));
        assert_eq!(select_rank(&mut v, 0.0), Some(15), "p=0 is the minimum");
    }

    #[test]
    fn nearest_rank_handles_edges() {
        let mut empty: Vec<u32> = Vec::new();
        assert_eq!(select_rank(&mut empty, 50.0), None);
        let mut one = vec![7u32];
        assert_eq!(select_rank(&mut one, 99.0), Some(7));
        // p99 of 100 samples is the 99th smallest, not the maximum.
        let mut hundred: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(select_rank(&mut hundred, 99.0), Some(99));
        assert_eq!(select_rank(&mut hundred, 50.0), Some(50));
    }

    #[test]
    fn selection_agrees_with_the_sorted_rank() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut v: Vec<u32> = (0..1001)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 10_000) as u32
            })
            .collect();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
            assert_eq!(select_rank(&mut v, p), Some(sorted[rank - 1]), "p={p}");
        }
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
