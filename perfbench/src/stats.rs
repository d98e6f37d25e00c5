//! Sample statistics shared by every workload: medians, the supported
//! tail percentile, the steady window, and state-error norms.

/// Minimum number of samples that must lie beyond a tail percentile for
/// it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// Median of an ascending-sorted sample (mean of the two middle values
/// for an even count); 0 when empty.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median of an unsorted sample.
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// A tail percentile as reported: which percentile it is, its value, and
/// the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (e.g. `99.0`).
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// The `wanted` percentile (in `(0, 100)`) of an ascending-sorted sample
/// by nearest rank, but only when at least [`TAIL_SUPPORT`] samples lie
/// beyond it; otherwise the highest percentile that has that support.
/// A tail is never reported below the median: with too few samples for a
/// supported rank above it, the median is returned (`pct == 50`).
pub fn tail(sorted: &[f64], wanted: f64) -> Tail {
    let n = sorted.len();
    // Nearest rank: the smallest index i with (i + 1) / n >= wanted / 100.
    let want_idx = ((wanted / 100.0) * n as f64).ceil() as usize;
    let want_idx = want_idx.clamp(1, n.max(1)) - 1;
    let Some(max_idx) = n.checked_sub(1 + TAIL_SUPPORT) else {
        return Tail {
            pct: 50.0,
            value: median(sorted),
            n,
        };
    };
    if want_idx <= max_idx {
        Tail {
            pct: wanted,
            value: sorted[want_idx],
            n,
        }
    } else if 2 * (max_idx + 1) > n {
        Tail {
            pct: 100.0 * (max_idx + 1) as f64 / n as f64,
            value: sorted[max_idx],
            n,
        }
    } else {
        Tail {
            pct: 50.0,
            value: median(sorted),
            n,
        }
    }
}

/// The steady part of a run's publish timeline: every publish after the
/// first `warmup` ones. Teardown follows the last publish and is never in
/// a publish timeline, so only the warm-up needs trimming. `None` when
/// fewer than two publishes remain (no interval to measure).
pub fn steady_window(publish_times: &[f64], warmup: usize) -> Option<&[f64]> {
    let w = publish_times.get(warmup..)?;
    (w.len() >= 2).then_some(w)
}

/// Consecutive differences of a non-decreasing timeline.
pub fn intervals(times: &[f64]) -> Vec<f64> {
    times.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Root-mean-square difference of two equally long vectors.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmse over vectors of different length");
    let s: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (s / a.len().max(1) as f64).sqrt()
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_of(&[9.0, 1.0, 4.0, 2.0]), 3.0);
    }

    #[test]
    fn tail_reports_the_wanted_percentile_when_ten_samples_lie_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.n, 2000);
        // 20 samples lie beyond the reported rank.
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 20);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        // 100 samples: p99 has only one sample beyond it, so the helper
        // reports p90, the highest rank with ten beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_SUPPORT);
        // Exactly at the support boundary the wanted rank is kept.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_SUPPORT);
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_median() {
        let t = tail(&[1.0, 3.0, 5.0], 99.0);
        assert_eq!((t.pct, t.value, t.n), (50.0, 3.0, 3));
        let t = tail(&[], 99.0);
        assert_eq!((t.pct, t.value, t.n), (50.0, 0.0, 0));
        // 14 samples support only p28.6, below the median: report the median.
        let v: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(
            tail(&v, 99.0),
            Tail {
                pct: 50.0,
                value: 7.5,
                n: 14
            }
        );
        // 30 samples support p66.7.
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!(t.value, 20.0);
        assert!((t.pct - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn steady_window_drops_the_warmup_and_needs_an_interval() {
        let times = [0.0, 0.5, 0.6, 0.7, 0.8];
        assert_eq!(steady_window(&times, 2), Some(&times[2..]));
        assert_eq!(steady_window(&times, 0), Some(&times[..]));
        assert_eq!(steady_window(&times, 3), Some(&times[3..]));
        assert_eq!(steady_window(&times, 4), None);
        assert_eq!(steady_window(&times, 9), None);
        let w = steady_window(&times, 2).unwrap();
        let iv = intervals(w);
        assert_eq!(iv.len(), 2);
        assert!(iv.iter().all(|d| (d - 0.1).abs() < 1e-12));
    }

    #[test]
    fn rmse_and_mean() {
        assert_eq!(rmse(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
