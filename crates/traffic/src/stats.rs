//! Steady-state output analysis: warmup truncation, batch-means
//! confidence intervals, throughput, and the saturation detector.
//!
//! Open-loop simulations start empty, so early sessions see an
//! unrepresentatively idle network; the engine discards a configured
//! *warmup* prefix before measuring. Because successive session
//! latencies are autocorrelated (they share channels), the classic
//! i.i.d. confidence interval is invalid — the module uses the
//! **batch-means** method instead: partition the measured sequence into
//! `k` contiguous batches, treat the batch means as (approximately)
//! independent, and build a Student-t interval over them.
//!
//! Everything here is pure f64 arithmetic over already-deterministic
//! inputs (`sqrt` is correctly rounded per IEEE-754), so reports are
//! byte-stable across platforms.

use wormsim::SimTime;

/// Two-sided 95% Student-t critical values, indexed by degrees of
/// freedom (1-based; index 0 unused). Beyond the table the normal
/// quantile 1.96 is used.
const T_95: [f64; 31] = [
    f64::NAN,
    12.706,
    4.303,
    3.182,
    2.776,
    2.571,
    2.447,
    2.365,
    2.306,
    2.262,
    2.228,
    2.201,
    2.179,
    2.160,
    2.145,
    2.131,
    2.120,
    2.110,
    2.101,
    2.093,
    2.086,
    2.080,
    2.074,
    2.069,
    2.064,
    2.060,
    2.056,
    2.052,
    2.048,
    2.045,
    2.042,
];

fn t_crit(df: usize) -> f64 {
    if df == 0 {
        f64::NAN
    } else if df < T_95.len() {
        T_95[df]
    } else {
        1.96
    }
}

/// A batch-means summary of one measured latency sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchMeans {
    /// Observations measured (post-warmup, completed sessions).
    pub n: usize,
    /// Number of batches actually formed.
    pub batches: usize,
    /// Grand mean over all measured observations.
    pub mean: f64,
    /// Half-width of the 95% confidence interval on the mean (batch
    /// means, Student-t). `NaN` with fewer than 2 batches.
    pub ci_half_width: f64,
}

impl BatchMeans {
    /// Computes batch-means statistics over `xs` using up to
    /// `max_batches` contiguous, nearly-equal batches: when `n` is not
    /// a multiple of the batch count, the remainder is distributed one
    /// observation at a time across the leading batches, so batch sizes
    /// never differ by more than 1. (Folding the whole remainder into
    /// one batch — the old behavior — weights that batch's mean
    /// equally in the variance while it summarizes up to twice as many
    /// observations, biasing the confidence interval whenever
    /// `n % k != 0`.)
    ///
    /// With fewer observations than batches, each observation is its
    /// own batch. Empty input gives `n = 0` and `NaN` statistics.
    #[must_use]
    pub fn of(xs: &[f64], max_batches: usize) -> BatchMeans {
        let n = xs.len();
        if n == 0 {
            return BatchMeans {
                n: 0,
                batches: 0,
                mean: f64::NAN,
                ci_half_width: f64::NAN,
            };
        }
        let mean = xs.iter().sum::<f64>() / n as f64;
        let k = max_batches.max(1).min(n);
        let base = n / k;
        let rem = n % k;
        let mut batch_means = Vec::with_capacity(k);
        let mut start = 0;
        for b in 0..k {
            // The first `rem` batches absorb one extra observation.
            let len = base + usize::from(b < rem);
            let end = start + len;
            batch_means.push(xs[start..end].iter().sum::<f64>() / len as f64);
            start = end;
        }
        debug_assert_eq!(start, n);
        let ci_half_width = if k < 2 {
            f64::NAN
        } else {
            let bm_mean = batch_means.iter().sum::<f64>() / k as f64;
            let var = batch_means
                .iter()
                .map(|&m| (m - bm_mean) * (m - bm_mean))
                .sum::<f64>()
                / (k as f64 - 1.0);
            t_crit(k - 1) * (var / k as f64).sqrt()
        };
        BatchMeans {
            n,
            batches: k,
            mean,
            ci_half_width,
        }
    }
}

/// The steady-state measurement of one run's sessions: warmup
/// truncation, the delivered share of the measured sessions, batch-means
/// latency over the delivered ones, and their rate per millisecond of
/// measurement span (first measured arrival to last delivery).
pub(crate) struct Measurement {
    pub(crate) warmup: usize,
    pub(crate) measured: usize,
    pub(crate) delivered: usize,
    pub(crate) ratio: f64,
    pub(crate) latency: BatchMeans,
    pub(crate) per_ms: f64,
}

impl Measurement {
    /// Measures `sessions`, each read by `outcome` as
    /// `(arrival, completion, delivered)`, after dropping the first
    /// `warmup`. The ratio is 1.0 when nothing was measured.
    pub(crate) fn of<S>(
        sessions: &[S],
        warmup: usize,
        max_batches: usize,
        outcome: impl Fn(&S) -> (SimTime, SimTime, bool),
    ) -> Measurement {
        let warmup = warmup.min(sessions.len());
        let measured = &sessions[warmup..];
        let delivered = || measured.iter().map(&outcome).filter(|&(_, _, ok)| ok);
        let latencies_ms: Vec<f64> = delivered()
            .map(|(arrival, completion, _)| completion.saturating_sub(arrival).as_ms())
            .collect();
        let count = latencies_ms.len();
        let ratio = if measured.is_empty() {
            1.0
        } else {
            count as f64 / measured.len() as f64
        };
        let last = delivered().map(|(_, completion, _)| completion).max();
        let span_ms = match (measured.first(), last) {
            (Some(first), Some(last)) => last.saturating_sub(outcome(first).0).as_ms(),
            _ => 0.0,
        };
        let per_ms = if span_ms > 0.0 {
            count as f64 / span_ms
        } else {
            0.0
        };
        Measurement {
            warmup,
            measured: measured.len(),
            delivered: count,
            ratio,
            latency: BatchMeans::of(&latencies_ms, max_batches),
            per_ms,
        }
    }
}

/// Latency quantiles in milliseconds, resolved from a log₂-bucketed
/// [`wormsim::Histogram`] of **nanosecond** samples. Each quantile is
/// the upper bound of the bucket its rank falls in (conservative within
/// a factor of 2 — the price of the fixed-size deterministic
/// representation the telemetry time-series is built on). All three
/// are `NaN` for an empty histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantiles {
    /// Median latency (ms), bucket-resolved.
    pub p50_ms: f64,
    /// 95th-percentile latency (ms), bucket-resolved.
    pub p95_ms: f64,
    /// 99th-percentile latency (ms), bucket-resolved.
    pub p99_ms: f64,
}

impl Quantiles {
    /// Resolves p50/p95/p99 from a histogram of nanosecond samples.
    #[must_use]
    pub fn from_latency_histogram(h: &wormsim::Histogram) -> Quantiles {
        let ms = |q: f64| -> f64 { h.quantile(q).map_or(f64::NAN, |ns| ns as f64 / 1_000_000.0) };
        Quantiles {
            p50_ms: ms(0.50),
            p95_ms: ms(0.95),
            p99_ms: ms(0.99),
        }
    }
}

/// One measured load point of a latency-vs-offered-load sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadPoint {
    /// Offered load, sessions per millisecond.
    pub offered: f64,
    /// Mean session latency (ms) among completed measured sessions.
    pub mean_latency_ms: f64,
    /// Fraction of measured sessions that completed inside the window.
    pub completion_ratio: f64,
}

/// Detects the saturation load of a sweep: the smallest offered load at
/// which the network stops keeping up, defined as **either**
///
/// * mean latency exceeding `latency_factor` × the base (lowest-load)
///   latency — the latency knee, **or**
/// * the completion ratio dropping below `min_completion` — sessions
///   overflowing the observation window outright.
///
/// Points must be sorted by ascending offered load. Returns `None` when
/// every point is below both thresholds (the sweep never saturated).
///
/// ```
/// use traffic::stats::{saturation_point, LoadPoint};
/// let pts = [
///     LoadPoint { offered: 1.0, mean_latency_ms: 0.4, completion_ratio: 1.0 },
///     LoadPoint { offered: 2.0, mean_latency_ms: 0.5, completion_ratio: 1.0 },
///     LoadPoint { offered: 4.0, mean_latency_ms: 2.9, completion_ratio: 0.98 },
/// ];
/// assert_eq!(saturation_point(&pts, 4.0, 0.9), Some(4.0));
/// ```
/// The base latency is the **first finite** mean in the sweep: a point
/// with zero completed sessions reports `NaN` latency, and using it as
/// the base would silently disable the latency-knee test for the whole
/// sweep (every `NaN` comparison is false). The completion-ratio test
/// is independent of the base and always applies.
#[must_use]
pub fn saturation_point(
    points: &[LoadPoint],
    latency_factor: f64,
    min_completion: f64,
) -> Option<f64> {
    let base = points
        .iter()
        .map(|p| p.mean_latency_ms)
        .find(|m| m.is_finite());
    points
        .iter()
        .find(|p| {
            matches!(base, Some(b) if b > 0.0 && p.mean_latency_ms > latency_factor * b)
                || p.completion_ratio < min_completion
        })
        .map(|p| p.offered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_means_of_a_constant_sequence() {
        let xs = vec![2.5; 40];
        let bm = BatchMeans::of(&xs, 10);
        assert_eq!(bm.n, 40);
        assert_eq!(bm.batches, 10);
        assert!((bm.mean - 2.5).abs() < 1e-12);
        assert!(bm.ci_half_width.abs() < 1e-12);
    }

    #[test]
    fn batch_means_interval_covers_a_linear_ramp_mean() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let bm = BatchMeans::of(&xs, 10);
        assert!((bm.mean - 49.5).abs() < 1e-9);
        assert!(bm.ci_half_width > 0.0);
    }

    #[test]
    fn batch_means_degenerates_gracefully() {
        assert_eq!(BatchMeans::of(&[], 10).n, 0);
        let one = BatchMeans::of(&[7.0], 10);
        assert_eq!(one.batches, 1);
        assert!((one.mean - 7.0).abs() < 1e-12);
        assert!(one.ci_half_width.is_nan());
        // Fewer observations than batches: one batch per observation.
        let three = BatchMeans::of(&[1.0, 2.0, 3.0], 10);
        assert_eq!(three.batches, 3);
        assert!(three.ci_half_width > 0.0);
    }

    #[test]
    fn batch_remainder_is_distributed_across_batches() {
        // n = 10, k = 4 → batch sizes 3, 3, 2, 2 (never 2, 2, 2, 4).
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let bm = BatchMeans::of(&xs, 4);
        assert_eq!(bm.batches, 4);
        assert!((bm.mean - 4.5).abs() < 1e-12);
        // Expected batch means over [0,1,2], [3,4,5], [6,7], [8,9].
        let means = [1.0, 4.0, 6.5, 8.5];
        let bm_mean: f64 = means.iter().sum::<f64>() / 4.0;
        let var: f64 = means
            .iter()
            .map(|m| (m - bm_mean) * (m - bm_mean))
            .sum::<f64>()
            / 3.0;
        let expect = 3.182 * (var / 4.0).sqrt();
        assert!(
            (bm.ci_half_width - expect).abs() < 1e-9,
            "CI must weight nearly-equal batches: got {}, want {expect}",
            bm.ci_half_width
        );
    }

    #[test]
    fn equal_batches_are_unchanged_by_the_remainder_rule() {
        let xs: Vec<f64> = (0..40).map(f64::from).collect();
        let a = BatchMeans::of(&xs, 8); // 40 % 8 == 0: exact batches
        assert_eq!(a.batches, 8);
        // Batch b covers 5 consecutive values with mean 5b + 2.
        let means: Vec<f64> = (0..8).map(|b| 5.0 * f64::from(b) + 2.0).collect();
        let bm_mean: f64 = means.iter().sum::<f64>() / 8.0;
        let var: f64 = means
            .iter()
            .map(|m| (m - bm_mean) * (m - bm_mean))
            .sum::<f64>()
            / 7.0;
        let expect = 2.365 * (var / 8.0).sqrt();
        assert!((a.ci_half_width - expect).abs() < 1e-9);
    }

    #[test]
    fn saturation_by_latency_knee() {
        let pts = [
            LoadPoint {
                offered: 0.5,
                mean_latency_ms: 1.0,
                completion_ratio: 1.0,
            },
            LoadPoint {
                offered: 1.0,
                mean_latency_ms: 1.5,
                completion_ratio: 1.0,
            },
            LoadPoint {
                offered: 2.0,
                mean_latency_ms: 9.0,
                completion_ratio: 1.0,
            },
        ];
        assert_eq!(saturation_point(&pts, 4.0, 0.9), Some(2.0));
    }

    #[test]
    fn saturation_by_window_overflow() {
        let pts = [
            LoadPoint {
                offered: 0.5,
                mean_latency_ms: 1.0,
                completion_ratio: 1.0,
            },
            LoadPoint {
                offered: 1.0,
                mean_latency_ms: 1.2,
                completion_ratio: 0.5,
            },
        ];
        assert_eq!(saturation_point(&pts, 10.0, 0.9), Some(1.0));
    }

    #[test]
    fn unsaturated_sweep_returns_none() {
        let pts = [
            LoadPoint {
                offered: 0.5,
                mean_latency_ms: 1.0,
                completion_ratio: 1.0,
            },
            LoadPoint {
                offered: 1.0,
                mean_latency_ms: 1.1,
                completion_ratio: 1.0,
            },
        ];
        assert_eq!(saturation_point(&pts, 4.0, 0.9), None);
        assert_eq!(saturation_point(&[], 4.0, 0.9), None);
    }

    #[test]
    fn nan_base_point_does_not_disable_the_latency_knee() {
        // The lowest load completed zero sessions (NaN latency, caught
        // by the completion test is NOT the case here: ratio kept high
        // to isolate the knee path). The knee must be measured against
        // the first *finite* latency instead.
        let pts = [
            LoadPoint {
                offered: 0.25,
                mean_latency_ms: f64::NAN,
                completion_ratio: 1.0,
            },
            LoadPoint {
                offered: 0.5,
                mean_latency_ms: 1.0,
                completion_ratio: 1.0,
            },
            LoadPoint {
                offered: 2.0,
                mean_latency_ms: 9.0,
                completion_ratio: 1.0,
            },
        ];
        assert_eq!(
            saturation_point(&pts, 4.0, 0.9),
            Some(2.0),
            "knee must fall back to the first finite-latency base"
        );
        // All-NaN latencies: the knee test stays off, the completion
        // test still works.
        let all_nan = [LoadPoint {
            offered: 1.0,
            mean_latency_ms: f64::NAN,
            completion_ratio: 0.2,
        }];
        assert_eq!(saturation_point(&all_nan, 4.0, 0.9), Some(1.0));
    }
}
