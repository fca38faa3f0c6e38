//! Order statistics for the benchmark's timings.
//!
//! Percentiles are nearest-rank: the `q`-th percentile of `n` sorted
//! samples is the sample at rank `ceil(q·n)` (1-based). A tail percentile
//! is only meaningful when enough samples lie beyond it, so
//! [`percentile`] refuses one with fewer than [`MIN_BEYOND`] samples above
//! its rank, and [`tail`] reports the highest percentile the sample
//! supports, capped at p99.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Highest percentile [`tail`] ever reports.
pub const TAIL_CAP: f64 = 0.99;

/// 1-based nearest rank of the `q`-quantile among `n` samples. The small
/// slack keeps `q = k/n` at rank `k` despite rounding in `q·n`.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Nearest-rank median; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    Some(s[rank(0.5, s.len()) - 1])
}

/// Nearest-rank `q`-quantile, reported only when at least
/// [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let r = rank(q, s.len());
    (s.len() - r >= MIN_BEYOND).then(|| s[r - 1])
}

/// The highest supported tail: `(q, value)` for the largest `q ≤ p99`
/// with at least [`MIN_BEYOND`] samples beyond it. `None` when the sample
/// is too small to support any percentile above the median.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 * MIN_BEYOND + 1 {
        return None;
    }
    // The largest rank with MIN_BEYOND samples above it is n - MIN_BEYOND;
    // the largest q whose nearest rank does not exceed it is that rank / n.
    let q = ((n - MIN_BEYOND) as f64 / n as f64).min(TAIL_CAP);
    percentile(xs, q).map(|v| (q, v))
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A timing summary: median and highest supported tail, with the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Tail quantile reported, or `None` if the sample is too small.
    pub tail_q: Option<f64>,
    /// Value at `tail_q`, or the maximum when no tail is supported.
    pub tail: f64,
}

impl Summary {
    /// Summarizes a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample: every timed phase records at least one.
    pub fn of(xs: &[f64]) -> Summary {
        let p50 = median(xs).expect("a timed phase records at least one sample");
        match tail(xs) {
            Some((q, v)) => Summary {
                n: xs.len(),
                p50,
                tail_q: Some(q),
                tail: v,
            },
            None => Summary {
                n: xs.len(),
                p50,
                tail_q: None,
                tail: sorted(xs)[xs.len() - 1],
            },
        }
    }

    /// Median and `q`-quantile; falls back to [`Summary::of`] when the
    /// sample does not support `q`.
    pub fn at(xs: &[f64], q: f64) -> Summary {
        match (median(xs), percentile(xs, q)) {
            (Some(p50), Some(tail)) => Summary {
                n: xs.len(),
                p50,
                tail_q: Some(q),
                tail,
            },
            _ => Summary::of(xs),
        }
    }

    /// Median across fixed time windows of each window's median and
    /// `q`-quantile.
    ///
    /// `samples` are `(time, value)`; a window holds the samples whose
    /// time falls in `[k·window, (k+1)·window)` from the earliest one.
    /// Only windows that support `q` (ten samples beyond it) count. One
    /// stall of a shared host spoils the tail of the window it lands in,
    /// not the whole run's, so the median across windows is steady where a
    /// single run-wide percentile is not. Falls back to [`Summary::of`]
    /// over everything when no window qualifies.
    pub fn windowed(samples: &[(u64, f64)], window: u64, q: f64) -> Summary {
        assert!(window > 0, "window must be positive");
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let Some(t0) = samples.iter().map(|s| s.0).min() else {
            return Summary::of(&all);
        };
        let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for &(t, v) in samples {
            windows.entry((t - t0) / window).or_default().push(v);
        }
        let per: Vec<(f64, f64)> = windows
            .values()
            .filter_map(|w| Some((median(w)?, percentile(w, q)?)))
            .collect();
        if per.is_empty() {
            return Summary::of(&all);
        }
        let med = |f: fn(&(f64, f64)) -> f64| {
            median(&per.iter().map(f).collect::<Vec<_>>()).expect("non-empty")
        };
        Summary {
            n: all.len(),
            p50: med(|w| w.0),
            tail_q: Some(q),
            tail: med(|w| w.1),
        }
    }

    /// `p50 … pNN (n=…)` for the human-readable report.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail_q {
            Some(q) => format!("p{}", fmt_q(q)),
            None => "max".to_string(),
        };
        format!(
            "p50 {:.3}{unit}  {tail} {:.3}{unit}  (n={})",
            self.p50, self.tail, self.n
        )
    }
}

/// `0.99 → "99"`, `0.9667 → "96.7"`.
fn fmt_q(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("{}", pct.round() as u64)
    } else {
        format!("{pct:.1}")
    }
}

/// A log-bucketed histogram for call durations too frequent to keep one
/// by one (an idle pump loop calls `pump` millions of times a second).
/// Buckets grow by 2%, so a reported quantile is within 2% above the true
/// nearest-rank value.
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

const LOG_HIST_RATIO: f64 = 1.02;
const LOG_HIST_BUCKETS: usize = 1200;

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: vec![0; LOG_HIST_BUCKETS],
            n: 0,
        }
    }
}

impl LogHist {
    fn bucket(ns: f64) -> usize {
        if ns <= 1.0 {
            return 0;
        }
        ((ns.ln() / LOG_HIST_RATIO.ln()).ceil() as usize).min(LOG_HIST_BUCKETS - 1)
    }

    /// Records one duration in nanoseconds.
    pub fn record_ns(&mut self, ns: f64) {
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    /// Recorded samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Upper bound (ns) of the bucket holding the nearest-rank
    /// `q`-quantile, under the same ten-beyond rule as [`percentile`].
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let n = self.n as usize;
        let r = rank(q, n);
        if q > 0.5 && n - r < MIN_BEYOND {
            return None;
        }
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= r as u64 {
                return Some(LOG_HIST_RATIO.powi(b as i32));
            }
        }
        unreachable!("rank never exceeds the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so sorting is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn nearest_rank_median() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        // ceil(0.5 * 4) = rank 2.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&ramp(5)), Some(3.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // n = 1000: rank(0.99) = 990, 10 beyond -> reported.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // n = 999: rank(0.99) = ceil(989.01) = 990, only 9 beyond.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // n = 100: p90 has exactly 10 beyond, p91 has 9.
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(percentile(&ramp(100), 0.91), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(20)), None);
        // n = 21: rank 11 has 10 beyond; q = 11/21.
        let (q, v) = tail(&ramp(21)).expect("21 samples support a tail");
        assert!((q - 11.0 / 21.0).abs() < 1e-12);
        assert_eq!(v, 11.0);
        // n = 300: q = 290/300, value at rank 290.
        let (q, v) = tail(&ramp(300)).expect("supported");
        assert_eq!(v, 290.0);
        assert_eq!(percentile(&ramp(300), q), Some(290.0));
        // Large samples are capped at p99.
        let (q, v) = tail(&ramp(5000)).expect("supported");
        assert_eq!(q, 0.99);
        assert_eq!(v, 4950.0);
    }

    #[test]
    fn log_hist_quantiles_are_within_two_percent() {
        let mut h = LogHist::default();
        for i in 1..=1000 {
            h.record_ns(i as f64 * 10.0);
        }
        let p50 = h.quantile_ns(0.5).expect("non-empty");
        assert!((5000.0..=5100.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_ns(0.99).expect("1000 samples support p99");
        assert!((9900.0..=10098.0).contains(&p99), "p99 {p99}");
        let mut small = LogHist::default();
        small.record_ns(5.0);
        assert_eq!(small.quantile_ns(0.99), None);
    }

    #[test]
    fn windowed_summary_is_the_median_across_windows() {
        // Three windows of 2000 samples; the middle one has a stall that
        // lifts its tail. The median across windows ignores it.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..2000u64 {
                let stalled = w == 1 && i >= 1900;
                let v = if stalled { 9000.0 } else { (i % 100) as f64 };
                samples.push((w * 1000 + i % 1000, v));
            }
        }
        let s = Summary::windowed(&samples, 1000, 0.99);
        assert_eq!(
            (s.n, s.p50, s.tail_q, s.tail),
            (6000, 49.0, Some(0.99), 98.0)
        );
        // p90 per window: 89, 94 (the stall shifts the ranks) and 89.
        assert_eq!(Summary::windowed(&samples, 1000, 0.9).tail, 89.0);
        // One run-wide p99 lands in the stall.
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(Summary::of(&all).tail, 9000.0);
        // Windows too small to support the quantile: falls back to the
        // whole sample.
        assert_eq!(Summary::windowed(&samples, 10, 0.99).tail, 9000.0);
    }

    #[test]
    fn summary_at_a_fixed_quantile() {
        let s = Summary::at(&ramp(100), 0.9);
        assert_eq!((s.n, s.p50, s.tail_q, s.tail), (100, 50.0, Some(0.9), 90.0));
        // Unsupported: falls back to the highest supported tail.
        assert_eq!(Summary::at(&ramp(50), 0.9), Summary::of(&ramp(50)));
    }

    #[test]
    fn summary_falls_back_to_max_below_twenty_one() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail_q, s.tail), (3, 2.0, None, 3.0));
        let s = Summary::of(&ramp(2000));
        assert_eq!((s.p50, s.tail_q, s.tail), (1000.0, Some(0.99), 1980.0));
        assert!(s.describe("us").contains("p99 1980.000us"));
    }
}
