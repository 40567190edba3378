//! Histograms for the paper's "plug-in statistics objects ... with or
//! without histograms" (disk queue sizes, rotational delays, latencies).
//!
//! This is the *single* histogram implementation in the tree:
//! everything above (replay reports, driver service times, per-client
//! workload rows) records into the same buckets, so merging across
//! layers is always edge-for-edge exact.

use std::fmt;
use std::sync::{Arc, OnceLock};

/// A fixed-bucket histogram over `f64` samples with running moments.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Upper bucket edges, ascending; a final overflow bucket is implicit.
    /// Shared between clones, and between every
    /// [`Histogram::latency_default`].
    edges: Arc<[f64]>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram from ascending bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly ascending.
    pub fn with_edges(edges: Vec<f64>) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly ascending"
        );
        Self::over(edges.into())
    }

    /// An empty histogram over validated `edges`.
    fn over(edges: Arc<[f64]>) -> Self {
        Histogram {
            counts: vec![0; edges.len() + 1],
            edges,
            count: 0,
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Creates `n` equal-width buckets spanning `[lo, hi)`.
    pub fn linear(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0 && hi > lo);
        let step = (hi - lo) / n as f64;
        Self::with_edges((1..=n).map(|i| lo + step * i as f64).collect())
    }

    /// Creates logarithmic buckets from `lo` to `hi` with `per_decade`
    /// buckets per factor of 10.
    pub fn log(lo: f64, hi: f64, per_decade: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && per_decade > 0);
        let mut edges = Vec::new();
        let ratio = 10f64.powf(1.0 / per_decade as f64);
        let mut e = lo;
        while e < hi * (1.0 + 1e-12) {
            edges.push(e);
            e *= ratio;
        }
        Self::with_edges(edges)
    }

    /// Default latency histogram: 1 µs .. 100 s, 20 buckets per decade,
    /// in **milliseconds** (the unit the paper's figures use). The edges
    /// are computed once per process and shared.
    pub fn latency_default() -> Self {
        static EDGES: OnceLock<Arc<[f64]>> = OnceLock::new();
        Self::over(EDGES.get_or_init(|| Self::log(0.001, 100_000.0, 20).edges).clone())
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        let idx = self.edges.partition_point(|e| *e <= v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.sumsq += v * v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population standard deviation (0 if empty).
    pub fn stddev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let m = self.mean();
        (self.sumsq / self.count as f64 - m * m).max(0.0).sqrt()
    }

    /// Smallest recorded sample (∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded sample (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The bucket edges (ascending uppers; the overflow bucket is
    /// implicit). Exposed so merge compatibility can be checked.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Approximate `q`-quantile (0 ≤ q ≤ 1) by linear interpolation
    /// within the containing bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = acc + c;
            if next as f64 >= target && c > 0 {
                let lo = if i == 0 { self.min.min(self.edges[0]) } else { self.edges[i - 1] };
                let hi = if i < self.edges.len() { self.edges[i] } else { self.max };
                let frac = if c == 0 { 0.0 } else { (target - acc as f64) / c as f64 };
                let v = lo + (hi - lo) * frac.clamp(0.0, 1.0);
                return v.clamp(self.min, self.max);
            }
            acc = next;
        }
        self.max
    }

    /// Fraction of samples at or below `v` — one point of the paper's
    /// cumulative-distribution figures.
    pub fn cdf_at(&self, v: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let idx = self.edges.partition_point(|e| *e <= v);
        let below: u64 = self.counts[..idx].iter().sum();
        below as f64 / self.count as f64
    }

    /// Merges another histogram with identical edges.
    ///
    /// # Panics
    ///
    /// Panics if the bucket edges differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            Arc::ptr_eq(&self.edges, &other.edges) || self.edges == other.edges,
            "cannot merge histograms with different edges"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterates non-empty buckets as `(lower, upper, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, c)| **c > 0).map(move |(i, &c)| {
            let lo = if i == 0 { f64::NEG_INFINITY } else { self.edges[i - 1] };
            let hi = if i < self.edges.len() { self.edges[i] } else { f64::INFINITY };
            (lo, hi, c)
        })
    }

    /// Raw per-bucket counts (last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.stddev(),
            if self.count == 0 { 0.0 } else { self.min },
            self.quantile(0.5),
            self.quantile(0.9),
            self.quantile(0.99),
            if self.count == 0 { 0.0 } else { self.max },
        )?;
        let peak = self.counts.iter().copied().max().unwrap_or(1).max(1);
        for (lo, hi, c) in self.buckets() {
            let bar = "#".repeat((c * 40 / peak).max(1) as usize);
            writeln!(f, "  [{lo:>10.3}, {hi:>10.3}) {c:>8} {bar}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_bucketing() {
        let mut h = Histogram::linear(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.count(), 10);
        assert!((h.mean() - 5.0).abs() < 1e-9);
        assert_eq!(h.buckets().count(), 10);
    }

    #[test]
    fn log_bucketing_spans_decades() {
        let h = Histogram::log(0.001, 1000.0, 10);
        // Six decades at 10 buckets each => ~61 edges.
        assert!(h.edges.len() >= 60 && h.edges.len() <= 62);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = Histogram::latency_default();
        for i in 1..=1000 {
            h.record(i as f64 / 100.0);
        }
        let p10 = h.quantile(0.10);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!(p10 <= p50 && p50 <= p99);
        assert!(p50 >= h.min() && p50 <= h.max());
        assert!((p50 - 5.0).abs() < 1.0, "p50 ≈ 5.0, got {p50}");
    }

    #[test]
    fn cdf_monotone() {
        let mut h = Histogram::latency_default();
        for v in [0.1, 0.5, 1.0, 2.0, 17.0, 17.0, 30.0] {
            h.record(v);
        }
        let points = [0.05, 0.3, 0.75, 1.5, 10.0, 17.0, 25.0, 100.0];
        for w in points.windows(2) {
            assert!(h.cdf_at(w[0]) <= h.cdf_at(w[1]));
        }
        assert!((h.cdf_at(1e9) - 1.0).abs() < 1e-12);
        assert_eq!(h.cdf_at(0.0), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::linear(0.0, 10.0, 5);
        let mut b = Histogram::linear(0.0, 10.0, 5);
        a.record(1.0);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 9.0);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn merge_is_bucket_boundary_identical_to_single_recording() {
        // The dedup contract: recording a stream into one histogram and
        // recording a partition of the stream into two then merging must
        // land every sample in the same bucket — boundary samples
        // included (each edge value exactly, plus neighbours).
        let samples: Vec<f64> = {
            let proto = Histogram::latency_default();
            let mut s: Vec<f64> = proto.edges().to_vec();
            s.extend(proto.edges().iter().map(|e| e * (1.0 + 1e-9)));
            s.extend(proto.edges().iter().map(|e| e * (1.0 - 1e-9)));
            s.push(0.0);
            s.push(1e12); // overflow bucket
            s
        };
        let mut whole = Histogram::latency_default();
        let mut left = Histogram::latency_default();
        let mut right = Histogram::latency_default();
        for (i, v) in samples.iter().enumerate() {
            whole.record(*v);
            if i % 2 == 0 {
                left.record(*v);
            } else {
                right.record(*v);
            }
        }
        left.merge(&right);
        assert_eq!(whole.bucket_counts(), left.bucket_counts());
        assert_eq!(whole.count(), left.count());
        assert_eq!(whole.min(), left.min());
        assert_eq!(whole.max(), left.max());
    }

    #[test]
    #[should_panic(expected = "different edges")]
    fn merge_rejects_mismatched_edges() {
        let mut a = Histogram::linear(0.0, 10.0, 5);
        let b = Histogram::linear(0.0, 10.0, 4);
        a.merge(&b);
    }

    #[test]
    fn overflow_bucket_catches_outliers() {
        let mut h = Histogram::linear(0.0, 1.0, 2);
        h.record(100.0);
        assert_eq!(h.count(), 1);
        let (lo, hi, c) = h.buckets().next().unwrap();
        assert_eq!(c, 1);
        assert_eq!(lo, 1.0);
        assert!(hi.is_infinite());
    }

    #[test]
    fn stddev_of_constant_is_zero() {
        let mut h = Histogram::linear(0.0, 10.0, 4);
        for _ in 0..5 {
            h.record(4.0);
        }
        assert!(h.stddev() < 1e-9);
    }
}
