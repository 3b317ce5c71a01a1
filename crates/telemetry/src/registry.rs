//! The metrics registry: named counters, gauges and log₂-bucketed
//! histograms.
//!
//! Handles are `Arc`-shared atomics: looking one up takes the registry
//! mutex once (callers cache the `Arc` in a `OnceLock`), after which every
//! update is a single atomic RMW — always live, independent of the span
//! recording switch. The campaign cache's hit/miss counters live here
//! (`campaign.case_study.hits`, …), which is what lets
//! `vdbench campaign --timings` and `BENCH_campaign.json` be derived views over
//! this registry instead of a parallel hand-rolled counter path.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and between-pass isolation).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge storing an `f64` (bit-cast into an atomic).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl Gauge {
    /// Creates a gauge at 0.0.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Resets to 0.0.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i ≤ 63) holds values in `[2^(i-1), 2^i)`, bucket 64 holds
/// `[2^63, u64::MAX]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed log₂-bucketed histogram of `u64` samples (durations in
/// nanoseconds, replicate counts, …). Recording is one atomic RMW per
/// sample; the bucket layout never reallocates.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket a value lands in: 0 for 0, otherwise
    /// `⌊log₂ value⌋ + 1`.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// Half-open value range `[lo, hi)` of a bucket (`hi = None` for the
    /// last bucket, which is closed at `u64::MAX`).
    ///
    /// # Panics
    ///
    /// Panics when `index >= HISTOGRAM_BUCKETS`.
    #[must_use]
    pub fn bucket_bounds(index: usize) -> (u64, Option<u64>) {
        assert!(index < HISTOGRAM_BUCKETS, "bucket {index} out of range");
        match index {
            0 => (0, Some(1)),
            64 => (1 << 63, None),
            i => (1 << (i - 1), Some(1 << i)),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.counts[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Immutable snapshot (non-empty buckets only).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u32, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistogramSnapshot {
            count: buckets.iter().map(|(_, n)| n).sum(),
            sum: self.sum(),
            buckets,
        }
    }

    /// Resets all buckets and the sum.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Serializable snapshot of one histogram: total count, sample sum, and
/// the non-empty `(bucket index, count)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Non-empty buckets as `(index, count)`.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Upper bound of the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the inclusive
    /// top of the first bucket whose cumulative count reaches `⌈q·n⌉`.
    /// With log₂ buckets the bound is within 2× of the true quantile —
    /// good enough for the service latency summary (`server.latency_us`
    /// p50/p99); exact client-side percentiles come from the load
    /// generator's own sample vector. `None` on an empty histogram.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(index, n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                let (lo, hi) = Histogram::bucket_bounds(index as usize);
                return Some(hi.map_or(u64::MAX, |h| h - 1).max(lo));
            }
        }
        // Unreachable when `count` equals the bucket total, but a
        // hand-built snapshot may disagree; answer with the top bucket.
        self.buckets.last().map(|&(index, _)| {
            Histogram::bucket_bounds(index as usize)
                .1
                .map_or(u64::MAX, |h| h - 1)
        })
    }
}

/// Serializable snapshot of the whole registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram name → snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// All **non-zero** counters whose names start with `prefix`, in name
    /// order — the extraction primitive behind the `BENCH_campaign.json`
    /// resilience section (`fault.injected.*`, `scan.*`).
    #[must_use]
    pub fn counters_with_prefix(&self, prefix: &str) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(name, value)| name.starts_with(prefix) && **value > 0)
            .map(|(name, value)| (name.clone(), *value))
            .collect()
    }
}

/// A named collection of metrics. Use [`global`] for the process-wide
/// instance; fresh registries are only for tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter registered under `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge registered under `name`, created at 0.0 on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every registered metric (names stay registered).
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .expect("metrics registry poisoned")
            .values()
        {
            c.reset();
        }
        for g in self
            .gauges
            .lock()
            .expect("metrics registry poisoned")
            .values()
        {
            g.reset();
        }
        for h in self
            .histograms
            .lock()
            .expect("metrics registry poisoned")
            .values()
        {
            h.reset();
        }
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("requests");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.counter("requests").get(), 5, "same handle by name");
        let g = reg.gauge("threads");
        g.set(7.5);
        assert_eq!(reg.gauge("threads").get(), 7.5);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn histogram_bucket_edges() {
        // Bucket 0 is exactly {0}.
        assert_eq!(Histogram::bucket_index(0), 0);
        // Bucket i covers [2^(i-1), 2^i): both edges land correctly.
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        for i in 1..=63usize {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(
                Histogram::bucket_index(lo - (lo > 1) as u64),
                i - usize::from(lo > 1),
                "value below bucket {i} lands one bucket down"
            );
            if let Some(hi) = hi {
                assert_eq!(
                    Histogram::bucket_index(hi - 1),
                    i,
                    "inclusive upper edge of bucket {i}"
                );
                assert_eq!(Histogram::bucket_index(hi), i + 1, "exclusive upper edge");
            }
        }
        // The top bucket is closed at u64::MAX.
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, None));
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0, 1, 1, 3, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1029);
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1029);
        // 0 → bucket 0; 1,1 → bucket 1; 3 → bucket 2; 1024 → bucket 11.
        assert_eq!(snap.buckets, vec![(0, 1), (1, 2), (2, 1), (11, 1)]);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().buckets, Vec::new());
    }

    #[test]
    fn histogram_quantile_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile_upper_bound(0.5), None, "empty");
        // 90 samples in bucket 1 ([1,2)), 10 in bucket 11 ([1024,2048)).
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1500);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile_upper_bound(0.5), Some(1));
        assert_eq!(snap.quantile_upper_bound(0.9), Some(1));
        assert_eq!(snap.quantile_upper_bound(0.99), Some(2047));
        assert_eq!(snap.quantile_upper_bound(1.0), Some(2047));
        assert_eq!(
            snap.quantile_upper_bound(0.0),
            Some(1),
            "q=0 is the min bucket"
        );
    }

    #[test]
    fn prefix_extraction_keeps_nonzero_matching_counters() {
        let reg = Registry::new();
        reg.counter("fault.injected.crash").add(2);
        reg.counter("fault.injected.flip").add(9);
        reg.counter("fault.injected.timeout"); // registered but zero
        reg.counter("scan.failed").add(1);
        let snap = reg.snapshot();
        let faults = snap.counters_with_prefix("fault.");
        assert_eq!(faults.len(), 2, "zero counters are elided");
        assert_eq!(faults["fault.injected.crash"], 2);
        assert_eq!(faults["fault.injected.flip"], 9);
        assert_eq!(snap.counters_with_prefix("scan.")["scan.failed"], 1);
        assert!(snap.counters_with_prefix("nope.").is_empty());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::new();
        reg.counter("cache.hits").add(3);
        reg.gauge("pool.threads").set(8.0);
        reg.histogram("latency").record(250);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
