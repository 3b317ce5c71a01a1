//! Bootstrap resampling.
//!
//! Metric values on a benchmark workload are statistics of a finite sample
//! of code units; the bootstrap gives distribution-free interval estimates
//! and powers the *discriminative power* and *ranking stability* experiments
//! (Fig. 2, Fig. 3).
//!
//! # Parallelism and determinism
//!
//! Replicates are generated on the rayon pool. Each method draws **one**
//! base value from the caller's sequential generator, then replicate `i`
//! samples from its own `SeededRng::new(derive_seed(base, i))` stream (see
//! [`crate::rng::derive_seed`]). Because the per-replicate stream depends
//! only on `(base, i)`, the replicate vector is bit-identical whether the
//! pool runs one thread (`RAYON_NUM_THREADS=1`) or many — and the caller's
//! generator advances by exactly one draw per call either way.

use crate::descriptive::quantile_unsorted;
use crate::rng::{derive_seed, SeededRng};
use crate::{Result, StatsError};
use rand::RngCore;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Records one resampling run on the `stats.bootstrap.replicates`
/// histogram (telemetry registry). The handle is resolved once per
/// process; when recording is disabled the histogram still counts — it is
/// a plain always-on metric, not a span — but resolution is deferred so
/// programs that never bootstrap pay nothing.
fn record_replicates(n: usize) {
    use std::sync::OnceLock;
    use vdbench_telemetry::registry::Histogram;
    static HIST: OnceLock<std::sync::Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| {
        vdbench_telemetry::registry::global().histogram("stats.bootstrap.replicates")
    })
    .record(n as u64);
}

/// Bumps the `bootstrap.scratch.reuses` counter by `n` — the number of
/// replicates a thread evaluated by *reusing* its per-thread scratch buffer
/// instead of allocating a fresh resample `Vec` (i.e. every replicate after
/// the first that thread evaluated in the call). The counter is the observable proof
/// that the streaming kernels actually avoid per-replicate allocation; the
/// kernel bench and the scratch-reuse regression test read it back.
fn record_scratch_reuses(n: u64) {
    use std::sync::OnceLock;
    use vdbench_telemetry::registry::Counter;
    static COUNTER: OnceLock<std::sync::Arc<Counter>> = OnceLock::new();
    if n > 0 {
        COUNTER
            .get_or_init(|| {
                vdbench_telemetry::registry::global().counter("bootstrap.scratch.reuses")
            })
            .add(n);
    }
}

/// Per-thread resampling scratch: a reusable buffer plus the running count
/// of reuses, flushed to the telemetry counter when the thread's share of
/// the call ends.
struct ReplicateScratch<T> {
    buf: Vec<T>,
    reuses: u64,
}

impl<T> ReplicateScratch<T> {
    fn with_capacity(n: usize) -> Self {
        ReplicateScratch {
            buf: Vec::with_capacity(n),
            reuses: 0,
        }
    }

    /// Clears the buffer for the next replicate, counting a reuse whenever
    /// the buffer had already been filled once.
    fn begin_replicate(&mut self) -> &mut Vec<T> {
        if !self.buf.is_empty() {
            self.reuses += 1;
        }
        self.buf.clear();
        &mut self.buf
    }
}

impl<T> Drop for ReplicateScratch<T> {
    fn drop(&mut self) {
        record_scratch_reuses(self.reuses);
    }
}

/// A percentile bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BootstrapCi {
    /// Lower percentile endpoint.
    pub lower: f64,
    /// Upper percentile endpoint.
    pub upper: f64,
    /// Statistic evaluated on the original sample.
    pub point: f64,
    /// Bootstrap standard error (std-dev of the replicate distribution).
    pub std_error: f64,
}

impl BootstrapCi {
    /// Whether the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }
}

/// Configurable bootstrap engine.
///
/// ```
/// use vdbench_stats::{Bootstrap, SeededRng};
///
/// let data: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
/// let mut rng = SeededRng::new(42);
/// let ci = Bootstrap::new(500)
///     .percentile_ci(&data, 0.95, |s| s.iter().sum::<f64>() / s.len() as f64, &mut rng)
///     .unwrap();
/// assert!(ci.contains(4.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bootstrap {
    replicates: usize,
}

impl Bootstrap {
    /// Creates an engine performing `replicates` resamples per call.
    ///
    /// # Panics
    ///
    /// Panics if `replicates == 0`.
    pub fn new(replicates: usize) -> Self {
        assert!(replicates > 0, "bootstrap requires at least one replicate");
        Bootstrap { replicates }
    }

    /// Number of replicates per call.
    pub fn replicates(&self) -> usize {
        self.replicates
    }

    /// Draws the raw replicate distribution of `statistic` over resamples of
    /// `data` (with replacement, same size).
    ///
    /// Replicate `i` streams its resample into a **per-thread scratch
    /// buffer** (`map_init`): each participating thread allocates one buffer
    /// for all the replicates it claims and clears/refills it per replicate, instead of materializing a
    /// fresh `Vec` per replicate. Because replicate `i`'s RNG depends only
    /// on `(base, i)` and the scratch carries no state between items, the
    /// output is bit-identical to the retained materializing oracle
    /// [`Self::replicate_distribution_materialized`] at any thread count
    /// (proptested).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `data` is empty.
    pub fn replicate_distribution<T, F>(
        &self,
        data: &[T],
        statistic: F,
        rng: &mut SeededRng,
    ) -> Result<Vec<f64>>
    where
        T: Clone + Sync,
        F: Fn(&[T]) -> f64 + Sync,
    {
        if data.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let _span = vdbench_telemetry::span!(
            "stats",
            "bootstrap_replicates",
            replicates = self.replicates,
            n = data.len()
        );
        record_replicates(self.replicates);
        let n = data.len();
        let base = rng.next_u64();
        let out: Vec<f64> = (0..self.replicates)
            .into_par_iter()
            .map_init(
                || ReplicateScratch::<T>::with_capacity(n),
                |state, i| {
                    let mut r = SeededRng::new(derive_seed(base, i as u64));
                    let scratch = state.begin_replicate();
                    for _ in 0..n {
                        scratch.push(data[r.index(n)].clone());
                    }
                    statistic(scratch)
                },
            )
            .collect();
        Ok(out)
    }

    /// The PR-1 materializing replicate loop, retained verbatim as the
    /// equivalence oracle for [`Self::replicate_distribution`]: one fresh
    /// `Vec` per replicate, identical RNG streams. The proptest suite
    /// asserts the streaming path matches this bit-for-bit, and the kernel
    /// bench reports old-vs-new throughput against it. Not used by any
    /// production path.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] when `data` is empty.
    pub fn replicate_distribution_materialized<T, F>(
        &self,
        data: &[T],
        statistic: F,
        rng: &mut SeededRng,
    ) -> Result<Vec<f64>>
    where
        T: Clone + Sync,
        F: Fn(&[T]) -> f64 + Sync,
    {
        if data.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let n = data.len();
        let base = rng.next_u64();
        let out: Vec<f64> = (0..self.replicates)
            .into_par_iter()
            .map(|i| {
                let mut r = SeededRng::new(derive_seed(base, i as u64));
                let mut scratch: Vec<T> = Vec::with_capacity(n);
                for _ in 0..n {
                    scratch.push(data[r.index(n)].clone());
                }
                statistic(&scratch)
            })
            .collect();
        Ok(out)
    }

    /// Percentile bootstrap confidence interval for an arbitrary statistic.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for empty data and
    /// [`StatsError::InvalidParameter`] for a level outside `(0, 1)`.
    pub fn percentile_ci<T, F>(
        &self,
        data: &[T],
        level: f64,
        statistic: F,
        rng: &mut SeededRng,
    ) -> Result<BootstrapCi>
    where
        T: Clone + Sync,
        F: Fn(&[T]) -> f64 + Sync,
    {
        if !(0.0..1.0).contains(&level) || level <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "level",
                value: level,
            });
        }
        let point = if data.is_empty() {
            return Err(StatsError::EmptyInput);
        } else {
            statistic(data)
        };
        let mut reps = self.replicate_distribution(data, &statistic, rng)?;
        // Moments first, over the replicate order (deterministic — it is
        // the derive_seed stream order), then the two percentile endpoints
        // by quickselect: expected O(R) total instead of the full
        // O(R log R) sort this replaces. `quantile_unsorted` only permutes
        // the buffer, so the second call stays correct.
        let mean = reps.iter().sum::<f64>() / reps.len() as f64;
        let var = reps.iter().map(|r| (r - mean).powi(2)).sum::<f64>()
            / (reps.len().saturating_sub(1).max(1)) as f64;
        let alpha = 1.0 - level;
        let lower = quantile_unsorted(&mut reps, alpha / 2.0);
        let upper = quantile_unsorted(&mut reps, 1.0 - alpha / 2.0);
        Ok(BootstrapCi {
            lower,
            upper,
            point,
            std_error: var.sqrt(),
        })
    }

    /// Percentile bootstrap confidence interval for a **two-sample**
    /// statistic: each replicate resamples `sample_a` and `sample_b`
    /// independently (with replacement, original sizes) and evaluates
    /// `statistic(resample_a, resample_b)`. Used by perfwatch to interval
    /// the baseline-vs-candidate delta of a tracked perf series.
    ///
    /// Draw order per replicate matches [`Self::superiority_probability`]
    /// (resample A fully, then B, from one derive_seed stream), so results
    /// are bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] if either sample is empty and
    /// [`StatsError::InvalidParameter`] for a level outside `(0, 1)`.
    pub fn two_sample_ci<T, F>(
        &self,
        sample_a: &[T],
        sample_b: &[T],
        level: f64,
        statistic: F,
        rng: &mut SeededRng,
    ) -> Result<BootstrapCi>
    where
        T: Clone + Sync,
        F: Fn(&[T], &[T]) -> f64 + Sync,
    {
        if !(0.0..1.0).contains(&level) || level <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "level",
                value: level,
            });
        }
        if sample_a.is_empty() || sample_b.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let _span = vdbench_telemetry::span!(
            "stats",
            "bootstrap_two_sample_ci",
            replicates = self.replicates
        );
        record_replicates(self.replicates);
        let point = statistic(sample_a, sample_b);
        let base = rng.next_u64();
        let mut reps: Vec<f64> = (0..self.replicates)
            .into_par_iter()
            .map_init(
                || {
                    (
                        ReplicateScratch::<T>::with_capacity(sample_a.len()),
                        ReplicateScratch::<T>::with_capacity(sample_b.len()),
                    )
                },
                |(state_a, state_b), i| {
                    let mut r = SeededRng::new(derive_seed(base, i as u64));
                    let a = state_a.begin_replicate();
                    for _ in 0..sample_a.len() {
                        a.push(sample_a[r.index(sample_a.len())].clone());
                    }
                    let b = state_b.begin_replicate();
                    for _ in 0..sample_b.len() {
                        b.push(sample_b[r.index(sample_b.len())].clone());
                    }
                    statistic(a, b)
                },
            )
            .collect();
        let mean = reps.iter().sum::<f64>() / reps.len() as f64;
        let var = reps.iter().map(|r| (r - mean).powi(2)).sum::<f64>()
            / (reps.len().saturating_sub(1).max(1)) as f64;
        let alpha = 1.0 - level;
        let lower = quantile_unsorted(&mut reps, alpha / 2.0);
        let upper = quantile_unsorted(&mut reps, 1.0 - alpha / 2.0);
        Ok(BootstrapCi {
            lower,
            upper,
            point,
            std_error: var.sqrt(),
        })
    }

    /// Probability, under resampling, that `statistic(sample_a) >
    /// statistic(sample_b)` — the engine behind the *discriminative power*
    /// analysis: how often does a metric correctly order two tools whose
    /// true quality differs?
    ///
    /// Both samples are resampled independently each replicate.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] if either sample is empty.
    pub fn superiority_probability<T, F>(
        &self,
        sample_a: &[T],
        sample_b: &[T],
        statistic: F,
        rng: &mut SeededRng,
    ) -> Result<f64>
    where
        T: Clone + Sync,
        F: Fn(&[T]) -> f64 + Sync,
    {
        if sample_a.is_empty() || sample_b.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let _span = vdbench_telemetry::span!(
            "stats",
            "bootstrap_superiority",
            replicates = self.replicates
        );
        record_replicates(self.replicates);
        let base = rng.next_u64();
        // Two per-worker scratch buffers (one per sample), refilled per
        // replicate in the same draw order as the old materializing loop:
        // resample A fully, then resample B, from one replicate stream.
        let wins: usize = (0..self.replicates)
            .into_par_iter()
            .map_init(
                || {
                    (
                        ReplicateScratch::<T>::with_capacity(sample_a.len()),
                        ReplicateScratch::<T>::with_capacity(sample_b.len()),
                    )
                },
                |(state_a, state_b), i| {
                    let mut r = SeededRng::new(derive_seed(base, i as u64));
                    let a = state_a.begin_replicate();
                    for _ in 0..sample_a.len() {
                        a.push(sample_a[r.index(sample_a.len())].clone());
                    }
                    let b = state_b.begin_replicate();
                    for _ in 0..sample_b.len() {
                        b.push(sample_b[r.index(sample_b.len())].clone());
                    }
                    usize::from(statistic(a) > statistic(b))
                },
            )
            .collect::<Vec<usize>>()
            .into_iter()
            .sum();
        Ok(wins as f64 / self.replicates as f64)
    }

    /// Subsample (without replacement) a fraction of the data and evaluate
    /// the statistic, once per replicate — used by the ranking-stability
    /// experiment (Fig. 3).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptyInput`] for empty data and
    /// [`StatsError::InvalidParameter`] for a fraction outside `(0, 1]`.
    pub fn subsample_distribution<T, F>(
        &self,
        data: &[T],
        fraction: f64,
        statistic: F,
        rng: &mut SeededRng,
    ) -> Result<Vec<f64>>
    where
        T: Clone + Sync,
        F: Fn(&[T]) -> f64 + Sync,
    {
        if data.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "fraction",
                value: fraction,
            });
        }
        let _span = vdbench_telemetry::span!(
            "stats",
            "bootstrap_subsample",
            replicates = self.replicates,
            fraction = fraction
        );
        record_replicates(self.replicates);
        let k = ((data.len() as f64 * fraction).round() as usize).clamp(1, data.len());
        let base = rng.next_u64();
        // Per-worker scratch: one index buffer (filled by the `_into`
        // sampling form, which consumes exactly the same generator draws as
        // the allocating form) and one value buffer, both reused across the
        // worker's replicates.
        let out: Vec<f64> = (0..self.replicates)
            .into_par_iter()
            .map_init(
                || {
                    (
                        Vec::<usize>::with_capacity(data.len()),
                        ReplicateScratch::<T>::with_capacity(k),
                    )
                },
                |(idx, state), i| {
                    let mut r = SeededRng::new(derive_seed(base, i as u64));
                    r.sample_without_replacement_into(data.len(), k, idx);
                    let scratch = state.begin_replicate();
                    for &j in idx.iter() {
                        scratch.push(data[j].clone());
                    }
                    statistic(scratch)
                },
            )
            .collect();
        Ok(out)
    }
}

impl Default for Bootstrap {
    /// 1000 replicates, the suite-wide default.
    fn default() -> Self {
        Bootstrap::new(1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_stat(s: &[f64]) -> f64 {
        s.iter().sum::<f64>() / s.len() as f64
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_panics() {
        let _ = Bootstrap::new(0);
    }

    #[test]
    fn ci_covers_true_mean() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 7919) % 100) as f64).collect();
        let truth = mean_stat(&data);
        let mut rng = SeededRng::new(1);
        let ci = Bootstrap::new(800)
            .percentile_ci(&data, 0.95, mean_stat, &mut rng)
            .unwrap();
        assert!(ci.contains(truth));
        assert!((ci.point - truth).abs() < 1e-12);
        assert!(ci.std_error > 0.0);
        assert!(ci.width() > 0.0);
    }

    #[test]
    fn ci_narrows_with_sample_size() {
        let small: Vec<f64> = (0..30).map(|i| (i % 10) as f64).collect();
        let large: Vec<f64> = (0..3000).map(|i| (i % 10) as f64).collect();
        let mut rng = SeededRng::new(2);
        let b = Bootstrap::new(500);
        let ci_small = b.percentile_ci(&small, 0.95, mean_stat, &mut rng).unwrap();
        let ci_large = b.percentile_ci(&large, 0.95, mean_stat, &mut rng).unwrap();
        assert!(ci_large.width() < ci_small.width() / 2.0);
    }

    #[test]
    fn empty_data_rejected() {
        let mut rng = SeededRng::new(3);
        let empty: Vec<f64> = vec![];
        assert!(Bootstrap::default()
            .percentile_ci(&empty, 0.95, mean_stat, &mut rng)
            .is_err());
        assert!(Bootstrap::default()
            .replicate_distribution(&empty, mean_stat, &mut rng)
            .is_err());
    }

    #[test]
    fn bad_level_rejected() {
        let mut rng = SeededRng::new(3);
        let data = [1.0, 2.0];
        assert!(Bootstrap::default()
            .percentile_ci(&data, 1.5, mean_stat, &mut rng)
            .is_err());
        assert!(Bootstrap::default()
            .percentile_ci(&data, 0.0, mean_stat, &mut rng)
            .is_err());
    }

    #[test]
    fn superiority_detects_clear_difference() {
        let high: Vec<f64> = (0..200).map(|i| 10.0 + (i % 5) as f64).collect();
        let low: Vec<f64> = (0..200).map(|i| (i % 5) as f64).collect();
        let mut rng = SeededRng::new(4);
        let p = Bootstrap::new(300)
            .superiority_probability(&high, &low, mean_stat, &mut rng)
            .unwrap();
        assert_eq!(p, 1.0);
        let p = Bootstrap::new(300)
            .superiority_probability(&low, &high, mean_stat, &mut rng)
            .unwrap();
        assert_eq!(p, 0.0);
    }

    #[test]
    fn superiority_near_half_for_identical_distributions() {
        let a: Vec<f64> = (0..300).map(|i| (i % 7) as f64).collect();
        let mut rng = SeededRng::new(5);
        let p = Bootstrap::new(2000)
            .superiority_probability(&a, &a, mean_stat, &mut rng)
            .unwrap();
        assert!((p - 0.5).abs() < 0.08, "p={p}");
    }

    #[test]
    fn subsample_distribution_shape() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut rng = SeededRng::new(6);
        let reps = Bootstrap::new(200)
            .subsample_distribution(&data, 0.5, mean_stat, &mut rng)
            .unwrap();
        assert_eq!(reps.len(), 200);
        let m = mean_stat(&reps);
        assert!((m - 49.5).abs() < 2.0, "m={m}");
        assert!(Bootstrap::new(10)
            .subsample_distribution(&data, 0.0, mean_stat, &mut rng)
            .is_err());
        assert!(Bootstrap::new(10)
            .subsample_distribution(&data, 1.1, mean_stat, &mut rng)
            .is_err());
    }

    #[test]
    fn subsample_full_fraction_is_permutation_invariant_mean() {
        let data = [1.0, 2.0, 3.0];
        let mut rng = SeededRng::new(7);
        let reps = Bootstrap::new(10)
            .subsample_distribution(&data, 1.0, mean_stat, &mut rng)
            .unwrap();
        for r in reps {
            assert!((r - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn two_sample_ci_brackets_mean_shift() {
        let a: Vec<f64> = (0..200).map(|i| 10.0 + (i % 5) as f64).collect();
        let b: Vec<f64> = (0..200).map(|i| (i % 5) as f64).collect();
        let diff = |x: &[f64], y: &[f64]| mean_stat(x) - mean_stat(y);
        let mut rng = SeededRng::new(21);
        let ci = Bootstrap::new(600)
            .two_sample_ci(&a, &b, 0.95, diff, &mut rng)
            .unwrap();
        assert!((ci.point - 10.0).abs() < 1e-12);
        assert!(ci.lower > 9.0 && ci.upper < 11.0, "ci={ci:?}");
        assert!(!ci.contains(0.0));
    }

    #[test]
    fn two_sample_ci_validation_and_determinism() {
        let data = [1.0, 2.0, 3.0];
        let diff = |x: &[f64], y: &[f64]| mean_stat(x) - mean_stat(y);
        let mut rng = SeededRng::new(22);
        assert!(Bootstrap::default()
            .two_sample_ci::<f64, _>(&[], &data, 0.95, diff, &mut rng)
            .is_err());
        assert!(Bootstrap::default()
            .two_sample_ci::<f64, _>(&data, &[], 0.95, diff, &mut rng)
            .is_err());
        assert!(Bootstrap::default()
            .two_sample_ci(&data, &data, 1.5, diff, &mut rng)
            .is_err());
        let run = |threads: &str| {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let mut rng = SeededRng::new(0xACE);
            let ci = Bootstrap::new(301)
                .two_sample_ci(&data, &data, 0.9, diff, &mut rng)
                .unwrap();
            std::env::remove_var("RAYON_NUM_THREADS");
            (ci.lower.to_bits(), ci.upper.to_bits(), ci.point.to_bits())
        };
        assert_eq!(run("1"), run("5"));
    }

    #[test]
    fn parallel_and_serial_replicates_are_bit_identical() {
        let data: Vec<f64> = (0..120).map(|i| ((i * 31) % 17) as f64).collect();
        let run = || {
            let mut rng = SeededRng::new(0xB007);
            Bootstrap::new(257)
                .replicate_distribution(&data, mean_stat, &mut rng)
                .unwrap()
        };
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = run();
        std::env::set_var("RAYON_NUM_THREADS", "7");
        let parallel = run();
        std::env::remove_var("RAYON_NUM_THREADS");
        let serial_bits: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
        let parallel_bits: Vec<u64> = parallel.iter().map(|v| v.to_bits()).collect();
        assert_eq!(serial_bits, parallel_bits);
    }

    #[test]
    fn streaming_matches_materialized_oracle_bitwise() {
        let data: Vec<f64> = (0..90).map(|i| ((i * 13) % 23) as f64 * 0.5).collect();
        let b = Bootstrap::new(301);
        for threads in ["1", "6"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let mut r1 = SeededRng::new(0xFEED);
            let mut r2 = SeededRng::new(0xFEED);
            let fast = b.replicate_distribution(&data, mean_stat, &mut r1).unwrap();
            let oracle = b
                .replicate_distribution_materialized(&data, mean_stat, &mut r2)
                .unwrap();
            let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
            let oracle_bits: Vec<u64> = oracle.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fast_bits, oracle_bits, "threads={threads}");
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }

    #[test]
    fn scratch_reuse_counter_advances() {
        let counter = vdbench_telemetry::registry::global().counter("bootstrap.scratch.reuses");
        let before = counter.get();
        // Serial: one worker, 64 replicates → 63 reuses recorded at least.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let data: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let mut rng = SeededRng::new(11);
        let _ = Bootstrap::new(64)
            .replicate_distribution(&data, mean_stat, &mut rng)
            .unwrap();
        std::env::remove_var("RAYON_NUM_THREADS");
        assert!(
            counter.get() >= before + 63,
            "before={before} after={}",
            counter.get()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let run = |seed| {
            let mut rng = SeededRng::new(seed);
            Bootstrap::new(100)
                .percentile_ci(&data, 0.9, mean_stat, &mut rng)
                .unwrap()
        };
        assert_eq!(run(9), run(9));
    }
}
