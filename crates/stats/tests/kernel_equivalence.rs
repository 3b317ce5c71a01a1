//! Property-based equivalence suite for the optimized hot kernels.
//!
//! Every kernel rewritten in the performance pass retains its historical
//! implementation as an oracle; these tests assert the fast path agrees
//! with the oracle **bit-for-bit** (`to_bits` equality, not tolerance):
//!
//! * Knight's O(n log n) Kendall τ-b vs the O(n²) pair scan, on heavily
//!   tied data (small integer domains) including `-0.0` and sign mixes;
//! * `select_nth`-based quantiles vs full-sort quantiles.
//!
//! It also pins the bootstrap's schedule independence: all four
//! resamplers return bit-identical output at one worker **and** at many
//! workers, for mean / precision-style / composite statistics.
//!
//! Thread-count cases serialize on a process lock because
//! `RAYON_NUM_THREADS` is process-global (same idiom as the determinism
//! suite in `vdbench-core`).

use proptest::prelude::*;
use std::sync::Mutex;
use vdbench_stats::correlation::{kendall_tau, kendall_tau_naive};
use vdbench_stats::descriptive::{quantile_sorted, quantile_unsorted};
use vdbench_stats::{Bootstrap, SeededRng};

/// Guards the process-global `RAYON_NUM_THREADS` variable.
static THREAD_ENV: Mutex<()> = Mutex::new(());

/// Heavily tied series: values drawn from a small signed-integer domain,
/// scaled so some become `-0.0` (`-0 * 0.5`). This is the adversarial
/// regime for tie bookkeeping.
fn tied_f64s(len_max: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((-4i64..5).prop_map(|v| v as f64 * 0.5), 2..len_max)
}

proptest! {
    #[test]
    fn kendall_knight_matches_naive_bitwise(
        pairs in proptest::collection::vec(((-4i64..5), (-4i64..5)), 2..80)
    ) {
        let x: Vec<f64> = pairs.iter().map(|(a, _)| *a as f64 * 0.5).collect();
        let y: Vec<f64> = pairs.iter().map(|(_, b)| *b as f64 * 0.5).collect();
        match (kendall_tau(&x, &y), kendall_tau_naive(&x, &y)) {
            (Ok(fast), Ok(slow)) => prop_assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "fast {} != naive {}",
                fast,
                slow
            ),
            (fast, slow) => prop_assert_eq!(fast, slow),
        }
    }

    #[test]
    fn kendall_handles_negative_zero_mixes(xs in tied_f64s(40)) {
        // Pair the series against a shifted copy of itself: plenty of
        // ties, both signs of zero on both axes.
        let ys: Vec<f64> = xs.iter().rev().map(|v| -v).collect();
        match (kendall_tau(&xs, &ys), kendall_tau_naive(&xs, &ys)) {
            (Ok(fast), Ok(slow)) => prop_assert_eq!(fast.to_bits(), slow.to_bits()),
            (fast, slow) => prop_assert_eq!(fast, slow),
        }
    }

    #[test]
    fn quantile_unsorted_matches_full_sort_bitwise(
        data in proptest::collection::vec(-1000i64..1000, 1..120),
        qnum in 0u32..21,
    ) {
        let q = f64::from(qnum) / 20.0;
        let vals: Vec<f64> = data.iter().map(|&v| v as f64 * 0.25).collect();
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);
        let expect = quantile_sorted(&sorted, q);
        let mut scratch = vals;
        let got = quantile_unsorted(&mut scratch, q);
        prop_assert_eq!(got.to_bits(), expect.to_bits(), "q={}", q);
    }
}

/// The three statistic shapes the pipeline bootstraps: a mean, a
/// precision-style ratio over thresholded values, and a composite of both.
type NamedStat = (&'static str, fn(&[f64]) -> f64);

fn statistics() -> [NamedStat; 3] {
    fn mean(s: &[f64]) -> f64 {
        s.iter().sum::<f64>() / s.len() as f64
    }
    fn precision_like(s: &[f64]) -> f64 {
        let tp = s.iter().filter(|&&v| v > 0.5).count() as f64;
        let all = s.len() as f64;
        tp / all
    }
    fn composite(s: &[f64]) -> f64 {
        let m = mean(s);
        let p = precision_like(s);
        (2.0 * m * p) / (m + p + 1e-9)
    }
    [
        ("mean", mean),
        ("precision", precision_like),
        ("composite", composite),
    ]
}

/// Every resampler's output for one statistic, as raw bits so the
/// comparison is exact (`NaN`-safe, `-0.0`-sensitive).
fn resampler_bits(vals: &[f64], seed: u64, stat: fn(&[f64]) -> f64) -> Vec<u64> {
    let boot = Bootstrap::new(200);
    let (a, b) = vals.split_at(vals.len() / 2);
    let mut rng = SeededRng::new(seed);
    let mut bits: Vec<u64> = boot
        .replicate_distribution(vals, stat, &mut rng)
        .expect("non-empty input")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let diff = |x: &[f64], y: &[f64]| stat(x) - stat(y);
    let ci = boot
        .two_sample_ci(a, b, 0.9, diff, &mut rng)
        .expect("non-empty samples");
    bits.extend([ci.lower, ci.upper, ci.point, ci.std_error].map(f64::to_bits));
    let p = boot
        .superiority_probability(a, b, stat, &mut rng)
        .expect("non-empty samples");
    bits.push(p.to_bits());
    let sub = boot
        .subsample_distribution(vals, 0.6, stat, &mut rng)
        .expect("valid fraction");
    bits.extend(sub.iter().map(|v| v.to_bits()));
    bits
}

proptest! {
    // Fewer cases: each runs 2 × 3 × 4 resamplers × 200 replicates.
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn resamplers_are_bit_identical_at_any_thread_count(
        data in proptest::collection::vec(0i64..100, 2..50),
        seed in 0u64..1_000_000,
    ) {
        let _guard = THREAD_ENV.lock().expect("thread-env lock poisoned");
        let vals: Vec<f64> = data.iter().map(|&v| v as f64 / 100.0).collect();
        for (name, stat) in statistics() {
            std::env::set_var("RAYON_NUM_THREADS", "1");
            let serial = resampler_bits(&vals, seed, stat);
            std::env::set_var("RAYON_NUM_THREADS", "6");
            let parallel = resampler_bits(&vals, seed, stat);
            std::env::remove_var("RAYON_NUM_THREADS");
            prop_assert_eq!(serial, parallel, "stat {} diverged across thread counts", name);
        }
    }
}
