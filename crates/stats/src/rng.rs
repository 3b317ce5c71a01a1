//! Deterministic random sampling helpers.
//!
//! Every stochastic component in the `vdbench` workspace takes an explicit
//! `u64` seed so experiments are exactly reproducible. [`SeededRng`] wraps a
//! [`rand::rngs::StdRng`] with the sampling primitives the suite needs:
//! normal and gamma variates (implemented locally to avoid extra
//! dependencies), index sampling with and without replacement, and stream
//! splitting for independent sub-experiments.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Derives the seed of sub-stream `index` from a `base` seed with a
/// SplitMix64-style finalizer.
///
/// This is the primitive behind deterministic *parallel* sampling: a
/// caller draws one `base` value from its sequential generator, then every
/// work item `i` builds its own `SeededRng::new(derive_seed(base, i))`.
/// The result depends only on `(base, index)` — never on which thread ran
/// the item or in what order — so parallel and serial execution produce
/// bit-identical output.
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random number generator with statistics-oriented helpers.
///
/// ```
/// use vdbench_stats::SeededRng;
///
/// let mut a = SeededRng::new(7);
/// let mut b = SeededRng::new(7);
/// assert_eq!(a.uniform(), b.uniform()); // fully deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    inner: StdRng,
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeededRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent generator for a *numbered* sub-stream,
    /// consuming one draw from this generator for the base. Equivalent to
    /// `SeededRng::new(derive_seed(self.next_u64(), index))`; see
    /// [`derive_seed`] for the determinism contract.
    pub fn split_index(&mut self, index: u64) -> SeededRng {
        SeededRng::new(derive_seed(self.inner.next_u64(), index))
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// The derivation mixes the label into the parent seed with the
    /// FNV-1a hash, so sibling streams do not overlap and adding a stream
    /// never perturbs existing ones.
    pub fn split(&mut self, label: &str) -> SeededRng {
        SeededRng::new(self.split_seed(label))
    }

    /// Returns the seed [`split`](Self::split) would construct its child
    /// from, consuming the same single parent draw. Lets callers record a
    /// sub-stream's identity (e.g. for deferred materialization) without
    /// instantiating the generator.
    pub fn split_seed(&mut self, label: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in label.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.split_seed_hashed(h)
    }

    /// [`split_seed`](Self::split_seed) for a label whose FNV-1a hash the
    /// caller computed itself — `split_seed_hashed(fnv1a(label))` is
    /// bit-identical to `split_seed(label)` and consumes the same single
    /// parent draw. This is the allocation-free path for hot label
    /// families like `"unit-{i}"`, where the caller can hash the shared
    /// prefix once and fold only the digits per call.
    pub fn split_seed_hashed(&mut self, label_hash: u64) -> u64 {
        label_hash ^ self.inner.next_u64()
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_in requires lo < hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires non-empty range");
        self.inner.gen_range(0..n)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range requires lo < hi");
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal variate via the Marsaglia polar method.
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "normal requires std_dev >= 0");
        mean + std_dev * self.standard_normal()
    }

    /// Gamma(shape, scale) variate via Marsaglia–Tsang squeeze, with the
    /// standard boost for `shape < 1`.
    ///
    /// # Panics
    ///
    /// Panics if `shape` or `scale` is non-positive.
    pub fn gamma(&mut self, shape: f64, scale: f64) -> f64 {
        assert!(shape > 0.0 && scale > 0.0, "gamma requires positive params");
        if shape < 1.0 {
            // Boost: X_a = X_{a+1} * U^{1/a}
            let boost = self.uniform().powf(1.0 / shape);
            return self.gamma(shape + 1.0, scale) * boost;
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.standard_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.uniform();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v * scale;
            }
        }
    }

    /// Beta(alpha, beta) variate via the two-gamma construction.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-positive.
    pub fn beta(&mut self, alpha: f64, beta: f64) -> f64 {
        let x = self.gamma(alpha, 1.0);
        let y = self.gamma(beta, 1.0);
        x / (x + y)
    }

    /// Binomial(n, p) variate by direct simulation (adequate for the n used
    /// throughout the suite).
    pub fn binomial(&mut self, n: usize, p: f64) -> usize {
        (0..n).filter(|_| self.bernoulli(p)).count()
    }

    /// Samples `k` indices from `0..n` **without** replacement using a
    /// partial Fisher–Yates shuffle.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_without_replacement(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n} without replacement");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.range(i, n.max(i + 1));
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Samples `k` indices from `0..n` **with** replacement (the bootstrap
    /// primitive).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` and `k > 0`.
    pub fn sample_with_replacement(&mut self, n: usize, k: usize) -> Vec<usize> {
        (0..k).map(|_| self.index(n)).collect()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Chooses one element of a non-empty slice uniformly.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.index(slice.len())]
    }

    /// Samples an index according to the (non-negative, not necessarily
    /// normalized) weights. Returns `None` when all weights are zero or the
    /// slice is empty.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w.is_finite() && w > 0.0 {
                target -= w;
                if target <= 0.0 {
                    return Some(i);
                }
            }
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| w.is_finite() && *w > 0.0)
    }

    /// Raw access to the underlying RNG for interoperating with `rand`
    /// distributions elsewhere in the workspace.
    pub fn as_rng(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

impl RngCore for SeededRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> std::result::Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Summary;

    #[test]
    fn determinism() {
        let mut a = SeededRng::new(123);
        let mut b = SeededRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn split_seed_hashed_matches_split_seed() {
        let mut a = SeededRng::new(0xFEED);
        let mut b = SeededRng::new(0xFEED);
        for i in 0..50u64 {
            let label = format!("unit-{i}");
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in label.bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            assert_eq!(a.split_seed(&label), b.split_seed_hashed(h), "unit {i}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let mut parent1 = SeededRng::new(9);
        let mut parent2 = SeededRng::new(9);
        let mut c1 = parent1.split("corpus");
        let mut c2 = parent2.split("corpus");
        assert_eq!(c1.uniform().to_bits(), c2.uniform().to_bits());

        let mut parent3 = SeededRng::new(9);
        let mut d = parent3.split("detectors");
        assert_ne!(c1.uniform().to_bits(), d.uniform().to_bits());
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SeededRng::new(42);
        let s: Summary = (0..50_000).map(|_| rng.standard_normal()).collect();
        assert!(s.mean().abs() < 0.02, "mean {}", s.mean());
        assert!((s.sample_std_dev() - 1.0).abs() < 0.02);
    }

    #[test]
    fn gamma_moments() {
        let mut rng = SeededRng::new(42);
        let shape = 3.0;
        let scale = 2.0;
        let s: Summary = (0..50_000).map(|_| rng.gamma(shape, scale)).collect();
        assert!((s.mean() - shape * scale).abs() < 0.1);
        assert!((s.sample_variance() - shape * scale * scale).abs() < 0.5);
    }

    #[test]
    fn gamma_small_shape() {
        let mut rng = SeededRng::new(42);
        let s: Summary = (0..50_000).map(|_| rng.gamma(0.5, 1.0)).collect();
        assert!((s.mean() - 0.5).abs() < 0.02);
        assert!(s.min() > 0.0);
    }

    #[test]
    fn beta_bounds_and_mean() {
        let mut rng = SeededRng::new(7);
        let s: Summary = (0..20_000).map(|_| rng.beta(2.0, 6.0)).collect();
        assert!(s.min() >= 0.0 && s.max() <= 1.0);
        assert!((s.mean() - 0.25).abs() < 0.01);
    }

    #[test]
    fn binomial_mean() {
        let mut rng = SeededRng::new(11);
        let s: Summary = (0..5_000).map(|_| rng.binomial(40, 0.3) as f64).collect();
        assert!((s.mean() - 12.0).abs() < 0.25);
    }

    #[test]
    fn sampling_without_replacement_unique() {
        let mut rng = SeededRng::new(5);
        let idx = rng.sample_without_replacement(20, 10);
        assert_eq!(idx.len(), 10);
        let mut seen = idx.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 10);
        assert!(seen.iter().all(|&i| i < 20));
    }

    #[test]
    fn sampling_full_permutation() {
        let mut rng = SeededRng::new(5);
        let mut idx = rng.sample_without_replacement(8, 8);
        idx.sort_unstable();
        assert_eq!(idx, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "without replacement")]
    fn sampling_too_many_panics() {
        let mut rng = SeededRng::new(5);
        let _ = rng.sample_without_replacement(3, 4);
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = SeededRng::new(77);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.choose_weighted(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
        assert_eq!(rng.choose_weighted(&[0.0, 0.0]), None);
        assert_eq!(rng.choose_weighted(&[]), None);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SeededRng::new(3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SeededRng::new(1);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(rng.bernoulli(2.0)); // clamped
        assert!(!rng.bernoulli(-1.0)); // clamped
    }
}
