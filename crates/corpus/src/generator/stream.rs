//! Streaming corpus generation.
//!
//! [`CorpusStream`] yields the exact unit sequence [`CorpusBuilder::build`]
//! would produce, in bounded windows, without ever materializing the whole
//! corpus. The builder's `build` loop draws one parent-RNG value per unit
//! (`rng.split("unit-{i}")`); the stream replays the same draw sequence and
//! records each unit's derived seed in a [`UnitPlan`], so materializing any
//! window — or any single unit — is bit-identical to the monolithic path.
//!
//! Each plan also carries a content *fingerprint*:
//! `derive_seed(config_fp ^ unit_seed, index)`, where `config_fp` folds
//! every generator knob except the unit count. Growing a corpus therefore
//! leaves existing fingerprints untouched (only the new tail differs),
//! which is what makes incremental delta rescans exact.

use super::CorpusBuilder;
use crate::corpus::Corpus;
use vdbench_stats::{derive_seed, SeededRng};

/// Continues an FNV-1a state over `bytes`.
fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over a byte string (the repo-wide content-hash primitive).
fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a state over the decimal digits of `n` — the bytes
/// `format!("{n}")` would append, without the allocation.
fn fold_decimal(h: u64, n: u64) -> u64 {
    let mut buf = [0u8; 20];
    let mut pos = buf.len();
    let mut rest = n;
    loop {
        pos -= 1;
        buf[pos] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    fnv1a_fold(h, &buf[pos..])
}

/// Folds every generator knob *except the unit count* into one hash, so a
/// grown corpus keeps the fingerprints of its existing units.
fn config_fingerprint(b: &CorpusBuilder) -> u64 {
    let mut h = fnv1a_64(b"corpus-config-v1");
    let mut mix = |v: u64| h = derive_seed(h ^ v, 0x5ca1e);
    mix(b.density.to_bits());
    mix(fnv1a_64(format!("{:?}", b.classes).as_bytes()));
    match &b.class_weights {
        None => mix(0),
        Some(ws) => {
            mix(1 + ws.len() as u64);
            for w in ws {
                mix(w.to_bits());
            }
        }
    }
    mix(b.disguise_rate.to_bits());
    mix(b.decoy_rate.to_bits());
    mix(b.interproc_rate.to_bits());
    mix(b.gate_rate.to_bits());
    mix(b.stored_rate.to_bits());
    mix(b.gate_obscurity.to_bits());
    mix(b.noise as u64);
    h
}

/// The identity of one not-yet-materialized unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitPlan {
    /// Global unit index (becomes `Unit::id`).
    pub index: u32,
    /// Seed of the unit's private RNG, exactly as `build()` derives it.
    pub seed: u64,
    /// Content fingerprint: stable across runs and across corpus growth,
    /// changed by any generator knob or seed change that affects the unit.
    pub fingerprint: u64,
}

/// Materializes planned units without holding the stream cursor.
///
/// A [`CorpusStream`] is a *cursor* — `next_plans` mutates the parent RNG
/// — but materialization is a pure function of the plans and the builder
/// configuration. Splitting the two lets a scanner plan a window of
/// shards on one thread and materialize them on any number of others:
/// the materializer owns only immutable builder state, so it is
/// `Send + Sync` and shareable by reference across pool threads.
#[derive(Debug, Clone)]
pub struct UnitMaterializer {
    builder: CorpusBuilder,
}

impl UnitMaterializer {
    /// Materializes a contiguous run of plans as a shard whose site ids
    /// stay global ([`Corpus::unit_base`] = the first plan's index) —
    /// what [`CorpusStream::materialize`] runs on the same plans.
    ///
    /// # Panics
    ///
    /// Panics if the plans are not index-contiguous.
    pub fn materialize(&self, plans: &[UnitPlan]) -> Corpus {
        let base = plans.first().map_or(0, |p| p.index);
        let mut units = Vec::with_capacity(plans.len());
        let mut sites = Vec::with_capacity(plans.len());
        for (offset, plan) in plans.iter().enumerate() {
            assert_eq!(
                plan.index as usize,
                base as usize + offset,
                "materialize requires index-contiguous plans"
            );
            let mut rng = SeededRng::new(plan.seed);
            let (unit, info) = self.builder.generate_unit(plan.index, &mut rng);
            units.push(unit);
            sites.push(info);
        }
        Corpus::from_shard(units, sites, self.builder.seed, base)
    }
}

/// On-demand generator over a [`CorpusBuilder`]'s unit sequence.
///
/// ```
/// use vdbench_corpus::CorpusBuilder;
///
/// let builder = CorpusBuilder::new().units(100).seed(7);
/// let mut stream = builder.stream();
/// let mut shards = 0;
/// let mut units = 0;
/// while let Some(shard) = stream.next_shard(32) {
///     shards += 1;
///     units += shard.units().len();
/// }
/// assert_eq!((shards, units), (4, 100));
/// ```
#[derive(Debug)]
pub struct CorpusStream {
    mat: UnitMaterializer,
    parent: SeededRng,
    next: usize,
    config_fp: u64,
    /// FNV-1a state over the shared `"unit-"` label prefix: `next_plans`
    /// finishes each per-unit label hash by folding only the decimal
    /// digits of the index, sparing the `format!` allocation the
    /// monolithic `build()` loop pays per unit (bit-identical seeds — see
    /// `SeededRng::split_seed_hashed`).
    label_state: u64,
}

impl CorpusStream {
    pub(crate) fn new(builder: CorpusBuilder) -> Self {
        let parent = SeededRng::new(builder.seed);
        let config_fp = config_fingerprint(&builder);
        CorpusStream {
            mat: UnitMaterializer { builder },
            parent,
            next: 0,
            config_fp,
            label_state: fnv1a_64(b"unit-"),
        }
    }

    /// A [`UnitMaterializer`] for this stream's builder configuration —
    /// the thread-safe half of the plan/materialize split.
    pub fn materializer(&self) -> UnitMaterializer {
        self.mat.clone()
    }

    /// Total units the stream will yield.
    pub fn total_units(&self) -> usize {
        self.mat.builder.units
    }

    /// Units not yet yielded.
    pub fn remaining_units(&self) -> usize {
        self.total_units() - self.next
    }

    /// Yields identities for the next `max` units (fewer at the end of the
    /// stream; empty when exhausted). Consumes one parent-RNG draw per
    /// plan, exactly like the monolithic `build()` loop.
    pub fn next_plans(&mut self, max: usize) -> Vec<UnitPlan> {
        let take = max.min(self.remaining_units());
        let mut plans = Vec::with_capacity(take);
        for _ in 0..take {
            let i = self.next;
            let label_hash = fold_decimal(self.label_state, i as u64);
            let seed = self.parent.split_seed_hashed(label_hash);
            plans.push(UnitPlan {
                index: i as u32,
                seed,
                fingerprint: derive_seed(self.config_fp ^ seed, i as u64),
            });
            self.next += 1;
        }
        plans
    }

    /// Materializes a contiguous run of plans as a shard whose site ids
    /// stay global ([`Corpus::unit_base`] = the first plan's index).
    ///
    /// # Panics
    ///
    /// Panics if the plans are not index-contiguous.
    pub fn materialize(&self, plans: &[UnitPlan]) -> Corpus {
        self.mat.materialize(plans)
    }

    /// Yields the next shard of at most `max` units, or `None` when the
    /// stream is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `max` is 0.
    pub fn next_shard(&mut self, max: usize) -> Option<Corpus> {
        assert!(max > 0, "shard size must be positive");
        let plans = self.next_plans(max);
        if plans.is_empty() {
            None
        } else {
            Some(self.materialize(&plans))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stream_matches_build_at_any_shard_size() {
        let builder = CorpusBuilder::new().units(53).seed(41);
        let whole = builder.build();
        for shard_size in [1usize, 7, 16, 53, 100] {
            let mut stream = builder.stream();
            let mut units = Vec::new();
            let mut sites = Vec::new();
            while let Some(shard) = stream.next_shard(shard_size) {
                units.extend_from_slice(shard.units());
                sites.extend(shard.sites().cloned());
            }
            let glued = Corpus::from_parts(units, sites, whole.seed());
            assert_eq!(glued, whole, "shard size {shard_size}");
        }
    }

    #[test]
    fn fingerprints_are_stable_under_growth() {
        let small: Vec<_> = CorpusBuilder::new()
            .units(20)
            .seed(9)
            .stream()
            .next_plans(20);
        let big: Vec<_> = CorpusBuilder::new()
            .units(35)
            .seed(9)
            .stream()
            .next_plans(35);
        assert_eq!(&big[..20], &small[..]);
        let other_seed: Vec<_> = CorpusBuilder::new()
            .units(20)
            .seed(10)
            .stream()
            .next_plans(20);
        for (a, b) in small.iter().zip(&other_seed) {
            assert_ne!(a.fingerprint, b.fingerprint, "unit {}", a.index);
        }
    }

    #[test]
    fn knob_changes_move_every_fingerprint() {
        let base: Vec<_> = CorpusBuilder::new()
            .units(10)
            .seed(3)
            .stream()
            .next_plans(10);
        let noisier: Vec<_> = CorpusBuilder::new()
            .units(10)
            .seed(3)
            .noise(9)
            .stream()
            .next_plans(10);
        for (a, b) in base.iter().zip(&noisier) {
            assert_eq!(a.seed, b.seed, "unit seeds depend only on the seed");
            assert_ne!(a.fingerprint, b.fingerprint, "unit {}", a.index);
        }
    }

    #[test]
    fn plan_labels_match_the_allocating_formula() {
        // The digit-folding fast path must draw the exact seeds the
        // `build()` loop derives from `format!("unit-{i}")` labels —
        // including multi-digit and zero indices.
        let builder = CorpusBuilder::new().units(1203).seed(0xFA57);
        let mut parent = SeededRng::new(0xFA57);
        let plans = builder.stream().next_plans(1203);
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!(
                plan.seed,
                parent.split_seed(&format!("unit-{i}")),
                "unit {i}"
            );
        }
    }

    #[test]
    fn materializer_matches_stream_and_is_thread_safe() {
        fn assert_thread_safe<T: Send + Sync>() {}
        assert_thread_safe::<UnitMaterializer>();
        assert_thread_safe::<UnitPlan>();
        fn assert_send<T: Send>() {}
        assert_send::<CorpusStream>();

        let builder = CorpusBuilder::new().units(40).seed(0x31A7);
        let mut stream = builder.stream();
        let mat = stream.materializer();
        let plans = stream.next_plans(40);
        assert_eq!(
            mat.materialize(&plans[8..24]),
            stream.materialize(&plans[8..24])
        );
        // Threads materialize concurrently from one shared materializer.
        let shards: Vec<Corpus> = std::thread::scope(|s| {
            let handles: Vec<_> = plans
                .chunks(10)
                .map(|chunk| s.spawn(|| mat.materialize(chunk)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, shard) in shards.iter().enumerate() {
            assert_eq!(*shard, stream.materialize(&plans[i * 10..(i + 1) * 10]));
        }
    }

    #[test]
    fn single_unit_materialization_matches_build() {
        let builder = CorpusBuilder::new().units(12).seed(77);
        let whole = builder.build();
        let mut stream = builder.stream();
        let plans = stream.next_plans(12);
        for plan in &plans {
            let one = stream.materialize(std::slice::from_ref(plan));
            assert_eq!(one.units(), &whole.units()[plan.index as usize..][..1]);
        }
    }

    #[test]
    #[should_panic(expected = "index-contiguous")]
    fn non_contiguous_plans_panic() {
        let mut stream = CorpusBuilder::new().units(4).seed(1).stream();
        let plans = stream.next_plans(4);
        let gapped = [plans[0], plans[2]];
        let _ = stream.materialize(&gapped);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_stream_is_bit_identical_to_build(
            seed in any::<u64>(),
            units in 0usize..80,
            shard in 1usize..33,
        ) {
            let builder = CorpusBuilder::new().units(units).seed(seed);
            let whole = builder.build();
            let mut stream = builder.stream();
            let mut all_units = Vec::new();
            let mut all_sites = Vec::new();
            while let Some(s) = stream.next_shard(shard) {
                prop_assert!(s.units().len() <= shard);
                all_units.extend_from_slice(s.units());
                all_sites.extend(s.sites().cloned());
            }
            let glued = Corpus::from_parts(all_units, all_sites, seed);
            prop_assert_eq!(glued, whole);
        }
    }
}
