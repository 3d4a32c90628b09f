//! Equivalence of the SoA cache core with the original representation.
//!
//! The `DataCache` rework (flat data arena + `PolicyTable` enum dispatch)
//! must be *behaviour-preserving*: same hit/miss stream, same eviction
//! victims, same post-flush memory images as the per-line
//! `Box<dyn ReplacementPolicy>` design it replaced. These tests pin that:
//!
//! 1. a per-set trait-object reference model (built exactly the way the
//!    old `CacheSet` built its policies, including the per-set Random
//!    seed derivation) is replayed in lockstep against `DataCache`,
//!    asserting identical victim ways and eviction metadata on every
//!    fill;
//! 2. the full conformance harness replays all five schemes at every
//!    replacement kind and must report zero divergences — identical
//!    stats, read values, and post-flush `peek_word` images.

use cache8t_conform::{replay, ConformConfig};
use cache8t_core::SchemeKind;
use cache8t_sim::{
    Address, CacheGeometry, DataCache, MainMemory, ReplacementKind, ReplacementPolicy,
};
use cache8t_trace::{profiles, ProfiledGenerator, TraceGenerator};

/// The replacement kinds the rework must preserve bit-for-bit.
fn all_kinds() -> [ReplacementKind; 4] {
    [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::Random { seed: 7 },
        ReplacementKind::TreePlru,
    ]
}

/// Reference model of one cache set as the pre-SoA representation kept
/// it: a tag per way plus a boxed per-set policy. The Random seed is
/// derived per set with the same mixing the original `CacheSet::new`
/// used (and `PolicyTable` must reproduce).
struct RefSet {
    tags: Vec<Option<u64>>,
    policy: Box<dyn ReplacementPolicy>,
}

impl RefSet {
    fn new(kind: ReplacementKind, set_index: u64, ways: usize) -> Self {
        let kind = match kind {
            ReplacementKind::Random { seed } => ReplacementKind::Random {
                seed: seed ^ set_index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            },
            other => other,
        };
        RefSet {
            tags: vec![None; ways],
            policy: kind.build(ways),
        }
    }

    fn find(&self, tag: u64) -> Option<usize> {
        self.tags.iter().position(|t| *t == Some(tag))
    }

    /// Mirrors the cache's fill-slot selection: first invalid way, else
    /// the policy's victim. Returns `(way, evicted_tag)`.
    fn fill(&mut self, tag: u64) -> (usize, Option<u64>) {
        let way = match self.tags.iter().position(Option::is_none) {
            Some(way) => way,
            None => self.policy.victim(),
        };
        let evicted = self.tags[way];
        self.tags[way] = Some(tag);
        self.policy.filled(way);
        (way, evicted)
    }
}

/// Small xorshift stream so the test needs no RNG crate plumbing.
fn next_raw(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn fill_victims_match_the_trait_object_reference() {
    let geometry = CacheGeometry::new(512, 4, 32).expect("valid geometry");
    for kind in all_kinds() {
        let mut cache = DataCache::new(geometry, kind);
        let memory = MainMemory::new(geometry.block_bytes());
        let mut reference: Vec<RefSet> = (0..geometry.num_sets())
            .map(|set| RefSet::new(kind, set, geometry.ways() as usize))
            .collect();
        let mut state = 0x0123_4567_89ab_cdef_u64;
        let mut evictions = 0u64;
        for _ in 0..20_000 {
            // 64 blocks: enough conflict pressure to evict constantly.
            let raw = (next_raw(&mut state) % 64) * geometry.block_bytes();
            let addr = Address::new(raw);
            let set_index = geometry.set_index_of(addr);
            let tag = geometry.tag_of(addr);
            let refset = &mut reference[set_index as usize];
            match cache.probe(addr) {
                Some(way) => {
                    assert_eq!(
                        refset.find(tag),
                        Some(way),
                        "{kind}: hit way diverged in set {set_index}"
                    );
                    cache.touch(addr);
                    refset.policy.touch(way);
                }
                None => {
                    assert_eq!(refset.find(tag), None, "{kind}: phantom hit");
                    let base = geometry.block_base(addr);
                    let out = cache.fill(base, memory.read_block_ref(base));
                    let (ref_way, ref_evicted) = refset.fill(tag);
                    let way = cache.probe(addr).expect("resident after fill");
                    assert_eq!(way, ref_way, "{kind}: victim way diverged");
                    let evicted_tag = out.evicted.map(|e| geometry.tag_of(e.base));
                    assert_eq!(
                        evicted_tag, ref_evicted,
                        "{kind}: evicted tag diverged in set {set_index}"
                    );
                    evictions += u64::from(evicted_tag.is_some());
                }
            }
        }
        assert_eq!(
            cache.stats().evictions,
            evictions,
            "{kind}: eviction count drifted from the lockstep driver"
        );
        assert!(evictions > 1_000, "{kind}: the stream must stress eviction");
    }
}

#[test]
fn all_schemes_agree_at_every_replacement_kind() {
    let profile = profiles::by_name("gcc").expect("gcc is in the suite");
    let geometry = CacheGeometry::new(2 * 1024, 2, 32).expect("small geometry");
    let trace = ProfiledGenerator::new(profile, geometry, 42).collect(8_000);
    for kind in all_kinds() {
        let mut config = ConformConfig::new(geometry);
        config.replacement = kind;
        config.schemes = SchemeKind::suite(4).to_vec();
        let report = replay(&trace, &config);
        assert!(
            report.pass(),
            "{kind}: conformance failed after the SoA rework:\n{}\n{}",
            report.summary(),
            report
                .divergences
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.ops_replayed, 8_000);
    }
}
