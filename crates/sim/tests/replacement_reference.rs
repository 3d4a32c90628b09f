//! Lockstep equivalence of `DataCache`'s flat replacement state with a
//! per-set reference model.
//!
//! The cache keeps every set's replacement state in one flat table
//! dispatched by an enum match. The reference here keeps it the
//! straightforward way, as one boxed policy object per set, built with
//! the same per-set Random seed derivation. Replaying one conflict-heavy
//! stream through both must give identical hit ways, victim ways and
//! eviction metadata on every access.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cache8t_sim::{Address, CacheGeometry, DataCache, MainMemory, ReplacementKind};

/// Per-set replacement state of the reference model.
///
/// The model calls [`touch`](ReplacementPolicy::touch) on every hit,
/// [`filled`](ReplacementPolicy::filled) when a block is installed, and
/// [`victim`](ReplacementPolicy::victim) to choose a way to evict when the
/// set is full (invalid ways are preferred before asking).
trait ReplacementPolicy: fmt::Debug {
    fn touch(&mut self, way: usize);
    fn filled(&mut self, way: usize);
    fn victim(&mut self) -> usize;
}

fn build(kind: ReplacementKind, ways: usize) -> Box<dyn ReplacementPolicy> {
    match kind {
        ReplacementKind::Lru => Box::new(Lru {
            stamps: vec![0; ways],
            clock: 0,
        }),
        ReplacementKind::Fifo => Box::new(Fifo {
            order: vec![0; ways],
            clock: 0,
        }),
        ReplacementKind::Random { seed } => Box::new(RandomPolicy {
            ways,
            rng: SmallRng::seed_from_u64(seed),
        }),
        ReplacementKind::TreePlru => {
            assert!(
                ways.is_power_of_two(),
                "tree PLRU requires power-of-two ways"
            );
            Box::new(TreePlru {
                ways,
                bits: vec![false; ways.saturating_sub(1)],
            })
        }
    }
}

/// Index of the minimum stamp, first index winning ties.
fn oldest(stamps: &[u64]) -> usize {
    let (way, _) = stamps
        .iter()
        .enumerate()
        .min_by_key(|&(_, stamp)| *stamp)
        .expect("at least one way");
    way
}

/// True LRU: a recency stamp per way.
#[derive(Debug)]
struct Lru {
    stamps: Vec<u64>,
    clock: u64,
}

impl ReplacementPolicy for Lru {
    fn touch(&mut self, way: usize) {
        self.clock += 1;
        self.stamps[way] = self.clock;
    }

    fn filled(&mut self, way: usize) {
        self.touch(way);
    }

    fn victim(&mut self) -> usize {
        oldest(&self.stamps)
    }
}

/// FIFO: the victim rotates through the ways in fill order, ignoring hits.
#[derive(Debug)]
struct Fifo {
    order: Vec<u64>,
    clock: u64,
}

impl ReplacementPolicy for Fifo {
    fn touch(&mut self, _way: usize) {}

    fn filled(&mut self, way: usize) {
        self.clock += 1;
        self.order[way] = self.clock;
    }

    fn victim(&mut self) -> usize {
        oldest(&self.order)
    }
}

/// Uniform random victims from one deterministic stream.
struct RandomPolicy {
    ways: usize,
    rng: SmallRng,
}

impl fmt::Debug for RandomPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomPolicy")
            .field("ways", &self.ways)
            .finish_non_exhaustive()
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn touch(&mut self, _way: usize) {}

    fn filled(&mut self, _way: usize) {}

    fn victim(&mut self) -> usize {
        self.rng.gen_range(0..self.ways)
    }
}

/// Tree pseudo-LRU: a binary tree of direction bits over the ways.
/// `bits[i]` for internal node `i` (heap order, root = 0): `false` = the
/// left subtree is colder, `true` = the right one is.
#[derive(Debug)]
struct TreePlru {
    ways: usize,
    bits: Vec<bool>,
}

impl TreePlru {
    /// Walks from the root toward `way`, pointing every node away from it.
    fn promote(&mut self, way: usize) {
        if self.ways == 1 {
            return;
        }
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let goes_right = way >= mid;
            // Point toward the *other* subtree (the colder one).
            self.bits[node] = !goes_right;
            node = 2 * node + if goes_right { 2 } else { 1 };
            if goes_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
}

impl ReplacementPolicy for TreePlru {
    fn touch(&mut self, way: usize) {
        self.promote(way);
    }

    fn filled(&mut self, way: usize) {
        self.promote(way);
    }

    fn victim(&mut self) -> usize {
        if self.ways == 1 {
            return 0;
        }
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let go_right = self.bits[node];
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// The replacement kinds the flat table must reproduce bit for bit.
fn all_kinds() -> [ReplacementKind; 4] {
    [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::Random { seed: 7 },
        ReplacementKind::TreePlru,
    ]
}

/// Reference model of one cache set: a tag per way plus a boxed per-set
/// policy. The Random seed is derived per set with the same mixing the
/// cache uses.
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
            policy: build(kind, ways),
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

/// Small xorshift stream so the driver needs no RNG plumbing.
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
        let mut victim = Vec::new();
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
                    cache.touch_at(set_index, way);
                    refset.policy.touch(way);
                }
                None => {
                    assert_eq!(refset.find(tag), None, "{kind}: phantom hit");
                    let base = geometry.block_base(addr);
                    let slot = cache.fill_into(base, memory.read_block_ref(base), &mut victim);
                    let (ref_way, ref_evicted) = refset.fill(tag);
                    let way = cache.probe(addr).expect("resident after fill");
                    assert_eq!(way, ref_way, "{kind}: victim way diverged");
                    assert_eq!(slot.way, way, "{kind}: fill reported the wrong way");
                    let evicted_tag = slot.evicted.map(|e| geometry.tag_of(e.base));
                    assert_eq!(
                        evicted_tag, ref_evicted,
                        "{kind}: evicted tag diverged in set {set_index}"
                    );
                    evictions += u64::from(evicted_tag.is_some());
                }
            }
        }
        assert_eq!(
            cache.evictions(),
            evictions,
            "{kind}: eviction count drifted from the lockstep driver"
        );
        assert!(evictions > 1_000, "{kind}: the stream must stress eviction");
    }
}
