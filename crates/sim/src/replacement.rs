//! Replacement policies.
//!
//! The paper's baseline cache uses LRU (§5.1). The other policies are
//! provided for sensitivity studies (the `ext_ablations` harness sweeps
//! them) and to keep the substrate generally useful.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The replacement policy a [`DataCache`](crate::DataCache) runs.
///
/// # Example
///
/// ```
/// use cache8t_sim::{Address, CacheGeometry, DataCache, ReplacementKind};
///
/// # fn main() -> Result<(), cache8t_sim::GeometryError> {
/// // One set of two ways: the third block evicts the least recently used.
/// let g = CacheGeometry::new(64, 2, 32)?;
/// let mut cache = DataCache::new(g, ReplacementKind::Lru);
/// let mut victim = Vec::new();
/// cache.fill_into(Address::new(0x00), &[0; 4], &mut victim);
/// cache.fill_into(Address::new(0x20), &[0; 4], &mut victim);
/// let way = cache.probe(Address::new(0x00)).expect("resident");
/// cache.touch_at(0, way);
/// let slot = cache.fill_into(Address::new(0x40), &[0; 4], &mut victim);
/// assert_eq!(slot.evicted.map(|e| e.base), Some(Address::new(0x20)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplacementKind {
    /// Least recently used — the paper's policy.
    Lru,
    /// First in, first out.
    Fifo,
    /// Uniform random victim selection with a deterministic seed.
    Random {
        /// Seed for the per-set RNG (each set derives its own stream).
        seed: u64,
    },
    /// Tree-based pseudo-LRU (the common hardware approximation).
    TreePlru,
}

impl Default for ReplacementKind {
    /// LRU, the paper's baseline policy.
    fn default() -> Self {
        ReplacementKind::Lru
    }
}

impl fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplacementKind::Lru => f.write_str("lru"),
            ReplacementKind::Fifo => f.write_str("fifo"),
            ReplacementKind::Random { .. } => f.write_str("random"),
            ReplacementKind::TreePlru => f.write_str("tree-plru"),
        }
    }
}

/// Flat, monomorphized replacement state for *every* set of a cache.
///
/// The state of each policy lives in contiguous arrays indexed by
/// `set * ways + way` and is dispatched with one enum match, so the
/// compiler monomorphizes each arm and a set's state shares cache lines
/// with its neighbours. The `Random` policy gives each set its own
/// stream, seeded with `seed ^ set * 0x9e37_79b9_7f4a_7c15`.
///
/// `tests/replacement_reference.rs` replays this table in lockstep
/// against a per-set reference model of the four policies.
#[derive(Debug, Clone)]
pub(crate) enum PolicyTable {
    /// True LRU: one recency stamp per way, one clock per set.
    Lru {
        /// Recency stamps, `set * ways + way`.
        stamps: Box<[u64]>,
        /// Per-set stamp clocks.
        clock: Box<[u64]>,
    },
    /// FIFO: one fill stamp per way, one clock per set; hits ignored.
    Fifo {
        /// Fill-order stamps, `set * ways + way`.
        order: Box<[u64]>,
        /// Per-set fill clocks.
        clock: Box<[u64]>,
    },
    /// Uniform random victims from one deterministic stream per set.
    Random {
        /// Per-set RNG streams.
        rngs: Box<[SmallRng]>,
    },
    /// Tree pseudo-LRU: `ways - 1` direction bits per set.
    TreePlru {
        /// Direction bits, `set * (ways - 1) + node` (heap order).
        bits: Box<[bool]>,
    },
}

impl PolicyTable {
    /// Builds replacement state for `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`, or for [`ReplacementKind::TreePlru`] when
    /// `ways` is not a power of two.
    pub(crate) fn new(kind: ReplacementKind, num_sets: u64, ways: usize) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        let sets = num_sets as usize;
        match kind {
            ReplacementKind::Lru => PolicyTable::Lru {
                stamps: vec![0; sets * ways].into_boxed_slice(),
                clock: vec![0; sets].into_boxed_slice(),
            },
            ReplacementKind::Fifo => PolicyTable::Fifo {
                order: vec![0; sets * ways].into_boxed_slice(),
                clock: vec![0; sets].into_boxed_slice(),
            },
            ReplacementKind::Random { seed } => PolicyTable::Random {
                rngs: (0..num_sets)
                    .map(|set| {
                        SmallRng::seed_from_u64(seed ^ set.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    })
                    .collect(),
            },
            ReplacementKind::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree PLRU requires power-of-two ways"
                );
                PolicyTable::TreePlru {
                    bits: vec![false; sets * ways.saturating_sub(1)].into_boxed_slice(),
                }
            }
        }
    }

    /// Records a hit on `way` of `set`.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize, ways: usize) {
        match self {
            PolicyTable::Lru { stamps, clock } => {
                clock[set] += 1;
                stamps[set * ways + way] = clock[set];
            }
            PolicyTable::Fifo { .. } => {} // FIFO ignores hits by definition.
            PolicyTable::Random { .. } => {}
            PolicyTable::TreePlru { bits } => plru_promote(bits, set, way, ways),
        }
    }

    /// Records that a new block was installed in `way` of `set`.
    #[inline]
    pub(crate) fn filled(&mut self, set: usize, way: usize, ways: usize) {
        match self {
            PolicyTable::Lru { stamps, clock } => {
                clock[set] += 1;
                stamps[set * ways + way] = clock[set];
            }
            PolicyTable::Fifo { order, clock } => {
                clock[set] += 1;
                order[set * ways + way] = clock[set];
            }
            PolicyTable::Random { .. } => {}
            PolicyTable::TreePlru { bits } => plru_promote(bits, set, way, ways),
        }
    }

    /// Chooses the way of `set` to evict. All ways are valid when this
    /// is called (the cache prefers invalid ways itself).
    #[inline]
    pub(crate) fn victim(&mut self, set: usize, ways: usize) -> usize {
        match self {
            PolicyTable::Lru { stamps, .. } => oldest(&stamps[set * ways..set * ways + ways]),
            PolicyTable::Fifo { order, .. } => oldest(&order[set * ways..set * ways + ways]),
            PolicyTable::Random { rngs } => rngs[set].gen_range(0..ways),
            PolicyTable::TreePlru { bits } => {
                if ways == 1 {
                    return 0;
                }
                let bits = &bits[set * (ways - 1)..(set + 1) * (ways - 1)];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    let go_right = bits[node];
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
    }
}

/// Index of the minimum stamp (first index wins ties) — the shared
/// LRU/FIFO victim rule.
#[inline]
fn oldest(stamps: &[u64]) -> usize {
    let (way, _) = stamps
        .iter()
        .enumerate()
        .min_by_key(|&(_, stamp)| *stamp)
        .expect("at least one way");
    way
}

/// Walks from the root toward `way`, pointing every node away from it:
/// the tree-PLRU promote rule over one set's slice of the flat bit
/// array.
#[inline]
fn plru_promote(all_bits: &mut [bool], set: usize, way: usize, ways: usize) {
    if ways == 1 {
        return;
    }
    let bits = &mut all_bits[set * (ways - 1)..(set + 1) * (ways - 1)];
    let mut node = 0usize;
    let mut lo = 0usize;
    let mut hi = ways;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let goes_right = way >= mid;
        // Point toward the *other* subtree (the colder one).
        bits[node] = !goes_right;
        node = 2 * node + if goes_right { 2 } else { 1 };
        if goes_right {
            lo = mid;
        } else {
            hi = mid;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One set of `ways` ways under `kind`.
    fn one_set(kind: ReplacementKind, ways: usize) -> PolicyTable {
        PolicyTable::new(kind, 1, ways)
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Two sets: the updates to set 1 must leave set 0 alone.
        let mut p = PolicyTable::new(ReplacementKind::Lru, 2, 4);
        for w in 0..4 {
            p.filled(0, w, 4);
            p.filled(1, w, 4);
        }
        p.touch(1, 0, 4);
        p.touch(1, 2, 4);
        assert_eq!(p.victim(1, 4), 1);
        p.touch(1, 1, 4);
        assert_eq!(p.victim(1, 4), 3);
        assert_eq!(p.victim(0, 4), 0, "set 0 kept its fill order");
    }

    #[test]
    fn lru_single_way() {
        let mut p = one_set(ReplacementKind::Lru, 1);
        p.filled(0, 0, 1);
        assert_eq!(p.victim(0, 1), 0);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut p = one_set(ReplacementKind::Fifo, 4);
        for w in 0..4 {
            p.filled(0, w, 4);
        }
        p.touch(0, 0, 4);
        p.touch(0, 0, 4);
        assert_eq!(p.victim(0, 4), 0, "way 0 is oldest despite hits");
        p.filled(0, 0, 4);
        assert_eq!(p.victim(0, 4), 1);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut a = one_set(ReplacementKind::Random { seed: 42 }, 4);
        let mut b = one_set(ReplacementKind::Random { seed: 42 }, 4);
        for _ in 0..100 {
            let v = a.victim(0, 4);
            assert_eq!(v, b.victim(0, 4));
            assert!(v < 4);
        }
    }

    #[test]
    fn random_different_seeds_diverge() {
        let mut a = one_set(ReplacementKind::Random { seed: 1 }, 8);
        let mut b = one_set(ReplacementKind::Random { seed: 2 }, 8);
        let same = (0..64).filter(|_| a.victim(0, 8) == b.victim(0, 8)).count();
        assert!(same < 64, "streams with different seeds should differ");
    }

    #[test]
    fn tree_plru_points_away_from_recent() {
        let mut p = one_set(ReplacementKind::TreePlru, 4);
        // Touch ways 0..3 in order; way 0 becomes the coldest path.
        for w in 0..4 {
            p.touch(0, w, 4);
        }
        assert_eq!(p.victim(0, 4), 0);
        p.touch(0, 0, 4);
        p.touch(0, 1, 4);
        // Left subtree is now hot; victim comes from the right.
        let v = p.victim(0, 4);
        assert!(
            v == 2 || v == 3,
            "victim {v} should be in the right subtree"
        );
    }

    #[test]
    fn tree_plru_victim_never_most_recent() {
        let mut p = one_set(ReplacementKind::TreePlru, 8);
        for w in 0..8 {
            p.touch(0, w, 8);
            assert_ne!(p.victim(0, 8), w, "PLRU must not evict the MRU way");
        }
    }

    #[test]
    fn tree_plru_single_way() {
        let mut p = one_set(ReplacementKind::TreePlru, 1);
        p.touch(0, 0, 1);
        assert_eq!(p.victim(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn tree_plru_rejects_non_power_of_two() {
        let _ = one_set(ReplacementKind::TreePlru, 3);
    }

    #[test]
    fn kind_display_names() {
        assert_eq!(ReplacementKind::Lru.to_string(), "lru");
        assert_eq!(ReplacementKind::Fifo.to_string(), "fifo");
        assert_eq!(ReplacementKind::Random { seed: 0 }.to_string(), "random");
        assert_eq!(ReplacementKind::TreePlru.to_string(), "tree-plru");
    }

    #[test]
    fn default_kind_is_lru() {
        assert_eq!(ReplacementKind::default(), ReplacementKind::Lru);
    }
}
