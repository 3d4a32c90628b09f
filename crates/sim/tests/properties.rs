//! Property tests for the cache substrate: the cache must behave exactly
//! like a reference model (a flat map plus residency bookkeeping) under
//! arbitrary operation sequences.

use std::collections::HashMap;

use proptest::prelude::*;

use cache8t_sim::{Address, CacheGeometry, DataCache, MainMemory, ReplacementKind};

fn tiny_geometry() -> CacheGeometry {
    CacheGeometry::new(256, 2, 32).expect("valid geometry")
}

#[derive(Debug, Clone)]
enum Op {
    Read(u64),
    Write(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64).prop_map(|w| Op::Read(w * 8)),
        (0u64..64, 0u64..8).prop_map(|(w, v)| Op::Write(w * 8, v)),
    ]
}

/// A write-allocate cache driver mirroring what the controllers do: one
/// lookup finds the way (or a fill installs it), and the word access
/// takes that way.
fn drive(cache: &mut DataCache, memory: &mut MainMemory, op: &Op) -> Option<u64> {
    let (addr, write) = match op {
        Op::Read(a) => (Address::new(*a), None),
        Op::Write(a, v) => (Address::new(*a), Some(*v)),
    };
    let g = cache.geometry();
    let (set, tag, word) = (g.set_index_of(addr), g.tag_of(addr), g.word_offset_of(addr));
    let way = match cache.find_in_set(set, tag) {
        Some(way) => way,
        None => {
            let base = g.block_base(addr);
            let mut victim = Vec::new();
            let slot = cache.fill_into(base, memory.read_block_ref(base), &mut victim);
            if let Some(evicted) = slot.evicted.filter(|e| e.dirty) {
                memory.write_block_from(evicted.base, &victim);
            }
            slot.way
        }
    };
    match write {
        Some(v) => {
            cache.write_word_at(set, way, word, v);
            None
        }
        None => Some(cache.read_word_at(set, way, word)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_reads_match_flat_memory_model(ops in prop::collection::vec(op_strategy(), 1..500)) {
        let mut cache = DataCache::new(tiny_geometry(), ReplacementKind::Lru);
        let mut memory = MainMemory::new(32);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in &ops {
            let got = drive(&mut cache, &mut memory, op);
            match op {
                Op::Read(a) => {
                    let expected = model.get(a).copied().unwrap_or(0);
                    prop_assert_eq!(got, Some(expected), "read {:#x}", a);
                }
                Op::Write(a, v) => {
                    model.insert(*a, *v);
                }
            }
        }
        // Write everything back and compare the full memory image.
        let dirty: Vec<_> = cache
            .iter_valid_lines()
            .filter(|(_, _, line)| line.is_dirty())
            .map(|(set, way, _)| (set, way))
            .collect();
        let g = cache.geometry();
        for (set, way) in dirty {
            let line = cache.set(set).line(way);
            let base = g.block_base_from_parts(line.tag(), set);
            memory.write_block_from(base, line.data());
        }
        for (&a, &v) in &model {
            prop_assert_eq!(memory.read_word(Address::new(a)), v, "final {:#x}", a);
        }
    }

    #[test]
    fn residency_never_exceeds_capacity(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let g = tiny_geometry();
        let mut cache = DataCache::new(g, ReplacementKind::Lru);
        let mut memory = MainMemory::new(32);
        for op in &ops {
            drive(&mut cache, &mut memory, op);
            prop_assert!(cache.resident_blocks() as u64 <= g.num_sets() * g.ways());
            for set_idx in 0..g.num_sets() {
                let set = cache.set(set_idx);
                // No duplicate tags within a set.
                let mut tags: Vec<u64> = set
                    .iter()
                    .filter(|l| l.is_valid())
                    .map(|l| l.tag())
                    .collect();
                let before = tags.len();
                tags.dedup();
                tags.sort_unstable();
                tags.dedup();
                prop_assert_eq!(tags.len(), before, "duplicate tag in set {}", set_idx);
            }
        }
    }

    #[test]
    fn all_replacement_policies_are_functionally_equivalent(
        ops in prop::collection::vec(op_strategy(), 1..300)
    ) {
        // Different victims, same values: replacement policy must never
        // change what a read returns.
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut caches: Vec<(DataCache, MainMemory)> = [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::Random { seed: 9 },
            ReplacementKind::TreePlru,
        ]
        .into_iter()
        .map(|k| (DataCache::new(tiny_geometry(), k), MainMemory::new(32)))
        .collect();
        for op in &ops {
            if let Op::Write(a, v) = op {
                model.insert(*a, *v);
            }
            for (cache, memory) in &mut caches {
                let got = drive(cache, memory, op);
                if let Op::Read(a) = op {
                    let expected = model.get(a).copied().unwrap_or(0);
                    prop_assert_eq!(got, Some(expected));
                }
            }
        }
    }

    #[test]
    fn geometry_decomposition_roundtrips(
        raw in any::<u64>(),
        capacity_log in 7u32..20,
        ways_log in 0u32..3,
        block_log in 3u32..7,
    ) {
        let capacity = 1u64 << capacity_log;
        let ways = 1u64 << ways_log;
        let block = 1u64 << block_log;
        prop_assume!(capacity >= ways * block);
        let g = CacheGeometry::new(capacity, ways, block).expect("constrained to valid");
        let a = Address::new(raw);
        let rebuilt = g
            .block_base_from_parts(g.tag_of(a), g.set_index_of(a))
            .offset(g.block_offset_of(a));
        prop_assert_eq!(rebuilt, a);
        prop_assert!(g.set_index_of(a) < g.num_sets());
    }
}
