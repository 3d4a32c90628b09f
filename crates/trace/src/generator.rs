//! The profiled Markov trace generator.

use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cache8t_sim::{AccessKind, Address, CacheGeometry};

use crate::profile::KindChain;
use crate::{MemOp, Trace, WorkloadProfile, ZipfSampler};

/// A source of memory operations.
///
/// Generators are infinite streams: [`next_op`](TraceGenerator::next_op)
/// always produces another request. They also track how many instructions
/// (memory and non-memory) the stream represents so Figure-3-style
/// per-instruction statistics can be computed.
pub trait TraceGenerator {
    /// Produces the next memory operation.
    fn next_op(&mut self) -> MemOp;

    /// Instructions (memory + interleaved non-memory) represented so far.
    fn instructions_retired(&self) -> u64;

    /// Collects the next `n` operations into a [`Trace`].
    fn collect(&mut self, n: usize) -> Trace
    where
        Self: Sized,
    {
        let start = self.instructions_retired();
        let mut ops: Vec<MemOp> = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(self.next_op());
        }
        Trace::new(ops, self.instructions_retired() - start)
    }
}

/// Number of recently touched blocks remembered per set for same-set
/// revisits.
const HOT_BLOCKS_PER_SET: usize = 4;

/// One set's recently touched blocks, most recent first: `blocks[..len]`
/// is the list.
#[derive(Clone, Copy, Default)]
struct HotRow {
    blocks: [u64; HOT_BLOCKS_PER_SET],
    len: usize,
}

impl HotRow {
    /// Moves `block` to the front, evicting the oldest entry when the
    /// row is full.
    #[inline]
    fn touch(&mut self, block: u64) {
        // The slot to vacate: the block's own, or else the first free
        // one (the last one when full). Shifting everything before it
        // down by one keeps most-recent-first order.
        let end = self.blocks[..self.len]
            .iter()
            .position(|&b| b == block)
            .unwrap_or(self.len.min(HOT_BLOCKS_PER_SET - 1));
        self.blocks.copy_within(0..end, 1);
        self.blocks[0] = block;
        self.len = self.len.max(end + 1);
    }
}

/// The SPEC-2006-substituting workload generator.
///
/// `ProfiledGenerator` realizes a [`WorkloadProfile`] as a concrete request
/// stream over a given cache geometry:
///
/// - request *kinds* follow a two-state Markov chain whose stationary
///   distribution matches the profile's read share and whose transition
///   rates make the Figure-4 same-set pair targets feasible;
/// - a *same-set* transition revisits a recently touched block of the
///   previous request's set (so Tag-Buffer hits in `cache8t-core` arise the
///   way they do in real streams);
/// - other requests pick a block from the working set with Zipf-skewed
///   popularity, scattered over the sets by a multiplicative permutation;
/// - write values are silent (equal to the architecturally stored value)
///   with the profile's silent fraction, tracked against a shadow memory
///   image; non-silent writes draw from a monotone counter and can never
///   collide with a stored value.
///
/// All randomness comes from the seed passed to [`ProfiledGenerator::new`];
/// the stream is fully deterministic.
///
/// See the [crate docs](crate) for an end-to-end example.
///
/// The generator is `Clone`: a clone continues the stream from the same
/// point, independently of the original.
#[derive(Clone)]
pub struct ProfiledGenerator {
    profile: WorkloadProfile,
    geometry: CacheGeometry,
    chain: KindChain,
    zipf: ZipfSampler,
    rng: SmallRng,
    /// Shadow of architectural memory, one slot per working-set word,
    /// indexed by `addr >> 3` (never-written words hold 0).
    shadow: Vec<u64>,
    /// Recently touched blocks, one row per cache set.
    hot: Vec<HotRow>,
    prev_kind: AccessKind,
    prev_set: u64,
    prev_block: u64,
    /// Block/set of the most recent write, for the long-range revisit
    /// mechanisms (`write_revisit` / `read_after_write`).
    last_write_block: Option<u64>,
    /// Whether the previous write was silent (state of the two-state
    /// silence chain).
    last_write_silent: bool,
    instructions: u64,
    /// Instructions each memory op represents, `1 / mem_per_instr`.
    instr_per_op: f64,
    /// Accumulates the fractional part of the non-memory instruction gap.
    instr_carry: f64,
    /// Silence probability of a write after a silent write, and after a
    /// non-silent one (see `silence_rates`).
    silent_stay: f64,
    silent_enter: f64,
    fresh_counter: u64,
}

impl ProfiledGenerator {
    /// Creates a generator for `profile` over `geometry`, seeded with
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid (use
    /// [`WorkloadProfile::validate`] to check fallibly first).
    pub fn new(profile: WorkloadProfile, geometry: CacheGeometry, seed: u64) -> Self {
        let chain = profile
            .kind_chain()
            .unwrap_or_else(|e| panic!("invalid workload profile `{}`: {e}", profile.name));
        let zipf = ZipfSampler::new(profile.working_set_blocks, profile.zipf_exponent);
        let mut rng = SmallRng::seed_from_u64(seed);
        let prev_block = 0;
        let prev_set = 0;
        // Start from a random kind drawn from the stationary distribution.
        let prev_kind = if rng.gen::<f64>() < profile.read_share {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        // Every generated block is below `working_set_blocks` (ranks are
        // reduced modulo it and buddies are range-checked), so the shadow
        // covers every address the stream can name. Validation caps the
        // working set, so the zeroed image is always allocatable.
        let shadow_words = profile.working_set_blocks as usize * geometry.block_words();
        let (silent_stay, silent_enter) = Self::silence_rates(&profile);
        ProfiledGenerator {
            instr_per_op: 1.0 / profile.mem_per_instr,
            silent_stay,
            silent_enter,
            shadow: vec![0; shadow_words],
            hot: vec![HotRow::default(); geometry.num_sets() as usize],
            profile,
            geometry,
            chain,
            zipf,
            rng,
            prev_kind,
            prev_set,
            prev_block,
            last_write_block: None,
            last_write_silent: false,
            instructions: 0,
            instr_carry: 0.0,
            fresh_counter: 0,
        }
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// The cache geometry the stream is shaped for.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Maps a Zipf rank to a block id scattered across the sets.
    ///
    /// Ranks are permuted with a multiplicative hash so that popular blocks
    /// do not cluster in the low-numbered sets.
    fn rank_to_block(&self, rank: u64) -> u64 {
        const SCATTER_PRIME: u64 = 1_000_000_007;
        (rank.wrapping_mul(SCATTER_PRIME)) % self.profile.working_set_blocks
    }

    /// Byte base address of a block id.
    fn block_base(&self, block: u64) -> Address {
        Address::new(block * self.geometry.block_bytes())
    }

    fn set_of_block(&self, block: u64) -> u64 {
        self.geometry.set_index_of(self.block_base(block))
    }

    /// Picks a block for a same-set revisit: usually the previous block,
    /// otherwise one of the set's recently touched blocks.
    fn same_set_block(&mut self) -> u64 {
        // A row with fewer than two entries draws nothing.
        let row = &self.hot[self.prev_set as usize];
        if row.len > 1 && self.rng.gen::<f64>() < 0.3 {
            let idx = self.rng.gen_range(0..row.len);
            return row.blocks[idx];
        }
        self.prev_block
    }

    /// The silence probabilities `(stay, enter)` of a write after a
    /// silent and after a non-silent write, under the two-state silence
    /// chain: stationary fraction `s` with persistence
    /// `q = s + c (1 - s)` (where `c` is the correlation), giving bursty
    /// silence while keeping the marginal at exactly `s`.
    fn silence_rates(profile: &WorkloadProfile) -> (f64, f64) {
        let s = profile.silent_fraction;
        let c = profile.silent_correlation;
        if s <= 0.0 || s >= 1.0 || c <= 0.0 {
            return (s, s);
        }
        let q = s + c * (1.0 - s);
        // Entry rate chosen so the stationary distribution stays `s`.
        (q, s * (1.0 - q) / (1.0 - s))
    }

    /// Long-range revisit of the most recently written block/set, skipped
    /// whenever it would coincide with the previous request's set (that
    /// case is governed by the explicit same-set Markov transitions).
    fn long_range_revisit(&mut self, kind: AccessKind) -> Option<u64> {
        let mut block = self.last_write_block?;
        let p = match kind {
            AccessKind::Write => self.profile.write_revisit,
            AccessKind::Read => self.profile.read_after_write,
        };
        if self.rng.gen::<f64>() >= p {
            return None;
        }
        // Spatial locality: some revisits target the buddy block (the
        // neighbour completing a larger-aligned pair), which is what larger
        // cache blocks capture (paper Figure 10).
        if self.rng.gen::<f64>() < self.profile.spatial_adjacency {
            let buddy = block ^ 1;
            if buddy < self.profile.working_set_blocks {
                block = buddy;
            }
        }
        if self.set_of_block(block) == self.prev_set {
            return None;
        }
        Some(block)
    }

    fn advance_instructions(&mut self) {
        // Each memory op represents 1 / mem_per_instr instructions on
        // average; carry the fractional part so the long-run density is
        // exact. `total` is non-negative and, with `mem_per_instr`
        // validated to at least 2^-52, below 2^53: the truncating cast is
        // `floor` and converts back exactly.
        let total = self.instr_per_op + self.instr_carry;
        let whole = total as u64;
        self.instr_carry = total - whole as f64;
        self.instructions += whole;
    }
}

impl TraceGenerator for ProfiledGenerator {
    fn next_op(&mut self) -> MemOp {
        // 1. Kind, from the Markov chain.
        let p_read = match self.prev_kind {
            AccessKind::Read => self.chain.a,
            AccessKind::Write => self.chain.b,
        };
        let kind = if self.rng.gen::<f64>() < p_read {
            AccessKind::Read
        } else {
            AccessKind::Write
        };

        // 2. Same set as the previous access?
        let prev_idx = usize::from(self.prev_kind.is_write());
        let cur_idx = usize::from(kind.is_write());
        let same_set = self.rng.gen::<f64>() < self.chain.p_same[prev_idx][cur_idx];

        // 3. Block. Same-set continuations revisit the previous set; other
        // requests may exercise long-range write locality (returning to the
        // most recently written block's set), guarded so that they never
        // create an *adjacent* same-set pair and therefore leave the
        // Figure-4 statistics untouched; the rest draw from the Zipf-skewed
        // working set.
        let block = if same_set {
            self.same_set_block()
        } else if let Some(revisit) = self.long_range_revisit(kind) {
            revisit
        } else {
            let rank = self.zipf.sample(&mut self.rng);
            self.rank_to_block(rank)
        };
        let set = self.set_of_block(block);
        self.hot[set as usize].touch(block);

        // 4. Word within the block.
        let word = self.rng.gen_range(0..self.geometry.block_words() as u64);
        let addr = self.block_base(block).offset(word * 8);

        // 5. Value (writes only).
        let op = match kind {
            AccessKind::Read => MemOp::read(addr),
            AccessKind::Write => {
                let p_silent = if self.last_write_silent {
                    self.silent_stay
                } else {
                    self.silent_enter
                };
                let silent = self.rng.gen::<f64>() < p_silent;
                self.last_write_silent = silent;
                // A silent write stores what the word holds. Otherwise a
                // monotone counter starting at 1 never collides with the
                // zero-initialized memory image, and the shadow update
                // keeps collisions with *stored* values impossible (values
                // are unique per write).
                let slot = &mut self.shadow[(addr.raw() >> 3) as usize];
                if !silent {
                    self.fresh_counter += 1;
                    *slot = self.fresh_counter;
                }
                MemOp::write(addr, *slot)
            }
        };

        self.prev_kind = kind;
        self.prev_set = set;
        self.prev_block = block;
        if kind.is_write() {
            self.last_write_block = Some(block);
        }
        self.advance_instructions();
        op
    }

    fn instructions_retired(&self) -> u64 {
        self.instructions
    }
}

impl fmt::Debug for ProfiledGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProfiledGenerator")
            .field("profile", &self.profile.name)
            .field("geometry", &self.geometry)
            .field("instructions", &self.instructions)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::PairLocality;

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "unit".to_string(),
            mem_per_instr: 0.4,
            read_share: 0.65,
            locality: PairLocality {
                rr: 0.10,
                rw: 0.04,
                wr: 0.04,
                ww: 0.09,
            },
            silent_fraction: 0.42,
            working_set_blocks: 4096,
            zipf_exponent: 0.8,
            write_revisit: 0.0,
            read_after_write: 0.0,
            silent_correlation: 0.0,
            spatial_adjacency: 0.0,
        }
    }

    fn generator(seed: u64) -> ProfiledGenerator {
        ProfiledGenerator::new(profile(), CacheGeometry::paper_baseline(), seed)
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let a = generator(7).collect(500);
        let b = generator(7).collect(500);
        assert_eq!(a, b);
        let c = generator(8).collect(500);
        assert_ne!(a, c);
    }

    #[test]
    fn read_share_is_respected() {
        let t = generator(1).collect(50_000);
        let share = t.reads() as f64 / t.len() as f64;
        assert!((share - 0.65).abs() < 0.02, "read share {share}");
    }

    #[test]
    fn instruction_density_is_respected() {
        let mut g = generator(2);
        let t = g.collect(50_000);
        let density = t.len() as f64 / t.instructions() as f64;
        assert!((density - 0.4).abs() < 0.01, "density {density}");
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let g_profile = profile();
        let limit = g_profile.working_set_blocks * 32; // block_bytes = 32
        let t = generator(3).collect(10_000);
        for op in &t {
            assert!(
                op.addr.raw() < limit,
                "address {} beyond working set",
                op.addr
            );
        }
    }

    #[test]
    fn word_addresses_are_aligned() {
        let t = generator(4).collect(5_000);
        for op in &t {
            assert!(op.addr.is_aligned(8));
        }
    }

    #[test]
    fn silent_fraction_is_respected_against_shadow_replay() {
        let t = generator(5).collect(80_000);
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        let mut silent = 0u64;
        let mut writes = 0u64;
        for op in &t {
            if op.is_write() {
                writes += 1;
                let old = shadow.get(&op.addr.raw()).copied().unwrap_or(0);
                if old == op.value {
                    silent += 1;
                }
                shadow.insert(op.addr.raw(), op.value);
            }
        }
        let frac = silent as f64 / writes as f64;
        assert!((frac - 0.42).abs() < 0.02, "silent fraction {frac}");
    }

    #[test]
    fn same_set_pairs_match_targets_roughly() {
        let geometry = CacheGeometry::paper_baseline();
        let t = generator(6).collect(120_000);
        let ops = t.ops();
        let mut counts = [[0u64; 2]; 2];
        for pair in ops.windows(2) {
            if geometry.set_index_of(pair[0].addr) == geometry.set_index_of(pair[1].addr) {
                counts[usize::from(pair[0].is_write())][usize::from(pair[1].is_write())] += 1;
            }
        }
        let n = (ops.len() - 1) as f64;
        let rr = counts[0][0] as f64 / n;
        let ww = counts[1][1] as f64 / n;
        assert!((rr - 0.10).abs() < 0.03, "rr {rr}");
        assert!((ww - 0.09).abs() < 0.03, "ww {ww}");
    }

    #[test]
    #[should_panic(expected = "invalid workload profile")]
    fn invalid_profile_panics_with_name() {
        let mut p = profile();
        p.read_share = 2.0;
        let _ = ProfiledGenerator::new(p, CacheGeometry::paper_baseline(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid workload profile `unit`: working set of")]
    fn oversized_working_set_panics_with_name_before_allocating() {
        let mut p = profile();
        p.working_set_blocks = u64::MAX;
        let _ = ProfiledGenerator::new(p, CacheGeometry::paper_baseline(), 0);
    }

    #[test]
    fn sparsest_memory_density_counts_instructions_exactly() {
        let mut p = profile();
        p.mem_per_instr = WorkloadProfile::MIN_MEM_PER_INSTR;
        let t = ProfiledGenerator::new(p, CacheGeometry::paper_baseline(), 0).collect(3);
        assert_eq!(t.instructions(), 3 << 52);
    }

    #[test]
    fn accessors_expose_inputs() {
        let g = generator(9);
        assert_eq!(g.profile().name, "unit");
        assert_eq!(g.geometry(), CacheGeometry::paper_baseline());
    }
}
