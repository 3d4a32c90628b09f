//! The controller abstraction shared by all write schemes.

use std::fmt;

use serde::{Deserialize, Serialize};

use cache8t_obs::{Component, EventKind, TraceEvent};
use cache8t_sim::{Address, CacheGeometry, CacheStats, DataCache, MainMemory, ReplacementKind};
use cache8t_trace::{DecodedBatch, DecodedOp, MemOp};

use crate::obs::StackObs;
use crate::{ArrayTraffic, WgController};

/// The array cost of one serviced request, for timing models.
///
/// `cache8t-cpu` schedules these against the 8T array's 1R+1W ports: row
/// reads occupy the read port, row writes the write port, and a request
/// served entirely from the Set-Buffer occupies neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessCost {
    /// Row reads the request triggered (demand read, RMW read phase,
    /// Set-Buffer fill).
    pub row_reads: u32,
    /// Row writes the request triggered (RMW write phase, write-backs).
    pub row_writes: u32,
    /// `true` if the request was served from the Set-Buffer.
    pub buffer_hit: bool,
}

impl AccessCost {
    /// Total array activations for this request.
    pub fn total(&self) -> u32 {
        self.row_reads + self.row_writes
    }
}

/// The outcome of one serviced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessResponse {
    /// For reads: the value returned to the processor. For writes: the
    /// value stored.
    pub value: u64,
    /// `true` if the block was resident when the request arrived (a
    /// functional cache hit).
    pub hit: bool,
    /// Array operations performed to service this request.
    pub cost: AccessCost,
}

/// A cache front-end servicing a memory request stream while accounting
/// SRAM-array traffic.
///
/// Implementations share functional behaviour — same hits and misses, same
/// replacement decisions, same returned values — and differ only in *how
/// many array operations* each request costs. That invariant is what makes
/// the traffic comparison of Figures 9–11 meaningful, and it is enforced by
/// the cross-controller equivalence tests in this crate.
///
/// A scheme supplies its [`CacheBackend`], [`serve`](Controller::serve)
/// and [`name`](Controller::name), plus [`drain`](Controller::drain),
/// [`reset_scheme_counters`](Controller::reset_scheme_counters),
/// [`peek_word`](Controller::peek_word) and
/// [`occupancy`](Controller::occupancy) when it keeps state of its own
/// (write buffers, an open RMW burst). The request loop, the ledgers and
/// the observability surface are provided once, here: `access`,
/// `access_batch` and `flush` end by deriving the backend's mirrored
/// registry counters from its ledgers.
pub trait Controller {
    /// The functional cache, ledgers and observability bundle the
    /// controller runs on.
    fn backend(&self) -> &CacheBackend;

    /// Mutable access to the backend.
    fn backend_mut(&mut self) -> &mut CacheBackend;

    /// Services one request whose address decomposition is already
    /// known, recording it and its array cost in the backend's ledgers.
    /// The body of [`access`](Controller::access) and
    /// [`access_batch`](Controller::access_batch).
    fn serve(&mut self, d: DecodedOp) -> AccessResponse;

    /// Short scheme name for reports (e.g. `"RMW"`, `"WG+RB"`).
    fn name(&self) -> &'static str;

    /// Writes back any buffered state: the body of
    /// [`flush`](Controller::flush). Idempotent; the default has
    /// nothing buffered.
    fn drain(&mut self) {}

    /// Restarts the scheme's own measurement state (an open RMW burst,
    /// a Set-Buffer's fill tick) before
    /// [`reset_counters`](Controller::reset_counters) zeroes the ledgers.
    fn reset_scheme_counters(&mut self) {}

    /// The architecturally current value of the aligned word at `addr`,
    /// looking through any buffers, the cache, and memory.
    fn peek_word(&self, addr: Address) -> u64 {
        self.backend().peek_word(addr)
    }

    /// Instantaneous write-buffer occupancy for the telemetry sampler:
    /// index = occupancy level of a live buffer (modified ways of a WG
    /// Set-Buffer, valid words of a coalescing entry), value = buffers
    /// at that level. `None` for schemes without write buffers (the
    /// sampler records an empty histogram).
    fn occupancy(&self) -> Option<Vec<u64>> {
        None
    }

    /// The grouping controller behind this scheme (WG and WG+RB), for
    /// inspecting its Set-Buffers; `None` for every other scheme.
    fn as_wg(&self) -> Option<&WgController> {
        None
    }

    /// Mutable access to the grouping controller, e.g. to arm a
    /// self-test fault; `None` for every other scheme.
    fn as_wg_mut(&mut self) -> Option<&mut WgController> {
        None
    }

    /// Services one request.
    fn access(&mut self, op: &MemOp) -> AccessResponse {
        let g = self.backend().cache().geometry();
        let response = self.serve(DecodedOp::from_op(op, &g));
        self.backend_mut().refresh_metrics();
        response
    }

    /// Services ops `range` of a pre-decoded batch, in order: the same
    /// as calling [`access`](Controller::access) on each reconstructed
    /// op, without re-deriving its set/tag/word. The batch must have
    /// been decoded against this controller's cache geometry.
    fn access_batch(&mut self, batch: &DecodedBatch, range: std::ops::Range<usize>) {
        assert_eq!(
            batch.geometry(),
            self.backend().cache().geometry(),
            "batch decoded against a different geometry"
        );
        for d in batch.run(range) {
            self.serve(d);
        }
        self.backend_mut().refresh_metrics();
    }

    /// Writes back any buffered state so the cache/memory image is
    /// architecturally current. Idempotent.
    fn flush(&mut self) {
        self.drain();
        self.backend_mut().refresh_metrics();
    }

    /// The traffic ledger.
    fn traffic(&self) -> &ArrayTraffic {
        self.backend().traffic()
    }

    /// Request-level hit/miss statistics, maintained identically by every
    /// controller.
    fn stats(&self) -> &CacheStats {
        self.backend().request_stats()
    }

    /// Resets the traffic ledger, request statistics and observability
    /// bundle, keeping cache and buffer contents (used after warm-up,
    /// mirroring the paper's 1 B warm-up instructions).
    fn reset_counters(&mut self) {
        self.reset_scheme_counters();
        self.backend_mut().reset_stats();
    }

    /// The underlying functional cache.
    fn cache(&self) -> &DataCache {
        self.backend().cache()
    }

    /// The backing memory image.
    fn memory(&self) -> &MainMemory {
        self.backend().memory()
    }

    /// Total array activations so far under the paper's counting
    /// ([`ArrayTraffic::total`]).
    fn array_accesses(&self) -> u64 {
        self.traffic().total()
    }

    /// The stack's observability bundle (metric registry + event
    /// tracer).
    fn obs(&self) -> Option<&StackObs> {
        Some(self.backend().obs())
    }

    /// Mutable access to the observability bundle.
    fn obs_mut(&mut self) -> Option<&mut StackObs> {
        Some(self.backend_mut().obs_mut())
    }
}

/// The functional machinery every controller embeds: a value-carrying
/// cache, an optional L2 behind it, the backing memory, write-allocate
/// miss handling, and the stack's ledgers.
///
/// The paper's Pin tool models an isolated L1 over "memory"; that remains
/// the default. [`CacheBackend::with_l2`] inserts a non-inclusive
/// (victim-style NINE) second level: L1 misses probe the L2 before memory,
/// dirty L1 victims are deposited into the L2, and dirty L2 victims go to
/// memory. Because every controller shares this path, the L1's functional
/// behaviour — and therefore the paper's demand-traffic figures — is
/// bit-identical with or without an L2 (`tests/hierarchy.rs` asserts
/// this).
///
/// The backend owns the two ledgers: the request [`CacheStats`] and the
/// [`ArrayTraffic`]. It counts what every scheme pays alike, line fills
/// and dirty-eviction write-backs; the controller adds what each request
/// costs on its array. The registry counters that copy a ledger field
/// are derived from the ledgers, never counted (see [`StackObs`]).
pub struct CacheBackend {
    cache: DataCache,
    l2: Option<DataCache>,
    memory: MainMemory,
    requests: CacheStats,
    traffic: ArrayTraffic,
    obs: StackObs,
    /// Reusable one-block staging buffer for fills and merges.
    scratch: Box<[u64]>,
    /// Reusable buffer receiving L1 victims from `fill_into`.
    victim: Vec<u64>,
    /// Reusable buffer receiving L2 victims from `fill_into`.
    l2_victim: Vec<u64>,
}

impl CacheBackend {
    /// Creates an empty cache over zeroed memory.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        CacheBackend {
            cache: DataCache::new(geometry, replacement),
            l2: None,
            memory: MainMemory::new(geometry.block_bytes()),
            requests: CacheStats::new(),
            traffic: ArrayTraffic::new(),
            obs: StackObs::from_env(),
            scratch: vec![0; geometry.block_words()].into_boxed_slice(),
            victim: Vec::new(),
            l2_victim: Vec::new(),
        }
    }

    /// Creates a two-level hierarchy: `geometry` over an `l2_geometry`
    /// second level over zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if the two levels disagree on block size (no sub-blocking)
    /// or the L2 is smaller than the L1.
    pub fn with_l2(
        geometry: CacheGeometry,
        l2_geometry: CacheGeometry,
        replacement: ReplacementKind,
    ) -> Self {
        assert_eq!(
            geometry.block_bytes(),
            l2_geometry.block_bytes(),
            "L1 and L2 must share a block size"
        );
        assert!(
            l2_geometry.capacity_bytes() >= geometry.capacity_bytes(),
            "the L2 should not be smaller than the L1"
        );
        CacheBackend {
            l2: Some(DataCache::new(l2_geometry, replacement)),
            ..CacheBackend::new(geometry, replacement)
        }
    }

    /// The stack's observability bundle.
    pub fn obs(&self) -> &StackObs {
        &self.obs
    }

    /// Mutable access to the observability bundle.
    pub fn obs_mut(&mut self) -> &mut StackObs {
        &mut self.obs
    }

    /// The second-level cache, if the hierarchy has one.
    pub fn l2(&self) -> Option<&DataCache> {
        self.l2.as_ref()
    }

    /// The request tick: requests serviced since the last reset. Events
    /// are stamped with it.
    #[inline]
    pub(crate) fn tick(&self) -> u64 {
        self.requests.accesses()
    }

    /// Emits a structural event stamped with the current tick.
    #[inline]
    pub(crate) fn emit(&mut self, component: Component, kind: EventKind, addr: u64, detail: u64) {
        let event = TraceEvent::new(self.tick(), component, kind, addr, detail);
        self.obs.tracer_mut().emit(event);
    }

    /// Emits a verbose (per-access) event stamped with the current tick.
    #[inline]
    pub(crate) fn emit_verbose(
        &mut self,
        component: Component,
        kind: EventKind,
        addr: u64,
        detail: u64,
    ) {
        let event = TraceEvent::new(self.tick(), component, kind, addr, detail);
        self.obs.tracer_mut().emit_verbose(event);
    }

    /// Reads the block at `base` from below the L1 into `dst` (L2 if
    /// present — allocating there on an L2 miss — else memory).
    ///
    /// A free-standing helper over disjoint backend fields so callers
    /// can keep `self.scratch`/`self.victim` borrowed at the call site.
    fn load_below(
        l2: &mut Option<DataCache>,
        memory: &mut MainMemory,
        l2_victim: &mut Vec<u64>,
        dst: &mut [u64],
        base: Address,
    ) {
        let Some(l2) = l2 else {
            memory.read_block_into(base, dst);
            return;
        };
        let set = l2.geometry().set_index_of(base);
        if let Some(way) = l2.probe(base) {
            l2.touch_at(set, way);
            dst.copy_from_slice(l2.set(set).line(way).data());
            return;
        }
        memory.read_block_into(base, dst);
        let slot = l2.fill_into(base, dst, l2_victim);
        if let Some(victim) = slot.evicted {
            if victim.dirty {
                memory.write_block_from(victim.base, l2_victim);
            }
        }
    }

    /// Deposits a whole (dirty) block below the L1: into the L2 if
    /// present (allocating on miss), else straight to memory.
    fn deposit_below(
        l2: &mut Option<DataCache>,
        memory: &mut MainMemory,
        l2_victim: &mut Vec<u64>,
        base: Address,
        data: &[u64],
    ) {
        let Some(l2) = l2 else {
            memory.write_block_from(base, data);
            return;
        };
        let set = l2.geometry().set_index_of(base);
        if let Some(way) = l2.probe(base) {
            l2.touch_at(set, way);
            l2.update_block(set, way, data, true);
            return;
        }
        let slot = l2.fill_into(base, data, l2_victim);
        // `fill_into` installs `data` clean; mark the block dirty so it
        // eventually reaches memory.
        l2.set_line_dirty(set, slot.way, true);
        if let Some(victim) = slot.evicted {
            if victim.dirty {
                memory.write_block_from(victim.base, l2_victim);
            }
        }
    }

    /// Merges `words` (where `valid`) into the block below the L1 — the
    /// write-around path used when a buffered block's line has left the
    /// L1 (see `CoalescingController`).
    pub fn merge_words_below(&mut self, base: Address, words: &[u64], valid: &[bool]) {
        Self::load_below(
            &mut self.l2,
            &mut self.memory,
            &mut self.l2_victim,
            &mut self.scratch,
            base,
        );
        for (i, &is_valid) in valid.iter().enumerate() {
            if is_valid {
                self.scratch[i] = words[i];
            }
        }
        Self::deposit_below(
            &mut self.l2,
            &mut self.memory,
            &mut self.l2_victim,
            base,
            &self.scratch,
        );
    }

    /// Records a serviced read request.
    #[inline]
    pub fn record_read(&mut self, hit: bool) {
        self.emit_verbose(Component::Cache, EventKind::Access, 0, 0);
        if hit {
            self.requests.read_hits += 1;
        } else {
            self.requests.read_misses += 1;
        }
    }

    /// Records a serviced write request.
    #[inline]
    pub fn record_write(&mut self, hit: bool, silent: bool) {
        self.emit_verbose(Component::Cache, EventKind::Access, 0, 1);
        if hit {
            self.requests.write_hits += 1;
        } else {
            self.requests.write_misses += 1;
        }
        if silent {
            self.requests.silent_word_writes += 1;
        }
    }

    /// Request-level statistics (one entry per CPU request, regardless of
    /// how the controller serviced it).
    pub fn request_stats(&self) -> &CacheStats {
        &self.requests
    }

    /// The traffic ledger.
    pub(crate) fn traffic(&self) -> &ArrayTraffic {
        &self.traffic
    }

    /// Mutable access to the traffic ledger, for the array operations a
    /// controller performs.
    #[inline]
    pub(crate) fn traffic_mut(&mut self) -> &mut ArrayTraffic {
        &mut self.traffic
    }

    /// Zeroes both ledgers, the L1's eviction counts, and the
    /// observability bundle (metric values, events; the tick restarts).
    pub fn reset_stats(&mut self) {
        self.requests = CacheStats::new();
        self.traffic = ArrayTraffic::new();
        self.cache.reset_evictions();
        self.obs.reset();
    }

    /// Sets every mirrored registry counter from the ledgers. The
    /// provided [`Controller`] methods call it at the end of each
    /// `access`, `access_batch` and `flush`.
    #[inline]
    pub(crate) fn refresh_metrics(&mut self) {
        self.obs.refresh(&self.requests, &self.traffic, &self.cache);
    }

    /// The functional cache.
    pub fn cache(&self) -> &DataCache {
        &self.cache
    }

    /// Mutable access to the functional cache.
    pub fn cache_mut(&mut self) -> &mut DataCache {
        &mut self.cache
    }

    /// The backing memory.
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Ensures the block containing `addr` is resident, allocating on miss
    /// (write-allocate for both reads and writes, as in the paper's L1
    /// model). A miss's line fill and any dirty-victim write-back land
    /// in the traffic ledger.
    pub fn ensure_resident(&mut self, addr: Address) -> ResidencyOutcome {
        let probed = self.cache.probe(addr);
        self.ensure_resident_probed(addr, probed)
    }

    /// [`ensure_resident`](Self::ensure_resident) for callers that
    /// already probed the cache: `probed` is the result of
    /// [`DataCache::probe`]/[`DataCache::find_in_set`] for `addr`, so no
    /// second tag search happens on the hit path. The returned
    /// [`ResidencyOutcome::way`] lets the caller address the line
    /// directly for the subsequent data access.
    #[inline]
    pub fn ensure_resident_probed(
        &mut self,
        addr: Address,
        probed: Option<usize>,
    ) -> ResidencyOutcome {
        match probed {
            Some(way) => ResidencyOutcome { hit: true, way },
            None => self.fill_on_miss(addr),
        }
    }

    /// The miss half of [`ensure_resident_probed`](Self::ensure_resident_probed):
    /// load the block from below, install it, write back any dirty
    /// victim, and count both in the ledger. Split out and marked cold
    /// so the hit path — a branch and a struct return — inlines into the
    /// controllers' access loops.
    #[cold]
    fn fill_on_miss(&mut self, addr: Address) -> ResidencyOutcome {
        let base = self.cache.geometry().block_base(addr);
        let words = self.scratch.len() as u64;
        let heat_bucket = self
            .cache
            .geometry()
            .heat_bucket_of(addr, crate::obs::SET_HEAT_BUCKETS);
        let slot = if self.l2.is_none() {
            // No L2: fill straight from the memory image's block (or its
            // shared zero block), skipping the scratch staging copy.
            let block = self.memory.read_block_ref(base);
            self.cache.fill_into(base, block, &mut self.victim)
        } else {
            Self::load_below(
                &mut self.l2,
                &mut self.memory,
                &mut self.l2_victim,
                &mut self.scratch,
                base,
            );
            self.cache.fill_into(base, &self.scratch, &mut self.victim)
        };
        self.traffic.line_fills += 1;
        self.obs.record_set_heat(heat_bucket);
        self.emit(Component::Cache, EventKind::LineFill, base.raw(), words);
        if let Some(victim) = slot.evicted {
            if victim.dirty {
                Self::deposit_below(
                    &mut self.l2,
                    &mut self.memory,
                    &mut self.l2_victim,
                    victim.base,
                    &self.victim,
                );
                self.traffic.eviction_writebacks += 1;
            }
            self.emit(
                Component::Cache,
                EventKind::Eviction,
                victim.base.raw(),
                u64::from(victim.dirty),
            );
        }
        ResidencyOutcome {
            hit: false,
            way: slot.way,
        }
    }

    /// The architecturally current word at `addr` as seen by cache +
    /// memory (no controller buffers).
    pub fn peek_word(&self, addr: Address) -> u64 {
        if let Some(way) = self.cache.probe(addr) {
            let g = self.cache.geometry();
            let set = g.set_index_of(addr);
            return self.cache.set(set).line(way).data()[g.word_offset_of(addr)];
        }
        if let Some(l2) = &self.l2 {
            if let Some(way) = l2.probe(addr) {
                let g = l2.geometry();
                let set = g.set_index_of(addr);
                return l2.set(set).line(way).data()[g.word_offset_of(addr)];
            }
        }
        self.memory.read_word(addr)
    }
}

impl fmt::Debug for CacheBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheBackend")
            .field("cache", &self.cache)
            .field("l2", &self.l2.as_ref().map(|c| c.geometry()))
            .field("memory_blocks", &self.memory.resident_blocks())
            .field("traffic", &self.traffic)
            .finish()
    }
}

/// Result of [`CacheBackend::ensure_resident`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidencyOutcome {
    /// The block was already resident (otherwise it was just filled).
    pub hit: bool,
    /// The way the block occupies after the call (the hit way, or the
    /// way the fill installed into). Callers use it to address the line
    /// directly instead of re-searching the set's tags.
    pub way: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_obs::TraceLevel;

    fn backend() -> CacheBackend {
        CacheBackend::new(
            CacheGeometry::new(128, 2, 32).unwrap(),
            ReplacementKind::Lru,
        )
    }

    #[test]
    fn ensure_resident_fills_on_miss_and_hits_after() {
        let mut b = backend();
        let a = Address::new(0x40);
        let first = b.ensure_resident(a);
        assert!(!first.hit);
        assert_eq!(b.traffic().line_fills, 1);
        assert_eq!(b.traffic().eviction_writebacks, 0);
        let second = b.ensure_resident(a);
        assert!(second.hit);
        assert_eq!(b.traffic().line_fills, 1, "a hit fills nothing");
    }

    /// Writes `value` to the resident word at `addr`.
    fn write(b: &mut CacheBackend, addr: Address, value: u64) {
        let g = b.cache().geometry();
        let way = b.ensure_resident(addr).way;
        b.cache_mut()
            .write_word_at(g.set_index_of(addr), way, g.word_offset_of(addr), value);
    }

    #[test]
    fn dirty_victims_reach_memory() {
        let mut b = backend();
        let a = Address::new(0x40);
        b.ensure_resident(a);
        write(&mut b, a, 99);
        // Conflict-fill the set until a is evicted (2 ways).
        b.ensure_resident(Address::new(0xC0));
        assert_eq!(b.traffic().eviction_writebacks, 0);
        b.ensure_resident(Address::new(0x140));
        assert_eq!(b.traffic().line_fills, 3);
        assert_eq!(b.traffic().eviction_writebacks, 1, "a was dirty and LRU");
        assert_eq!(b.memory().read_word(a), 99);
        assert_eq!(b.peek_word(a), 99, "peek falls through to memory");
    }

    #[test]
    fn peek_word_prefers_cache_content() {
        let mut b = backend();
        let a = Address::new(0x40);
        b.ensure_resident(a);
        write(&mut b, a, 7);
        assert_eq!(b.peek_word(a), 7);
        assert_eq!(b.memory().read_word(a), 0, "memory still stale");
    }

    #[test]
    fn reset_clears_values_and_tick() {
        let mut b = backend();
        b.obs_mut().tracer_mut().set_level(TraceLevel::Event);
        b.record_read(true);
        b.refresh_metrics();
        assert_eq!(b.tick(), 1);
        b.emit(Component::Cache, EventKind::LineFill, 0x40, 4);
        assert_eq!(b.obs().tracer().len(), 1);
        b.reset_stats();
        assert_eq!(b.obs().registry().counter_by_name("ctrl.reads"), Some(0));
        assert_eq!(b.tick(), 0);
        assert!(b.obs().tracer().is_empty());
        b.record_read(true);
        b.refresh_metrics(); // handle still valid after reset
        assert_eq!(b.obs().registry().counter_by_name("ctrl.reads"), Some(1));
    }

    #[test]
    fn off_level_suppresses_events_but_not_metrics() {
        let mut b = backend();
        b.obs_mut().tracer_mut().set_level(TraceLevel::Off);
        b.record_write(true, false);
        b.emit(Component::Wg, EventKind::GroupFlush, 3, 2);
        b.refresh_metrics();
        assert!(b.obs().tracer().is_empty());
        assert_eq!(b.obs().registry().counter_by_name("ctrl.writes"), Some(1));
    }

    #[test]
    fn access_cost_totals() {
        let c = AccessCost {
            row_reads: 2,
            row_writes: 1,
            buffer_hit: false,
        };
        assert_eq!(c.total(), 3);
        assert_eq!(AccessCost::default().total(), 0);
    }
}
