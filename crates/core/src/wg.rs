//! Write Grouping (WG) and Write Grouping + Read Bypassing (WG+RB).

use std::fmt;

use serde::{Deserialize, Serialize};

use cache8t_obs::{Component, EventKind, HistogramId};
use cache8t_sim::{Address, CacheGeometry, ReplacementKind};
use cache8t_trace::DecodedOp;

use crate::controller::{AccessCost, AccessResponse, CacheBackend, Controller};
use crate::obs::StackObs;

/// Configuration of the grouping controller.
///
/// The defaults are the paper's WG (§4.1): one Set-Buffer, silent-write
/// detection on, no read bypassing. [`WgRbController`] enables
/// `read_bypass` (§4.2); the remaining knobs exist for the ablation studies
/// in `cache8t-bench` (`ext_ablations`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WgOptions {
    /// Serve reads that hit the Tag-Buffer from the Set-Buffer (WG+RB).
    pub read_bypass: bool,
    /// Detect silent writes and suppress clean write-backs via the Dirty
    /// bit.
    pub silent_detection: bool,
    /// Number of Set-Buffers (the paper uses 1; more is an extension).
    pub buffer_depth: usize,
}

impl WgOptions {
    /// The paper's WG configuration.
    pub const fn wg() -> Self {
        WgOptions {
            read_bypass: false,
            silent_detection: true,
            buffer_depth: 1,
        }
    }

    /// The paper's WG+RB configuration.
    pub const fn wg_rb() -> Self {
        WgOptions {
            read_bypass: true,
            silent_detection: true,
            buffer_depth: 1,
        }
    }
}

impl Default for WgOptions {
    /// Same as [`WgOptions::wg`].
    fn default() -> Self {
        WgOptions::wg()
    }
}

/// A deliberately broken behaviour for conformance-harness self-tests.
///
/// The differential harness (`cache8t-conform`) must demonstrate that it
/// *catches* equivalence bugs, not just that the healthy controllers
/// agree — so the controller can be armed with one of these faults and
/// replayed until the harness flags the divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WgFault {
    /// Never set the Dirty bit on a grouped write: a dirty group is then
    /// mistaken for a silent one and its write-back is elided, dropping
    /// the written data (the exact failure mode §4.1's Dirty bit
    /// exists to prevent).
    SkipDirtyBit,
}

/// Borrowed read-only view of one resident Set-Buffer and its Tag-Buffer
/// entry, for external invariant checking (see `cache8t-conform`).
///
/// Views borrow the controller directly, so draining them every replay
/// step (as the conformance harness does) copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct WgBufferView<'a> {
    buf: &'a SetBuffer,
    block_words: usize,
}

impl<'a> WgBufferView<'a> {
    /// The buffered set's index.
    #[inline]
    pub fn set_index(&self) -> u64 {
        self.buf.set_index
    }

    /// Number of ways in the buffered set.
    #[inline]
    pub fn ways(&self) -> usize {
        self.buf.tags.len()
    }

    /// Per-way tags (`None` for ways invalid at fill time).
    #[inline]
    pub fn tags(&self) -> &'a [Option<u64>] {
        &self.buf.tags
    }

    /// Block data of `way` as currently buffered.
    #[inline]
    pub fn way_data(&self, way: usize) -> &'a [u64] {
        &self.buf.data[way * self.block_words..(way + 1) * self.block_words]
    }

    /// Whether `way` was modified through the buffer since its fill.
    #[inline]
    pub fn is_modified(&self, way: usize) -> bool {
        self.buf.modified[way]
    }

    /// The paper's Dirty bit.
    #[inline]
    pub fn dirty(&self) -> bool {
        self.buf.dirty
    }

    /// Writes absorbed since the last synchronization.
    #[inline]
    pub fn writes_since_sync(&self) -> u64 {
        self.buf.writes_since_sync
    }
}

/// One buffered cache set: the Set-Buffer contents plus the Tag-Buffer
/// entry describing them (paper Figure 6).
#[derive(Debug, Clone)]
struct SetBuffer {
    /// The buffered set's index (the "Set" field of the Tag-Buffer).
    set_index: u64,
    /// Per-way tags (`None` for ways that were invalid at fill time).
    tags: Vec<Option<u64>>,
    /// All ways' block data in one flat arena (`way * block_words + word`),
    /// updated in place by grouped writes.
    data: Vec<u64>,
    /// Per-way dirty state of the underlying cache line at fill time.
    line_dirty: Vec<bool>,
    /// Per-way "modified through the buffer" flags (set by non-silent
    /// grouped writes; folded into the line dirty bits at write-back).
    modified: Vec<bool>,
    /// The paper's single Dirty bit: the buffer diverges from the array.
    dirty: bool,
    /// Writes absorbed since the last synchronization (used to count
    /// write-backs elided by the Dirty bit).
    writes_since_sync: u64,
    /// Request tick at which this buffer was filled (for the
    /// `wg.buffer_residency` histogram).
    filled_at_tick: u64,
}

/// Handles of the grouping histograms. The `wg.*` counters (closed
/// groups, write-backs, premature write-backs, silent suppressions,
/// buffer fills, grouped writes, bypassed reads) are derived from the
/// traffic ledger.
#[derive(Debug, Clone, Copy)]
struct WgMetrics {
    /// `wg.group_len` — writes per closed group.
    group_len: HistogramId,
    /// `wg.buffer_residency` — request ticks a buffer stayed resident.
    buffer_residency: HistogramId,
}

impl WgMetrics {
    fn register(obs: &mut StackObs) -> Self {
        for name in [
            "wg.groups",
            "wg.writebacks",
            "wg.premature_writebacks",
            "wg.silent_suppressed",
            "wg.buffer_fills",
            "wg.grouped_writes",
            "wg.bypassed_reads",
        ] {
            obs.mirror(name);
        }
        let r = obs.registry_mut();
        WgMetrics {
            group_len: r.histogram("wg.group_len"),
            buffer_residency: r.histogram("wg.buffer_residency"),
        }
    }
}

/// **Write Grouping** — the paper's §4.1 technique, generalized by
/// [`WgOptions`].
///
/// A Set-Buffer between the column multiplexers and the write drivers holds
/// the most recently *written* cache set; the cache controller keeps the
/// set's index and all block tags in a Tag-Buffer. Writes that hit the
/// Tag-Buffer update the Set-Buffer without touching the SRAM array — the
/// whole group is deposited with a single row write when the buffer is
/// evicted (a write to a different set) or synchronized early (a read that
/// needs buffered data). A Dirty bit, cleared when every absorbed write was
/// silent, suppresses write-backs that would deposit unchanged data.
///
/// Functional behaviour (hits, misses, replacement, read values) is
/// identical to [`RmwController`](crate::RmwController); only the array
/// traffic differs. The equivalence tests in this crate enforce that.
///
/// See the [crate docs](crate) for an example.
pub struct WgController {
    backend: CacheBackend,
    options: WgOptions,
    metrics: WgMetrics,
    /// Buffered sets, most recently used first. Length ≤ buffer_depth.
    buffers: Vec<SetBuffer>,
    /// Retired Set-Buffers kept for reuse: refilling one recycles its
    /// allocations, so the steady-state fill/evict cycle allocates nothing.
    free: Vec<SetBuffer>,
    /// Armed self-test fault, if any (see [`WgFault`]).
    fault: Option<WgFault>,
}

/// **Write Grouping + Read Bypassing** — the paper's §4.2 technique.
///
/// Identical to [`WgController`] except that reads hitting the Tag-Buffer
/// are served directly from the Set-Buffer through an extra output
/// multiplexer (paper Figure 7): no premature write-back, no array read,
/// and the read port stays free.
///
/// # Example
///
/// ```
/// use cache8t_core::{Controller, WgRbController};
/// use cache8t_sim::{Address, CacheGeometry, ReplacementKind};
/// use cache8t_trace::MemOp;
///
/// let mut c = WgRbController::new(CacheGeometry::paper_baseline(), ReplacementKind::Lru);
/// let a = Address::new(0x2000);
/// c.access(&MemOp::write(a, 7));          // fills the Set-Buffer (1 read)
/// let r = c.access(&MemOp::read(a));      // bypassed: served from the buffer
/// assert_eq!(r.value, 7);
/// assert!(r.cost.buffer_hit);
/// assert_eq!(c.traffic().bypassed_reads, 1);
/// ```
pub struct WgRbController {
    inner: WgController,
}

impl WgController {
    /// Creates a WG controller with the paper's default options.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        WgController::with_options(geometry, replacement, WgOptions::wg())
    }

    /// Creates a grouping controller with explicit options.
    ///
    /// # Panics
    ///
    /// Panics if `options.buffer_depth == 0`.
    pub fn with_options(
        geometry: CacheGeometry,
        replacement: ReplacementKind,
        options: WgOptions,
    ) -> Self {
        WgController::from_backend(CacheBackend::new(geometry, replacement), options)
    }

    /// Creates a grouping controller over an existing backend (e.g. one
    /// built with [`CacheBackend::with_l2`]).
    ///
    /// # Panics
    ///
    /// Panics if `options.buffer_depth == 0`.
    pub fn from_backend(mut backend: CacheBackend, options: WgOptions) -> Self {
        assert!(
            options.buffer_depth >= 1,
            "at least one Set-Buffer is required"
        );
        let metrics = WgMetrics::register(backend.obs_mut());
        WgController {
            backend,
            options,
            metrics,
            buffers: Vec::with_capacity(options.buffer_depth),
            free: Vec::with_capacity(options.buffer_depth),
            fault: None,
        }
    }

    /// The active options.
    pub fn options(&self) -> WgOptions {
        self.options
    }

    /// Arms a deliberate equivalence bug for conformance-harness
    /// self-tests. Never use outside tests: the controller stops being
    /// functionally transparent.
    #[doc(hidden)]
    pub fn inject_fault(&mut self, fault: Option<WgFault>) {
        self.fault = fault;
    }

    /// Borrowed views of the resident Set-Buffers (MRU first) for
    /// external invariant checking. Nothing is cloned.
    pub fn buffer_views(&self) -> impl Iterator<Item = WgBufferView<'_>> {
        let block_words = self.geometry().block_words();
        self.buffers
            .iter()
            .map(move |buf| WgBufferView { buf, block_words })
    }

    fn geometry(&self) -> CacheGeometry {
        self.backend.cache().geometry()
    }

    fn buffer_pos_for_set(&self, set_index: u64) -> Option<usize> {
        self.buffers.iter().position(|b| b.set_index == set_index)
    }

    /// Tag-Buffer lookup: buffered set with a matching valid tag.
    fn tag_hit(&self, addr: Address) -> Option<(usize, usize)> {
        let g = self.geometry();
        self.tag_hit_parts(g.set_index_of(addr), g.tag_of(addr))
    }

    /// [`tag_hit`](Self::tag_hit) with the address decomposition already
    /// done (per-op path decodes inline; batched path reads the columns).
    ///
    /// The way scan is branchless in the style of
    /// [`kernels::find_way`](cache8t_sim::kernels::find_way): every way
    /// is compared with no early exit and the hit bitmask resolved with
    /// one `trailing_zeros`. Valid tags are unique within a set, so
    /// first-match semantics are preserved. This probe runs on *every*
    /// request, hit or miss.
    #[inline]
    fn tag_hit_parts(&self, set: u64, tag: u64) -> Option<(usize, usize)> {
        let pos = self.buffer_pos_for_set(set)?;
        let tags = &self.buffers[pos].tags;
        if tags.len() > 64 {
            let way = tags.iter().position(|t| *t == Some(tag))?;
            return Some((pos, way));
        }
        let mut hits = 0u64;
        for (way, t) in tags.iter().enumerate() {
            hits |= u64::from(*t == Some(tag)) << way;
        }
        if hits == 0 {
            None
        } else {
            Some((pos, hits.trailing_zeros() as usize))
        }
    }

    /// Writes the buffer back to the array if its Dirty bit is set.
    /// Returns `true` if a row write was performed.
    fn sync_buffer(&mut self, pos: usize, premature: bool) -> bool {
        let buf = &mut self.buffers[pos];
        let performed = buf.dirty;
        let set_index = buf.set_index;
        let group_len = buf.writes_since_sync;
        let m = self.metrics;
        if buf.dirty {
            // The buffer mirrors one whole SRAM row, and the row's ways
            // are contiguous in the cache's word arena — so the deposit
            // is a single set-wide branchless compare + copy instead of
            // a compare/copy per way. Ways that were invalid at fill
            // time still hold their snapshot (fills into a buffered set
            // drop the buffer first), so including them cannot move
            // stored data.
            self.backend
                .cache_mut()
                .replace_set_words(buf.set_index, &buf.data);
            for way in 0..buf.tags.len() {
                if buf.tags[way].is_none() {
                    continue;
                }
                let line_dirty = buf.line_dirty[way] || buf.modified[way];
                self.backend
                    .cache_mut()
                    .set_line_dirty(buf.set_index, way, line_dirty);
                buf.line_dirty[way] = line_dirty;
                buf.modified[way] = false;
            }
            buf.dirty = false;
            let traffic = self.backend.traffic_mut();
            traffic.writebacks += 1;
            traffic.premature_writebacks += u64::from(premature);
            // A dirty deposit always closes a write group.
            self.backend.obs_mut().observe(m.group_len, group_len);
            self.backend
                .emit(Component::Wg, EventKind::GroupFlush, set_index, group_len);
        } else if group_len > 0 {
            // The Dirty bit is clear although writes were absorbed: the
            // whole group was silent and the write-back is elided.
            self.backend.traffic_mut().silent_writebacks_elided += 1;
            self.backend.obs_mut().observe(m.group_len, group_len);
            self.backend
                .emit(Component::Wg, EventKind::SilentElide, set_index, group_len);
        }
        self.buffers[pos].writes_since_sync = 0;
        performed
    }

    /// Synchronizes and discards the buffer at `pos`. Returns `true` if a
    /// row write was performed.
    fn evict_buffer(&mut self, pos: usize) -> bool {
        let wrote = self.sync_buffer(pos, false);
        let buf = self.buffers.remove(pos);
        let residency = self.backend.tick().saturating_sub(buf.filled_at_tick);
        self.free.push(buf);
        let m = self.metrics;
        self.backend
            .obs_mut()
            .observe(m.buffer_residency, residency);
        wrote
    }

    /// Snapshots `set_index` from the cache into an MRU Set-Buffer (the
    /// "fill the Set-Buffer by read row" step of Algorithm 1), recycling a
    /// retired buffer's allocations when one is available.
    fn fill_buffer(&mut self, set_index: u64) {
        let g = self.geometry();
        let ways = g.ways() as usize;
        let block_words = g.block_words();
        let mut buf = self.free.pop().unwrap_or_else(|| SetBuffer {
            set_index: 0,
            tags: Vec::with_capacity(ways),
            data: vec![0; ways * block_words],
            line_dirty: Vec::with_capacity(ways),
            modified: Vec::with_capacity(ways),
            dirty: false,
            writes_since_sync: 0,
            filled_at_tick: 0,
        });
        buf.set_index = set_index;
        buf.tags.clear();
        buf.line_dirty.clear();
        buf.modified.clear();
        buf.dirty = false;
        buf.writes_since_sync = 0;
        buf.filled_at_tick = self.backend.tick();
        // Snapshot the whole row's words in one copy — the set's ways
        // are contiguous in the cache's word arena — and walk only the
        // per-way metadata.
        buf.data
            .copy_from_slice(self.backend.cache().set_words(set_index));
        let mut valid_ways = 0u64;
        for way in 0..ways {
            let (tag, valid, dirty) = self.backend.cache().line_meta(set_index, way);
            valid_ways += u64::from(valid);
            buf.tags.push(valid.then_some(tag));
            buf.line_dirty.push(valid && dirty);
            buf.modified.push(false);
        }
        self.backend.traffic_mut().buffer_fills += 1;
        self.backend
            .emit(Component::Wg, EventKind::BufferFill, set_index, valid_ways);
        self.buffers.insert(0, buf);
    }

    fn promote_buffer(&mut self, pos: usize) {
        if pos > 0 {
            let buf = self.buffers.remove(pos);
            self.buffers.insert(0, buf);
        }
    }

    fn serve_read(&mut self, d: DecodedOp) -> AccessResponse {
        let DecodedOp { set, tag, word, .. } = d;
        let g = self.geometry();
        if let Some((pos, way)) = self.tag_hit_parts(set, tag) {
            // A Set-Buffer mirrors its cache set in way order and fills
            // into a buffered set always drop the buffer first, so the
            // buffer way *is* the cache way — the line can be addressed
            // directly with no second tag search.
            debug_assert_eq!(self.backend.cache().find_in_set(set, tag), Some(way));
            if self.options.read_bypass {
                // WG+RB: route the Set-Buffer to the output (Figure 7).
                let value = self.buffers[pos].data[way * g.block_words() + word];
                self.backend.cache_mut().touch_at(set, way);
                self.backend.record_read(true);
                self.promote_buffer(pos);
                self.backend.traffic_mut().bypassed_reads += 1;
                self.backend
                    .emit_verbose(Component::Wg, EventKind::Bypass, d.addr.raw(), value);
                return AccessResponse {
                    value,
                    hit: true,
                    cost: AccessCost {
                        row_reads: 0,
                        row_writes: 0,
                        buffer_hit: true,
                    },
                };
            }
            // Plain WG: the array must be current before reading it, so a
            // premature write-back is forced when the buffer is dirty.
            let wrote = self.sync_buffer(pos, true);
            self.promote_buffer(pos);
            let value = self.backend.cache_mut().read_word_at(set, way, word);
            self.backend.record_read(true);
            self.backend.traffic_mut().demand_reads += 1;
            return AccessResponse {
                value,
                hit: true,
                cost: AccessCost {
                    row_reads: 1,
                    row_writes: u32::from(wrote),
                    buffer_hit: false,
                },
            };
        }

        // Tag-Buffer miss: a normal array read. If the read misses in the
        // cache and its fill lands in a buffered set, the set's composition
        // changes — synchronize and drop that buffer first.
        let mut cost = AccessCost::default();
        let probed = self.backend.cache().find_in_set(set, tag);
        if probed.is_none() {
            if let Some(pos) = self.buffer_pos_for_set(set) {
                cost.row_writes += u32::from(self.evict_buffer(pos));
            }
        }
        let residency = self.backend.ensure_resident_probed(d.addr, probed);
        let value = self
            .backend
            .cache_mut()
            .read_word_at(set, residency.way, word);
        self.backend.record_read(residency.hit);
        self.backend.traffic_mut().demand_reads += 1;
        cost.row_reads += 1;
        AccessResponse {
            value,
            hit: residency.hit,
            cost,
        }
    }

    /// Applies a write to the buffer at `pos` (the "Update the Set-Buffer,
    /// set the Dirty bit if it is non-silent" step). Returns `true` if the
    /// write was silent.
    fn write_into_buffer(&mut self, pos: usize, way: usize, word: usize, value: u64) -> bool {
        let idx = way * self.geometry().block_words() + word;
        let buf = &mut self.buffers[pos];
        let old = buf.data[idx];
        buf.data[idx] = value;
        let silent = old == value;
        if !silent {
            buf.modified[way] = true;
        }
        let skip_dirty = self.fault == Some(WgFault::SkipDirtyBit);
        if (!silent || !self.options.silent_detection) && !skip_dirty {
            buf.dirty = true;
        }
        buf.writes_since_sync += 1;
        silent
    }

    fn serve_write(&mut self, d: DecodedOp) -> AccessResponse {
        let DecodedOp { set, tag, word, .. } = d;
        if let Some((pos, way)) = self.tag_hit_parts(set, tag) {
            // Grouped: the Set-Buffer absorbs the write; no array access.
            // The buffer way is the cache way (see `serve_read`), so the
            // replacement touch needs no tag search either.
            debug_assert_eq!(self.backend.cache().find_in_set(set, tag), Some(way));
            let silent = self.write_into_buffer(pos, way, word, d.value);
            self.backend.record_write(true, silent);
            self.promote_buffer(pos);
            self.backend.cache_mut().touch_at(set, way);
            self.backend.traffic_mut().grouped_writes += 1;
            return AccessResponse {
                value: d.value,
                hit: true,
                cost: AccessCost {
                    row_reads: 0,
                    row_writes: 0,
                    buffer_hit: true,
                },
            };
        }

        let mut cost = AccessCost::default();

        // A cache miss whose fill lands in a buffered set invalidates that
        // buffer's snapshot — synchronize and drop it before allocating.
        let probed = self.backend.cache().find_in_set(set, tag);
        if probed.is_none() {
            if let Some(pos) = self.buffer_pos_for_set(set) {
                cost.row_writes += u32::from(self.evict_buffer(pos));
            }
        }
        let residency = self.backend.ensure_resident_probed(d.addr, probed);

        // Evict the least recently used buffer if all Set-Buffers are
        // occupied (with depth 1 this is Algorithm 1's "write-back the
        // Set-Buffer if the Dirty bit is set").
        while self.buffers.len() >= self.options.buffer_depth {
            let last = self.buffers.len() - 1;
            cost.row_writes += u32::from(self.evict_buffer(last));
        }

        // Fill the Set-Buffer by reading the row, then merge the write.
        // The fresh buffer snapshots the set in way order, so the block's
        // buffer way is the way `ensure_resident` just reported.
        self.fill_buffer(set);
        cost.row_reads += 1;
        let way = residency.way;
        debug_assert_eq!(self.buffers[0].tags[way], Some(tag));
        let silent = self.write_into_buffer(0, way, word, d.value);
        self.backend.record_write(residency.hit, silent);
        self.backend.cache_mut().touch_at(set, way);

        AccessResponse {
            value: d.value,
            hit: residency.hit,
            cost,
        }
    }
}

impl Controller for WgController {
    fn backend(&self) -> &CacheBackend {
        &self.backend
    }

    fn backend_mut(&mut self) -> &mut CacheBackend {
        &mut self.backend
    }

    fn name(&self) -> &'static str {
        if self.options.read_bypass {
            "WG+RB"
        } else {
            "WG"
        }
    }

    #[inline]
    fn serve(&mut self, d: DecodedOp) -> AccessResponse {
        if d.is_read() {
            self.serve_read(d)
        } else {
            self.serve_write(d)
        }
    }

    fn drain(&mut self) {
        for pos in 0..self.buffers.len() {
            self.sync_buffer(pos, false);
        }
    }

    /// The tick restarts at zero: re-stamp surviving buffers so
    /// residency observations stay non-negative.
    fn reset_scheme_counters(&mut self) {
        for buf in &mut self.buffers {
            buf.filled_at_tick = 0;
        }
    }

    fn peek_word(&self, addr: Address) -> u64 {
        if let Some((pos, way)) = self.tag_hit(addr) {
            let g = self.geometry();
            return self.buffers[pos].data[way * g.block_words() + g.word_offset_of(addr)];
        }
        self.backend.peek_word(addr)
    }

    fn occupancy(&self) -> Option<Vec<u64>> {
        let ways = self.geometry().ways() as usize;
        let mut histogram = vec![0u64; ways + 1];
        for buf in &self.buffers {
            let modified = buf.modified.iter().filter(|&&m| m).count();
            histogram[modified] += 1;
        }
        Some(histogram)
    }
}

impl fmt::Debug for WgController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WgController")
            .field("options", &self.options)
            .field("buffered_sets", &self.buffers.len())
            .field("traffic", self.backend.traffic())
            .finish_non_exhaustive()
    }
}

impl WgRbController {
    /// Creates a WG+RB controller with the paper's default options.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        WgRbController {
            inner: WgController::with_options(geometry, replacement, WgOptions::wg_rb()),
        }
    }

    /// Creates a WG+RB controller over an existing backend (e.g. one built
    /// with [`CacheBackend::with_l2`]).
    pub fn from_backend(backend: CacheBackend) -> Self {
        WgRbController {
            inner: WgController::from_backend(backend, WgOptions::wg_rb()),
        }
    }

    /// The wrapped grouping controller.
    pub fn as_wg(&self) -> &WgController {
        &self.inner
    }

    /// Arms a deliberate equivalence bug (see
    /// [`WgController::inject_fault`]).
    #[doc(hidden)]
    pub fn inject_fault(&mut self, fault: Option<WgFault>) {
        self.inner.inject_fault(fault);
    }

    /// Borrowed views of the resident Set-Buffers (see
    /// [`WgController::buffer_views`]).
    pub fn buffer_views(&self) -> impl Iterator<Item = WgBufferView<'_>> {
        self.inner.buffer_views()
    }
}

impl Controller for WgRbController {
    fn backend(&self) -> &CacheBackend {
        self.inner.backend()
    }

    fn backend_mut(&mut self) -> &mut CacheBackend {
        self.inner.backend_mut()
    }

    fn name(&self) -> &'static str {
        "WG+RB"
    }

    #[inline]
    fn serve(&mut self, d: DecodedOp) -> AccessResponse {
        self.inner.serve(d)
    }

    fn drain(&mut self) {
        self.inner.drain();
    }

    fn reset_scheme_counters(&mut self) {
        self.inner.reset_scheme_counters();
    }

    fn peek_word(&self, addr: Address) -> u64 {
        self.inner.peek_word(addr)
    }

    fn occupancy(&self) -> Option<Vec<u64>> {
        self.inner.occupancy()
    }
}

impl fmt::Debug for WgRbController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WgRbController")
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_trace::MemOp;

    fn geometry() -> CacheGeometry {
        // 4 sets, 2 ways, 32 B blocks.
        CacheGeometry::new(256, 2, 32).unwrap()
    }

    fn wg() -> WgController {
        WgController::new(geometry(), ReplacementKind::Lru)
    }

    fn wgrb() -> WgRbController {
        WgRbController::new(geometry(), ReplacementKind::Lru)
    }

    /// Two addresses in different sets of the test geometry.
    fn set_a_addr() -> Address {
        Address::new(0x00)
    }

    fn set_b_addr() -> Address {
        Address::new(0x20)
    }

    #[test]
    fn consecutive_writes_to_same_set_are_grouped() {
        let mut c = wg();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 1)); // fill (1 read)
        c.access(&MemOp::write(b.offset(8), 2)); // grouped
        c.access(&MemOp::write(b, 3)); // grouped
        assert_eq!(c.traffic().buffer_fills, 1);
        assert_eq!(c.traffic().grouped_writes, 2);
        assert_eq!(c.array_accesses(), 1, "only the fill so far");
        c.flush();
        assert_eq!(c.traffic().writebacks, 1);
        assert_eq!(c.array_accesses(), 2);
    }

    #[test]
    fn write_to_other_set_evicts_buffer() {
        let mut c = wg();
        c.access(&MemOp::write(set_b_addr(), 1));
        c.access(&MemOp::write(set_a_addr(), 2));
        // Eviction wrote back set b, then filled set a.
        assert_eq!(c.traffic().writebacks, 1);
        assert_eq!(c.traffic().buffer_fills, 2);
    }

    #[test]
    fn silent_group_elides_the_writeback() {
        let mut c = wg();
        let b = set_b_addr();
        // Memory is zero-initialized, so writing 0 is silent.
        c.access(&MemOp::write(b, 0));
        c.access(&MemOp::write(b.offset(8), 0));
        c.access(&MemOp::write(set_a_addr(), 7)); // evicts the buffer
        assert_eq!(c.traffic().writebacks, 0, "silent group never written back");
        assert_eq!(c.traffic().silent_writebacks_elided, 1);
    }

    #[test]
    fn silent_detection_off_always_writes_back() {
        let mut c = WgController::with_options(
            geometry(),
            ReplacementKind::Lru,
            WgOptions {
                silent_detection: false,
                ..WgOptions::wg()
            },
        );
        let b = set_b_addr();
        c.access(&MemOp::write(b, 0)); // silent, but detection is off
        c.access(&MemOp::write(set_a_addr(), 7));
        assert_eq!(c.traffic().writebacks, 1);
        assert_eq!(c.traffic().silent_writebacks_elided, 0);
    }

    #[test]
    fn read_hitting_tag_buffer_forces_premature_writeback() {
        let mut c = wg();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 5));
        let r = c.access(&MemOp::read(b));
        assert_eq!(r.value, 5);
        assert_eq!(c.traffic().premature_writebacks, 1);
        assert_eq!(c.traffic().demand_reads, 1);
        // The buffer survives the premature write-back: a further write to
        // set b still groups.
        c.access(&MemOp::write(b, 6));
        assert_eq!(c.traffic().grouped_writes, 1);
        assert_eq!(c.traffic().buffer_fills, 1, "no refill needed");
    }

    #[test]
    fn clean_buffer_read_needs_no_writeback() {
        let mut c = wg();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 0)); // silent -> dirty stays clear
        let r = c.access(&MemOp::read(b));
        assert_eq!(r.value, 0);
        assert_eq!(c.traffic().writebacks, 0);
        assert_eq!(c.traffic().premature_writebacks, 0);
    }

    #[test]
    fn read_bypass_serves_from_buffer() {
        let mut c = wgrb();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 5));
        let r = c.access(&MemOp::read(b));
        assert_eq!(r.value, 5);
        assert!(r.cost.buffer_hit);
        assert_eq!(r.cost.total(), 0);
        assert_eq!(c.traffic().bypassed_reads, 1);
        assert_eq!(c.traffic().premature_writebacks, 0);
        assert_eq!(c.traffic().demand_reads, 0);
    }

    #[test]
    fn bypassed_read_sees_unwritten_words_of_the_set() {
        // The Set-Buffer holds the whole set, so a bypassed read of a word
        // never written through the buffer must still be correct.
        let mut c = wgrb();
        let b = set_b_addr();
        // Put a value in the array first (via a different-set eviction).
        c.access(&MemOp::write(b.offset(16), 9));
        c.access(&MemOp::write(set_a_addr(), 1)); // evict set-b buffer
        c.access(&MemOp::write(b, 2)); // re-buffer set b
        let r = c.access(&MemOp::read(b.offset(16)));
        assert_eq!(r.value, 9);
        assert!(r.cost.buffer_hit);
    }

    #[test]
    fn paper_figure8_wg_walkthrough() {
        // Request stream (paper Figure 8, left-to-right in time):
        //   R_a, W_b, W_b, R_b, R_b, W_b, W_a(silent), R_a
        // Blocks are pre-warmed so no fills/evictions interfere; the
        // expected array-access counts follow §4.3's narrative.
        let a = set_a_addr();
        let b = set_b_addr();
        let mut c = wg();
        c.access(&MemOp::read(a));
        c.access(&MemOp::read(b));
        c.reset_counters();

        c.access(&MemOp::read(a)); // TB miss -> 1 array read
        c.access(&MemOp::write(b, 1)); // TB miss -> buffer fill (1 read)
        c.access(&MemOp::write(b.offset(8), 2)); // grouped, dirty set
        c.access(&MemOp::read(b)); // TB hit -> premature WB (1) + read (1)
        c.access(&MemOp::read(b)); // TB hit, clean -> read (1)
        c.access(&MemOp::write(b, 3)); // grouped, dirty set
        c.access(&MemOp::write(a, 0)); // TB miss -> WB b (1) + fill a (1); silent
        c.access(&MemOp::read(a)); // TB hit, clean -> read (1)

        let t = c.traffic();
        assert_eq!(t.demand_reads, 4);
        assert_eq!(t.buffer_fills, 2);
        assert_eq!(t.writebacks, 2);
        assert_eq!(t.premature_writebacks, 1);
        assert_eq!(t.grouped_writes, 2);
        assert_eq!(c.array_accesses(), 8);

        // RMW would have cost 4 reads + 4 writes x 2 = 12.
        // (checked in the cross-controller integration tests)
    }

    #[test]
    fn paper_figure8_wgrb_walkthrough() {
        let a = set_a_addr();
        let b = set_b_addr();
        let mut c = wgrb();
        c.access(&MemOp::read(a));
        c.access(&MemOp::read(b));
        c.inner.reset_counters();

        c.access(&MemOp::read(a)); // 1 read
        c.access(&MemOp::write(b, 1)); // fill (1 read)
        c.access(&MemOp::write(b.offset(8), 2)); // grouped
        c.access(&MemOp::read(b)); // bypassed
        c.access(&MemOp::read(b)); // bypassed
        c.access(&MemOp::write(b, 3)); // grouped
        c.access(&MemOp::write(a, 0)); // WB b (1) + fill a (1)
        c.access(&MemOp::read(a)); // bypassed (paper: "eliminated")

        let t = c.traffic();
        assert_eq!(t.bypassed_reads, 3);
        assert_eq!(t.demand_reads, 1);
        assert_eq!(c.array_accesses(), 4);
    }

    #[test]
    fn miss_fill_into_buffered_set_drops_the_buffer() {
        // 2-way sets: buffer set 0 via writes to two blocks, then miss a
        // third block of set 0 -> the fill evicts a way, so the buffer must
        // be synchronized and dropped first.
        let g = geometry();
        let mut c = wg();
        let blk0 = Address::new(0x000); // set 0
        let blk1 = Address::new(0x080); // set 0
        let blk2 = Address::new(0x100); // set 0
        assert_eq!(g.set_index_of(blk0), g.set_index_of(blk2));
        c.access(&MemOp::write(blk0, 1));
        c.access(&MemOp::write(blk1, 2));
        assert_eq!(
            c.traffic().buffer_fills,
            2,
            "blk1 missed -> set changed -> refill"
        );
        c.access(&MemOp::read(blk2)); // miss, evicts LRU way
                                      // blk0's value must have reached the cache before the eviction.
        assert_eq!(c.peek_word(blk0), 1);
        assert_eq!(c.peek_word(blk1), 2);
        assert_eq!(c.peek_word(blk2), 0);
    }

    #[test]
    fn deeper_buffers_group_across_two_sets() {
        let mut c = WgController::with_options(
            geometry(),
            ReplacementKind::Lru,
            WgOptions {
                buffer_depth: 2,
                ..WgOptions::wg()
            },
        );
        let a = set_a_addr();
        let b = set_b_addr();
        c.access(&MemOp::write(a, 1));
        c.access(&MemOp::write(b, 2));
        // With depth 2 the write to b did not evict a's buffer.
        assert_eq!(c.traffic().writebacks, 0);
        c.access(&MemOp::write(a, 3)); // still buffered -> grouped
        c.access(&MemOp::write(b, 4)); // still buffered -> grouped
        assert_eq!(c.traffic().grouped_writes, 2);
    }

    #[test]
    fn flush_is_idempotent_and_completes_state() {
        let mut c = wg();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 42));
        c.flush();
        let after_first = *c.traffic();
        c.flush();
        assert_eq!(*c.traffic(), after_first, "second flush is a no-op");
        assert_eq!(c.stats().write_misses, 1);
        assert_eq!(c.peek_word(b), 42);
    }

    #[test]
    fn wg_metrics_mirror_traffic_and_trace_groups() {
        use cache8t_obs::TraceLevel;
        let mut c = wg();
        c.obs_mut()
            .unwrap()
            .tracer_mut()
            .set_level(TraceLevel::Event);
        let a = set_a_addr();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 1)); // fill b
        c.access(&MemOp::write(b.offset(8), 2)); // grouped
        c.access(&MemOp::write(a, 0)); // evicts b: dirty group of 2; fills a
        c.access(&MemOp::write(b, 1)); // evicts a: silent group of 1; rewrite of 1 is silent
        c.flush(); // closes b's silent group of 1

        let reg = c.obs().unwrap().registry();
        assert_eq!(reg.counter_by_name("wg.buffer_fills"), Some(3));
        assert_eq!(reg.counter_by_name("wg.grouped_writes"), Some(1));
        assert_eq!(reg.counter_by_name("wg.writebacks"), Some(1));
        assert_eq!(reg.counter_by_name("wg.silent_suppressed"), Some(2));
        assert_eq!(reg.counter_by_name("wg.groups"), Some(3));
        let len = reg.histogram_by_name("wg.group_len").unwrap();
        assert_eq!(len.count(), 3);
        assert_eq!(len.sum(), 4);
        // Two buffer evictions -> two residency observations.
        let res = reg.histogram_by_name("wg.buffer_residency").unwrap();
        assert_eq!(res.count(), 2);

        let events: Vec<_> = c.obs().unwrap().tracer().events().collect();
        let flushes = events
            .iter()
            .filter(|e| e.kind == EventKind::GroupFlush)
            .count();
        let elides = events
            .iter()
            .filter(|e| e.kind == EventKind::SilentElide)
            .count();
        let fills = events
            .iter()
            .filter(|e| e.kind == EventKind::BufferFill)
            .count();
        assert_eq!((flushes, elides, fills), (1, 2, 3));
    }

    #[test]
    fn buffer_views_expose_resident_state() {
        let mut c = wg();
        let b = set_b_addr();
        c.access(&MemOp::write(b, 5));
        c.access(&MemOp::write(b.offset(8), 6));
        {
            let views: Vec<_> = c.buffer_views().collect();
            assert_eq!(views.len(), 1);
            let s = &views[0];
            assert_eq!(s.set_index(), geometry().set_index_of(b));
            assert_eq!(s.ways(), 2);
            assert!(s.dirty(), "non-silent writes set the Dirty bit");
            assert_eq!(s.writes_since_sync(), 2, "merge after fill + grouped write");
            let way = s
                .tags()
                .iter()
                .position(|t| *t == Some(geometry().tag_of(b)))
                .expect("written tag buffered");
            assert!(s.is_modified(way));
            assert_eq!(s.way_data(way)[0], 5);
            assert_eq!(s.way_data(way)[1], 6);
        }
        c.flush();
        let s = c.buffer_views().next().expect("buffer still resident");
        assert!(!s.dirty(), "flush cleans the buffer");
    }

    #[test]
    fn occupancy_histogram_tracks_modified_ways() {
        let mut c = wg();
        assert_eq!(
            c.occupancy(),
            Some(vec![0, 0, 0]),
            "2-way geometry: levels 0..=2, no buffer live yet"
        );
        let b = set_b_addr();
        c.access(&MemOp::write(b, 5)); // one modified way in the buffer
        assert_eq!(c.occupancy(), Some(vec![0, 1, 0]));
        c.access(&MemOp::write(b.offset(0x80), 6)); // fills set b's other way
        c.access(&MemOp::write(b, 7)); // grouped: modifies the first way too
        assert_eq!(c.occupancy(), Some(vec![0, 0, 1]), "both ways modified");
        c.flush(); // write-back folds modified into line dirty bits
        assert_eq!(c.occupancy(), Some(vec![1, 0, 0]));
        // WG+RB delegates to the inner controller.
        let mut rb = wgrb();
        rb.access(&MemOp::write(b, 5));
        assert_eq!(rb.occupancy(), Some(vec![0, 1, 0]));
    }

    #[test]
    fn evicted_buffers_are_recycled_without_reallocating() {
        let mut c = wg();
        c.access(&MemOp::write(set_b_addr(), 1));
        c.access(&MemOp::write(set_a_addr(), 2)); // evicts b's buffer
        let data_ptr = c.buffers[0].data.as_ptr();
        let cap = c.buffers[0].data.capacity();
        // Bounce between the two sets: each fill must reuse the retired
        // buffer's arena rather than allocating a fresh one.
        c.access(&MemOp::write(set_b_addr(), 3));
        c.access(&MemOp::write(set_a_addr(), 4));
        assert_eq!(c.buffers[0].data.capacity(), cap);
        assert!(
            std::ptr::eq(c.buffers[0].data.as_ptr(), data_ptr)
                || std::ptr::eq(c.free[0].data.as_ptr(), data_ptr),
            "the original arena is still in circulation"
        );
        assert_eq!(c.peek_word(set_b_addr()), 3);
        assert_eq!(c.peek_word(set_a_addr()), 4);
    }

    #[test]
    fn skip_dirty_fault_drops_written_data() {
        // The self-test fault must actually break transparency: a dirty
        // group is treated as silent, its write-back elided, and the
        // value lost when the buffer is evicted.
        let mut c = wg();
        c.inject_fault(Some(WgFault::SkipDirtyBit));
        let b = set_b_addr();
        c.access(&MemOp::write(b, 42));
        c.access(&MemOp::write(set_a_addr(), 7)); // evicts b's buffer
        assert_eq!(c.traffic().writebacks, 0, "write-back wrongly elided");
        assert_eq!(c.peek_word(b), 0, "the written value was dropped");
        // A healthy controller keeps it.
        let mut ok = wg();
        ok.access(&MemOp::write(b, 42));
        ok.access(&MemOp::write(set_a_addr(), 7));
        assert_eq!(ok.peek_word(b), 42);
    }

    #[test]
    fn names_reflect_options() {
        assert_eq!(wg().name(), "WG");
        assert_eq!(wgrb().name(), "WG+RB");
        let custom =
            WgController::with_options(geometry(), ReplacementKind::Lru, WgOptions::wg_rb());
        assert_eq!(custom.name(), "WG+RB");
    }

    #[test]
    #[should_panic(expected = "at least one Set-Buffer")]
    fn zero_depth_rejected() {
        let _ = WgController::with_options(
            geometry(),
            ReplacementKind::Lru,
            WgOptions {
                buffer_depth: 0,
                ..WgOptions::wg()
            },
        );
    }

    #[test]
    fn options_accessors() {
        assert!(WgOptions::wg_rb().read_bypass);
        assert!(!WgOptions::default().read_bypass);
        assert_eq!(wg().options(), WgOptions::wg());
        assert_eq!(wgrb().as_wg().options(), WgOptions::wg_rb());
    }
}
