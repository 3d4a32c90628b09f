//! The value-carrying set-associative data cache.
//!
//! Storage is structure-of-arrays: one contiguous word arena plus flat
//! tag/flag arrays, indexed by `set * ways + way`. See `DESIGN.md` for
//! why the per-line `Vec<u64>` layout this replaced was the hottest
//! cost in the workspace.

use std::fmt;

use crate::kernels;
use crate::replacement::{PolicyTable, ReplacementKind};
use crate::{Address, CacheGeometry};

/// Line-flag bit: the line holds a block.
const VALID: u8 = 1 << 0;
/// Line-flag bit: the block was modified since it was filled.
const DIRTY: u8 = 1 << 1;

/// A read-only view of one cache line: tag, state bits, and the stored
/// 64-bit words.
///
/// Carrying real data is what lets the workspace implement the paper's
/// silent-write detection (§4.1): the Set-Buffer compares the value being
/// written against the value already present. The view borrows straight
/// from the cache's word arena and flag arrays; nothing is copied.
#[derive(Debug, Clone, Copy)]
pub struct LineView<'a> {
    tag: u64,
    flags: u8,
    data: &'a [u64],
}

impl<'a> LineView<'a> {
    /// The block's tag (meaningless unless [`is_valid`](Self::is_valid)).
    #[inline]
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// `true` if the line holds a block.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.flags & VALID != 0
    }

    /// `true` if the block has been modified since it was filled.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        self.flags & DIRTY != 0
    }

    /// The stored words.
    #[inline]
    pub fn data(&self) -> &'a [u64] {
        self.data
    }
}

/// A read-only view of one set: `ways` lines in way order.
#[derive(Debug, Clone, Copy)]
pub struct SetView<'a> {
    cache: &'a DataCache,
    set: usize,
}

impl<'a> SetView<'a> {
    /// Number of ways in the set.
    #[inline]
    pub fn ways(&self) -> usize {
        self.cache.ways
    }

    /// The line in `way`.
    ///
    /// # Panics
    ///
    /// Panics if `way >= ways`.
    #[inline]
    pub fn line(&self, way: usize) -> LineView<'a> {
        assert!(way < self.cache.ways, "way {way} out of range");
        self.cache.line_view(self.set * self.cache.ways + way)
    }

    /// Iterates the lines in way order.
    pub fn iter(&self) -> impl Iterator<Item = LineView<'a>> + '_ {
        let base = self.set * self.cache.ways;
        (0..self.cache.ways).map(move |way| self.cache.line_view(base + way))
    }

    /// Returns the way holding `tag`, if any.
    #[inline]
    pub fn find(&self, tag: u64) -> Option<usize> {
        self.cache.find(self.set, tag)
    }
}

/// Metadata of a block displaced by [`DataCache::fill_into`]; the words
/// themselves land in the caller-provided buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedMeta {
    /// Base address of the evicted block.
    pub base: Address,
    /// `true` if the block was dirty and must be written back to memory.
    pub dirty: bool,
}

/// Result of installing a block with [`DataCache::fill_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillSlot {
    /// The way the block was installed into.
    pub way: usize,
    /// The displaced block's metadata, if the set was full; its words
    /// are in the buffer the caller passed.
    pub evicted: Option<EvictedMeta>,
}

/// A set-associative, write-back, value-carrying data cache.
///
/// `DataCache` is purely *functional*: it answers hit/miss, stores data, and
/// applies a replacement policy. It deliberately does **not** model SRAM
/// array traffic — that is the job of the controllers in `cache8t-core`,
/// because the same functional access costs different numbers of array
/// operations under RMW, WG, and WG+RB. Nor does it count hits and
/// misses: the controllers record every request in their own ledger.
/// It counts only the evictions its fills cause.
///
/// All block words live in one contiguous arena (`set * ways + way`
/// blocks of `block_words` words each) with packed per-line tag and
/// valid/dirty metadata alongside; replacement state is flat per-policy
/// arrays dispatched by a monomorphized enum. A lookup
/// ([`probe`](Self::probe) or [`find_in_set`](Self::find_in_set)) finds
/// the way once; the data accesses and the replacement touch then take
/// that way instead of searching the tags again. The data path is
/// allocation-free: [`fill_into`](Self::fill_into) borrows the incoming
/// block and deposits any victim in a caller-owned buffer.
///
/// # Example
///
/// ```
/// use cache8t_sim::{Address, CacheGeometry, DataCache, MainMemory, ReplacementKind};
///
/// # fn main() -> Result<(), cache8t_sim::GeometryError> {
/// let g = CacheGeometry::new(1024, 2, 32)?;
/// let mut cache = DataCache::new(g, ReplacementKind::Lru);
/// let mem = MainMemory::new(g.block_bytes());
///
/// let a = Address::new(0x200);
/// let (set, word) = (g.set_index_of(a), g.word_offset_of(a));
/// assert_eq!(cache.probe(a), None); // miss
/// let mut victim = Vec::new();
/// let way = cache.fill_into(a, mem.read_block_ref(a), &mut victim).way;
/// assert_eq!(cache.read_word_at(set, way, word), 0);
/// let silent = cache.write_word_at(set, way, word, 42);
/// assert!(!silent);
/// assert_eq!(cache.read_word_at(set, way, word), 42);
/// # Ok(())
/// # }
/// ```
pub struct DataCache {
    geometry: CacheGeometry,
    /// Valid blocks evicted to make room for a fill.
    evictions: u64,
    /// The dirty share of `evictions`.
    dirty_evictions: u64,
    ways: usize,
    block_words: usize,
    /// All block words: line `set * ways + way` occupies
    /// `[line * block_words, (line + 1) * block_words)`.
    data: Box<[u64]>,
    /// Per-line tags, `set * ways + way`.
    tags: Box<[u64]>,
    /// Per-line [`VALID`]/[`DIRTY`] bits, `set * ways + way`.
    flags: Box<[u8]>,
    /// Flat replacement state for every set.
    replacement: PolicyTable,
}

impl DataCache {
    /// Creates an empty cache with the given geometry and replacement
    /// policy.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        let ways = geometry.ways() as usize;
        let block_words = geometry.block_words();
        let lines = geometry.num_sets() as usize * ways;
        DataCache {
            geometry,
            evictions: 0,
            dirty_evictions: 0,
            ways,
            block_words,
            data: vec![0; lines * block_words].into_boxed_slice(),
            tags: vec![0; lines].into_boxed_slice(),
            flags: vec![0; lines].into_boxed_slice(),
            replacement: PolicyTable::new(replacement, geometry.num_sets(), ways),
        }
    }

    /// The cache's geometry.
    #[inline]
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Valid blocks evicted to make room for a fill.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evictions of dirty blocks (data handed to the caller for
    /// write-back).
    #[inline]
    pub fn dirty_evictions(&self) -> u64 {
        self.dirty_evictions
    }

    /// Resets both eviction counts to zero (used after warm-up,
    /// mirroring the paper's 1 B-instruction cache warm-up).
    pub fn reset_evictions(&mut self) {
        self.evictions = 0;
        self.dirty_evictions = 0;
    }

    /// The words of line `line_index = set * ways + way`.
    #[inline]
    fn block(&self, line_index: usize) -> &[u64] {
        &self.data[line_index * self.block_words..(line_index + 1) * self.block_words]
    }

    /// Mutable words of line `line_index`.
    #[inline]
    fn block_mut(&mut self, line_index: usize) -> &mut [u64] {
        &mut self.data[line_index * self.block_words..(line_index + 1) * self.block_words]
    }

    #[inline]
    fn line_view(&self, line_index: usize) -> LineView<'_> {
        LineView {
            tag: self.tags[line_index],
            flags: self.flags[line_index],
            data: self.block(line_index),
        }
    }

    /// Returns the way of `set` holding `tag`, if any.
    ///
    /// Branchless multi-way probe: all ways are compared against the
    /// SoA tag/flag arrays in one pass with no early exit
    /// ([`kernels::find_way`]).
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        kernels::find_way(
            &self.tags[base..base + self.ways],
            &self.flags[base..base + self.ways],
            VALID,
            tag,
        )
    }

    /// First invalid way of `set`, if any.
    #[inline]
    fn first_invalid(&self, set: usize) -> Option<usize> {
        let base = set * self.ways;
        kernels::first_clear(&self.flags[base..base + self.ways], VALID)
    }

    /// The set at `set_index`.
    ///
    /// # Panics
    ///
    /// Panics if `set_index >= num_sets`.
    pub fn set(&self, set_index: u64) -> SetView<'_> {
        assert!(
            set_index < self.geometry.num_sets(),
            "set {set_index} out of range"
        );
        SetView {
            cache: self,
            set: set_index as usize,
        }
    }

    /// Looks up `addr` without any side effects (no replacement update).
    /// Returns the hit way.
    pub fn probe(&self, addr: Address) -> Option<usize> {
        let set = self.geometry.set_index_of(addr) as usize;
        let tag = self.geometry.tag_of(addr);
        self.find(set, tag)
    }

    /// Looks up a pre-decoded `(set, tag)` pair without side effects.
    ///
    /// This is [`probe`](Self::probe) for callers that already decomposed
    /// the address (batched replay decodes every op once per chunk); the
    /// probe itself is the branchless multi-way compare.
    #[inline]
    pub fn find_in_set(&self, set_index: u64, tag: u64) -> Option<usize> {
        self.find(set_index as usize, tag)
    }

    /// Touches the replacement state of a known-resident line, without
    /// reading data. The way comes from the lookup or fill that
    /// established residency, so no tag search happens here.
    ///
    /// The WG/WG+RB controllers call this when a request is served from
    /// the Set-Buffer: the block logically *was* accessed, so replacement
    /// recency must advance exactly as it would in the baseline cache —
    /// otherwise the techniques would change miss rates, which the
    /// paper's techniques do not. An L2 hit touches its line the same way.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the line is valid.
    #[inline]
    pub fn touch_at(&mut self, set_index: u64, way: usize) {
        let set = set_index as usize;
        debug_assert!(
            self.flags[set * self.ways + way] & VALID != 0,
            "touch_at on an invalid line"
        );
        self.replacement.touch(set, way, self.ways);
    }

    /// Reads word `word` of a known-resident line and touches its
    /// replacement state.
    ///
    /// The caller vouches that `(set_index, way)` is the line the
    /// address maps to (typically the way returned by the probe or fill
    /// that established residency), so no tag search happens here.
    #[inline]
    pub fn read_word_at(&mut self, set_index: u64, way: usize, word: usize) -> u64 {
        let set = set_index as usize;
        debug_assert!(
            self.flags[set * self.ways + way] & VALID != 0,
            "read_word_at on an invalid line"
        );
        self.replacement.touch(set, way, self.ways);
        self.data[(set * self.ways + way) * self.block_words + word]
    }

    /// Writes word `word` of a known-resident line, touches its
    /// replacement state and marks it dirty. Returns `true` if the new
    /// value equalled the stored one (a silent store).
    ///
    /// The *functional* cache marks the line dirty even for silent
    /// writes; suppressing silent write-backs is the WG controller's
    /// optimization, not a property of the underlying cache.
    #[inline]
    pub fn write_word_at(&mut self, set_index: u64, way: usize, word: usize, value: u64) -> bool {
        let set = set_index as usize;
        let line = set * self.ways + way;
        debug_assert!(
            self.flags[line] & VALID != 0,
            "write_word_at on an invalid line"
        );
        self.replacement.touch(set, way, self.ways);
        let slot = &mut self.data[line * self.block_words + word];
        let silent = *slot == value;
        *slot = value;
        self.flags[line] |= DIRTY;
        silent
    }

    /// Reads word `word` of a known-resident line with **no** side
    /// effects (no replacement update) — the pre-decoded counterpart of
    /// a forwarding peek.
    #[inline]
    pub fn peek_word_at(&self, set_index: u64, way: usize, word: usize) -> u64 {
        let set = set_index as usize;
        debug_assert!(
            self.flags[set * self.ways + way] & VALID != 0,
            "peek_word_at on an invalid line"
        );
        self.data[(set * self.ways + way) * self.block_words + word]
    }

    /// Installs the block containing `addr`, evicting a victim if the set
    /// is full, without allocating: the incoming words are borrowed, and
    /// a displaced block's words are deposited into `victim` (cleared
    /// first, so a buffer reused across calls settles at block capacity
    /// and never reallocates; left empty when nothing was evicted).
    ///
    /// The installed line is clean; callers that fill-then-write (write
    /// allocation) dirty it through [`write_word_at`](Self::write_word_at).
    /// An eviction is counted in [`evictions`](Self::evictions).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the block size in words, or if
    /// the block is already present (double fill indicates a controller
    /// bug).
    pub fn fill_into(&mut self, addr: Address, data: &[u64], victim: &mut Vec<u64>) -> FillSlot {
        assert_eq!(
            data.len(),
            self.block_words,
            "fill data must be exactly one block"
        );
        let set_index = self.geometry.set_index_of(addr);
        let set = set_index as usize;
        let tag = self.geometry.tag_of(addr);
        assert!(
            self.find(set, tag).is_none(),
            "block {addr} is already resident; double fill"
        );
        victim.clear();
        let (way, evicted) = match self.first_invalid(set) {
            Some(way) => (way, None),
            None => {
                let way = self.replacement.victim(set, self.ways);
                let line = set * self.ways + way;
                let base = self
                    .geometry
                    .block_base_from_parts(self.tags[line], set_index);
                let dirty = self.flags[line] & DIRTY != 0;
                self.evictions += 1;
                if dirty {
                    self.dirty_evictions += 1;
                }
                victim.extend_from_slice(self.block(line));
                (way, Some(EvictedMeta { base, dirty }))
            }
        };
        let line = set * self.ways + way;
        self.tags[line] = tag;
        self.flags[line] = VALID;
        self.block_mut(line).copy_from_slice(data);
        self.replacement.filled(set, way, self.ways);
        FillSlot { way, evicted }
    }

    /// Per-way `(tag, valid, dirty)` of one line, without constructing a
    /// data view — the metadata walk the WG Set-Buffer fill performs.
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range.
    #[inline]
    pub fn line_meta(&self, set_index: u64, way: usize) -> (u64, bool, bool) {
        let line = set_index as usize * self.ways + way;
        let flags = self.flags[line];
        (self.tags[line], flags & VALID != 0, flags & DIRTY != 0)
    }

    /// The contiguous word arena of every way of `set_index`, in way
    /// order — `ways * block_words` words. This is exactly one SRAM row,
    /// which is why the WG Set-Buffer can snapshot it with a single copy.
    ///
    /// # Panics
    ///
    /// Panics if `set_index >= num_sets`.
    #[inline]
    pub fn set_words(&self, set_index: u64) -> &[u64] {
        assert!(
            set_index < self.geometry.num_sets(),
            "set {set_index} out of range"
        );
        let base = set_index as usize * self.ways * self.block_words;
        &self.data[base..base + self.ways * self.block_words]
    }

    /// Replaces the word arena of every way of `set_index` at once,
    /// comparing first with the branchless kernel and skipping the copy
    /// when nothing changed. Returns `true` iff any word changed.
    ///
    /// Touches **no** metadata — tags, valid/dirty flags and replacement
    /// state are untouched; callers account dirtiness
    /// per way themselves (see [`set_line_dirty`](Self::set_line_dirty)).
    /// For ways whose stored words should not move, `data` must carry
    /// the current stored words (a Set-Buffer snapshot does by
    /// construction).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `ways * block_words` words.
    pub fn replace_set_words(&mut self, set_index: u64, data: &[u64]) -> bool {
        assert_eq!(
            data.len(),
            self.ways * self.block_words,
            "set data must cover every way"
        );
        let base = set_index as usize * self.ways * self.block_words;
        let stored = &mut self.data[base..base + self.ways * self.block_words];
        let changed = kernels::words_differ(stored, data);
        if changed {
            stored.copy_from_slice(data);
        }
        changed
    }

    /// Sets or clears the dirty bit of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is invalid.
    #[inline]
    pub fn set_line_dirty(&mut self, set_index: u64, way: usize, dirty: bool) {
        let line = set_index as usize * self.ways + way;
        assert!(self.flags[line] & VALID != 0, "cannot mark an invalid line");
        if dirty {
            self.flags[line] |= DIRTY;
        } else {
            self.flags[line] &= !DIRTY;
        }
    }

    /// Overwrites the data (and dirty bit) of a resident line.
    ///
    /// This is the primitive behind the WG controller's Set-Buffer
    /// write-back: the buffered, modified copy of each block is deposited
    /// back into the array.
    ///
    /// # Panics
    ///
    /// Panics if the way is invalid or `data` is not exactly one block.
    pub fn update_block(&mut self, set_index: u64, way: usize, data: &[u64], dirty: bool) {
        assert_eq!(data.len(), self.block_words);
        let line = set_index as usize * self.ways + way;
        assert!(
            self.flags[line] & VALID != 0,
            "cannot update an invalid line"
        );
        self.block_mut(line).copy_from_slice(data);
        if dirty {
            self.flags[line] |= DIRTY;
        } else {
            self.flags[line] &= !DIRTY;
        }
    }

    /// Iterates over `(set_index, way, line)` for every valid line.
    pub fn iter_valid_lines(&self) -> impl Iterator<Item = (u64, usize, LineView<'_>)> + '_ {
        (0..self.tags.len())
            .filter(|&line| self.flags[line] & VALID != 0)
            .map(|line| {
                (
                    (line / self.ways) as u64,
                    line % self.ways,
                    self.line_view(line),
                )
            })
    }

    /// Number of valid lines currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.flags.iter().filter(|&&f| f & VALID != 0).count()
    }
}

impl fmt::Debug for DataCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataCache")
            .field("geometry", &self.geometry)
            .field("resident_blocks", &self.resident_blocks())
            .field("evictions", &self.evictions)
            .field("dirty_evictions", &self.dirty_evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MainMemory;

    fn small_cache() -> DataCache {
        // 2 sets, 2 ways, 32 B blocks.
        DataCache::new(
            CacheGeometry::new(128, 2, 32).unwrap(),
            ReplacementKind::Lru,
        )
    }

    /// Fills the block at `raw`, returning the slot and the victim's words.
    fn fill_block(c: &mut DataCache, raw: u64, data: &[u64]) -> (FillSlot, Vec<u64>) {
        let mut victim = Vec::new();
        let slot = c.fill_into(Address::new(raw), data, &mut victim);
        (slot, victim)
    }

    /// `(set, way, word)` of a resident address.
    fn locate(c: &DataCache, a: Address) -> (u64, usize, usize) {
        let g = c.geometry();
        let way = c.probe(a).expect("resident");
        (g.set_index_of(a), way, g.word_offset_of(a))
    }

    fn read(c: &mut DataCache, a: Address) -> u64 {
        let (set, way, word) = locate(c, a);
        c.read_word_at(set, way, word)
    }

    fn write(c: &mut DataCache, a: Address, value: u64) -> bool {
        let (set, way, word) = locate(c, a);
        c.write_word_at(set, way, word, value)
    }

    #[test]
    fn cold_cache_misses_everything() {
        let c = small_cache();
        assert_eq!(c.probe(Address::new(0)), None);
        assert_eq!(c.probe(Address::new(0x20)), None);
        assert_eq!(c.resident_blocks(), 0);
    }

    #[test]
    fn fill_then_hit() {
        let mut c = small_cache();
        let a = Address::new(0x40);
        fill_block(&mut c, 0x40, &[7, 8, 9, 10]);
        assert_eq!(read(&mut c, a), 7);
        assert_eq!(read(&mut c, a.offset(8)), 8);
        assert_eq!(read(&mut c, a.offset(24)), 10);
    }

    #[test]
    fn write_detects_silence() {
        let mut c = small_cache();
        let a = Address::new(0x40);
        fill_block(&mut c, 0x40, &[7, 0, 0, 0]);
        assert!(write(&mut c, a, 7));
        assert!(!write(&mut c, a, 8));
        assert_eq!(read(&mut c, a), 8);
    }

    #[test]
    fn write_marks_dirty_even_when_silent() {
        let mut c = small_cache();
        let a = Address::new(0x40);
        fill_block(&mut c, 0x40, &[7, 0, 0, 0]);
        assert!(write(&mut c, a, 7));
        let (set, way, _) = locate(&c, a);
        assert!(c.set(set).line(way).is_dirty());
    }

    #[test]
    fn eviction_returns_dirty_victim() {
        let mut c = small_cache();
        // Set 0 holds blocks whose addresses have bit 5 clear (offset_bits=5,
        // 2 sets -> index bit is bit 5): 0x000, 0x080, 0x100 and 0x180.
        let a = Address::new(0x000);
        fill_block(&mut c, 0x000, &[1, 0, 0, 0]);
        fill_block(&mut c, 0x080, &[2, 0, 0, 0]);
        write(&mut c, a, 5); // dirty a, and make it MRU
        let (slot, _) = fill_block(&mut c, 0x100, &[3, 0, 0, 0]);
        let ev = slot.evicted.expect("set was full");
        assert_eq!(ev.base, Address::new(0x080), "LRU victim is b");
        assert!(!ev.dirty);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.dirty_evictions(), 0);
        // Now evict the dirty block a.
        let (slot, data) = fill_block(&mut c, 0x180, &[4, 0, 0, 0]);
        let ev = slot.evicted.expect("set full again");
        assert_eq!(ev.base, a);
        assert!(ev.dirty);
        assert_eq!(data, vec![5, 0, 0, 0]);
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.dirty_evictions(), 1);
    }

    #[test]
    fn fill_into_reuses_the_victim_buffer() {
        let mut c = small_cache();
        let mut victim = Vec::new();
        c.fill_into(Address::new(0x000), &[1, 0, 0, 0], &mut victim);
        assert!(victim.is_empty(), "no eviction on a cold fill");
        c.fill_into(Address::new(0x080), &[2, 0, 0, 0], &mut victim);
        write(&mut c, Address::new(0x080), 9);
        let slot = c.fill_into(Address::new(0x100), &[3, 0, 0, 0], &mut victim);
        let meta = slot.evicted.expect("set was full");
        assert_eq!(meta.base, Address::new(0x000), "LRU victim");
        assert!(!meta.dirty);
        assert_eq!(victim, vec![1, 0, 0, 0]);
        let capacity = victim.capacity();
        // The next eviction reuses the buffer without growing it.
        let slot = c.fill_into(Address::new(0x180), &[4, 0, 0, 0], &mut victim);
        let meta = slot.evicted.expect("set full again");
        assert_eq!(meta.base, Address::new(0x080));
        assert!(meta.dirty);
        assert_eq!(victim, vec![9, 0, 0, 0]);
        assert_eq!(victim.capacity(), capacity);
    }

    #[test]
    #[should_panic(expected = "double fill")]
    fn double_fill_panics() {
        let mut c = small_cache();
        fill_block(&mut c, 0x40, &[0; 4]);
        fill_block(&mut c, 0x47, &[0; 4]); // same block
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut c = small_cache();
        fill_block(&mut c, 0x000, &[0; 4]);
        fill_block(&mut c, 0x080, &[0; 4]);
        // Probing the LRU block must not make it recent.
        assert!(c.probe(Address::new(0x000)).is_some());
        assert!(c.probe(Address::new(0x020)).is_none());
        let (slot, _) = fill_block(&mut c, 0x100, &[0; 4]);
        assert_eq!(slot.evicted.map(|e| e.base), Some(Address::new(0x000)));
    }

    #[test]
    fn update_block_replaces_data_and_dirty() {
        let mut c = small_cache();
        let a = Address::new(0x40);
        fill_block(&mut c, 0x40, &[0; 4]);
        let (set, way, _) = locate(&c, a);
        c.update_block(set, way, &[9, 9, 9, 9], true);
        assert_eq!(read(&mut c, a), 9);
        assert!(c.set(set).line(way).is_dirty());
        c.update_block(set, way, &[9, 9, 9, 9], false);
        assert!(!c.set(set).line(way).is_dirty());
    }

    #[test]
    fn works_with_backing_memory_roundtrip() {
        let g = CacheGeometry::new(128, 2, 32).unwrap();
        let mut c = DataCache::new(g, ReplacementKind::Lru);
        let mut mem = MainMemory::new(32);
        mem.write_word(Address::new(0x40), 77);
        let a = Address::new(0x40);
        let mut victim = Vec::new();
        c.fill_into(a, mem.read_block_ref(a), &mut victim);
        assert_eq!(read(&mut c, a), 77);
        write(&mut c, a, 78);
        // Evict everything in set of a by filling conflicting blocks.
        let mut evicted = None;
        for i in 1..=2 {
            let b = Address::new(0x40 + i * 0x80);
            let slot = c.fill_into(b, mem.read_block_ref(b), &mut victim);
            if let Some(ev) = slot.evicted.filter(|ev| ev.base == a) {
                evicted = Some((ev, victim.clone()));
            }
        }
        let (ev, data) = evicted.expect("a was evicted");
        assert!(ev.dirty);
        mem.write_block_from(ev.base, &data);
        assert_eq!(mem.read_word(Address::new(0x40)), 78);
    }

    #[test]
    fn reset_evictions_zeroes_both_counts() {
        let mut c = small_cache();
        fill_block(&mut c, 0x000, &[0; 4]);
        write(&mut c, Address::new(0x000), 1);
        fill_block(&mut c, 0x080, &[0; 4]);
        fill_block(&mut c, 0x100, &[0; 4]);
        assert_eq!((c.evictions(), c.dirty_evictions()), (1, 1));
        c.reset_evictions();
        assert_eq!((c.evictions(), c.dirty_evictions()), (0, 0));
    }

    #[test]
    fn iter_valid_lines_sees_all_fills() {
        let mut c = small_cache();
        fill_block(&mut c, 0x00, &[0; 4]);
        fill_block(&mut c, 0x20, &[0; 4]);
        fill_block(&mut c, 0x80, &[0; 4]);
        assert_eq!(c.resident_blocks(), 3);
        let sets: Vec<u64> = c.iter_valid_lines().map(|(s, _, _)| s).collect();
        assert_eq!(sets.iter().filter(|&&s| s == 0).count(), 2);
        assert_eq!(sets.iter().filter(|&&s| s == 1).count(), 1);
    }
}
