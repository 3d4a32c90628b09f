//! The value-carrying set-associative data cache.
//!
//! Storage is structure-of-arrays: one contiguous word arena plus flat
//! tag/flag arrays, indexed by `set * ways + way`. See `DESIGN.md` for
//! why the per-line `Vec<u64>` layout this replaced was the hottest
//! cost in the workspace.

use std::fmt;

use crate::kernels;
use crate::replacement::{PolicyTable, ReplacementKind};
use crate::{Address, CacheGeometry, CacheStats};

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

/// Result of writing a word that hit in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteEffect {
    /// The value the word held before the write.
    pub old_value: u64,
    /// `true` if the new value equalled the old one (a silent store).
    pub was_silent: bool,
}

/// A valid block displaced by [`DataCache::fill`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictedLine {
    /// Base address of the evicted block.
    pub base: Address,
    /// The block's words at eviction time.
    pub data: Vec<u64>,
    /// `true` if the block was dirty and must be written back to memory.
    pub dirty: bool,
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

/// Result of installing a block with [`DataCache::fill`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FillOutcome {
    /// The way the block was installed into.
    pub way: usize,
    /// The valid block that was displaced, if the set was full.
    pub evicted: Option<EvictedLine>,
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
/// operations under RMW, WG, and WG+RB.
///
/// All block words live in one contiguous arena (`set * ways + way`
/// blocks of `block_words` words each) with packed per-line tag and
/// valid/dirty metadata alongside; replacement state is flat per-policy
/// arrays dispatched by a monomorphized enum. The data path is
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
/// let mut mem = MainMemory::new(g.block_bytes());
///
/// let a = Address::new(0x200);
/// assert_eq!(cache.read_word(a), None); // miss
/// cache.fill(a, mem.read_block_ref(a));
/// assert_eq!(cache.read_word(a), Some(0));
/// let effect = cache.write_word(a, 42).expect("hit after fill");
/// assert!(!effect.was_silent);
/// assert_eq!(cache.read_word(a), Some(42));
/// # Ok(())
/// # }
/// ```
pub struct DataCache {
    geometry: CacheGeometry,
    stats: CacheStats,
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
            stats: CacheStats::new(),
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

    /// Accumulated hit/miss statistics.
    #[inline]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics to zero (used after warm-up, mirroring the paper's
    /// 1 B-instruction cache warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
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

    /// Looks up `addr` without any side effects (no statistics, no
    /// replacement update). Returns the hit way.
    pub fn probe(&self, addr: Address) -> Option<usize> {
        let set = self.geometry.set_index_of(addr) as usize;
        let tag = self.geometry.tag_of(addr);
        self.find(set, tag)
    }

    /// Touches the replacement state for `addr` if it is resident, without
    /// reading data or updating statistics.
    ///
    /// The WG/WG+RB controllers use this when a request is served from the
    /// Set-Buffer: the block logically *was* accessed, so replacement
    /// recency must advance exactly as it would in the baseline cache —
    /// otherwise the techniques would change miss rates, which the paper's
    /// techniques do not.
    pub fn touch(&mut self, addr: Address) -> Option<usize> {
        let set = self.geometry.set_index_of(addr) as usize;
        let tag = self.geometry.tag_of(addr);
        let way = self.find(set, tag)?;
        self.replacement.touch(set, way, self.ways);
        Some(way)
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

    /// Touches the replacement state of a known-resident line.
    ///
    /// Equivalent to [`touch`](Self::touch) when the caller already knows
    /// the hit way (from [`find_in_set`](Self::find_in_set) or a fill),
    /// skipping the redundant tag search.
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

    /// Reads word `word` of a known-resident line, with exactly the
    /// side effects of the hit arm of [`read_word`](Self::read_word):
    /// replacement touch plus one read hit.
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
        self.stats.read_hits += 1;
        self.data[(set * self.ways + way) * self.block_words + word]
    }

    /// Writes word `word` of a known-resident line, with exactly the
    /// side effects of the hit arm of [`write_word`](Self::write_word):
    /// replacement touch, dirty marking, one write hit, and silent-store
    /// accounting.
    #[inline]
    pub fn write_word_at(
        &mut self,
        set_index: u64,
        way: usize,
        word: usize,
        value: u64,
    ) -> WriteEffect {
        let set = set_index as usize;
        let line = set * self.ways + way;
        debug_assert!(
            self.flags[line] & VALID != 0,
            "write_word_at on an invalid line"
        );
        self.replacement.touch(set, way, self.ways);
        let slot = &mut self.data[line * self.block_words + word];
        let old_value = *slot;
        let was_silent = old_value == value;
        *slot = value;
        self.flags[line] |= DIRTY;
        self.stats.write_hits += 1;
        if was_silent {
            self.stats.silent_word_writes += 1;
        }
        WriteEffect {
            old_value,
            was_silent,
        }
    }

    /// Reads word `word` of a known-resident line with **no** side
    /// effects (no statistics, no replacement update) — the pre-decoded
    /// counterpart of a forwarding peek.
    #[inline]
    pub fn peek_word_at(&self, set_index: u64, way: usize, word: usize) -> u64 {
        let set = set_index as usize;
        debug_assert!(
            self.flags[set * self.ways + way] & VALID != 0,
            "peek_word_at on an invalid line"
        );
        self.data[(set * self.ways + way) * self.block_words + word]
    }

    /// Reads the aligned word containing `addr`.
    ///
    /// On a hit the replacement state is touched and `Some(value)` is
    /// returned; on a miss, `None`. Statistics are updated either way.
    pub fn read_word(&mut self, addr: Address) -> Option<u64> {
        let set = self.geometry.set_index_of(addr) as usize;
        let tag = self.geometry.tag_of(addr);
        let word = self.geometry.word_offset_of(addr);
        match self.find(set, tag) {
            Some(way) => {
                self.replacement.touch(set, way, self.ways);
                self.stats.read_hits += 1;
                Some(self.data[(set * self.ways + way) * self.block_words + word])
            }
            None => {
                self.stats.read_misses += 1;
                None
            }
        }
    }

    /// Writes the aligned word containing `addr`.
    ///
    /// On a hit the word is updated, the line marked dirty, the replacement
    /// state touched, and the [`WriteEffect`] (including silence) returned;
    /// on a miss, `None`. Statistics are updated either way.
    ///
    /// Note that the *functional* cache marks the line dirty even for silent
    /// writes; suppressing silent write-backs is the WG controller's
    /// optimization, not a property of the underlying cache.
    pub fn write_word(&mut self, addr: Address, value: u64) -> Option<WriteEffect> {
        let set = self.geometry.set_index_of(addr) as usize;
        let tag = self.geometry.tag_of(addr);
        let word = self.geometry.word_offset_of(addr);
        match self.find(set, tag) {
            Some(way) => {
                self.replacement.touch(set, way, self.ways);
                let line = set * self.ways + way;
                let slot = &mut self.data[line * self.block_words + word];
                let old_value = *slot;
                let was_silent = old_value == value;
                *slot = value;
                self.flags[line] |= DIRTY;
                self.stats.write_hits += 1;
                if was_silent {
                    self.stats.silent_word_writes += 1;
                }
                Some(WriteEffect {
                    old_value,
                    was_silent,
                })
            }
            None => {
                self.stats.write_misses += 1;
                None
            }
        }
    }

    /// Chooses the destination way for a fill into `set`, counting any
    /// eviction. Shared by [`fill`](Self::fill) and
    /// [`fill_into`](Self::fill_into).
    fn fill_slot(&mut self, set: usize, set_index: u64) -> (usize, Option<EvictedMeta>) {
        match self.first_invalid(set) {
            Some(way) => (way, None),
            None => {
                let way = self.replacement.victim(set, self.ways);
                let line = set * self.ways + way;
                let base = self
                    .geometry
                    .block_base_from_parts(self.tags[line], set_index);
                let dirty = self.flags[line] & DIRTY != 0;
                self.stats.evictions += 1;
                if dirty {
                    self.stats.dirty_evictions += 1;
                }
                (way, Some(EvictedMeta { base, dirty }))
            }
        }
    }

    /// Installs the block words in `line`, marking it valid and clean.
    fn install(&mut self, set: usize, way: usize, tag: u64, data: &[u64]) {
        let line = set * self.ways + way;
        self.tags[line] = tag;
        self.flags[line] = VALID;
        self.block_mut(line).copy_from_slice(data);
        self.replacement.filled(set, way, self.ways);
    }

    /// Installs the block containing `addr`, evicting a victim if the set is
    /// full.
    ///
    /// The installed line is clean; callers that fill-then-write (write
    /// allocation) will dirty it through [`write_word`](Self::write_word).
    /// Does not touch hit/miss statistics — the lookup that discovered the
    /// miss already counted it — but does count evictions.
    ///
    /// Any displaced block's words are returned in an owned
    /// [`EvictedLine`]; the allocation-free hot path is
    /// [`fill_into`](Self::fill_into).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the block size in words, or if
    /// the block is already present (double fill indicates a controller
    /// bug).
    pub fn fill(&mut self, addr: Address, data: &[u64]) -> FillOutcome {
        let mut victim = Vec::new();
        let slot = self.fill_into(addr, data, &mut victim);
        FillOutcome {
            way: slot.way,
            evicted: slot.evicted.map(|meta| EvictedLine {
                base: meta.base,
                data: victim,
                dirty: meta.dirty,
            }),
        }
    }

    /// Installs the block containing `addr` without allocating: the
    /// incoming words are borrowed, and a displaced block's words are
    /// deposited into `victim` (cleared first, so a buffer reused across
    /// calls settles at block capacity and never reallocates).
    ///
    /// Behaves exactly like [`fill`](Self::fill) otherwise; `victim` is
    /// left empty when nothing was evicted.
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
        let (way, evicted) = self.fill_slot(set, set_index);
        if evicted.is_some() {
            victim.extend_from_slice(self.block(set * self.ways + way));
        }
        self.install(set, way, tag, data);
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
    /// Touches **no** metadata — tags, valid/dirty flags, replacement
    /// state, and statistics are untouched; callers account dirtiness
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
            .field("stats", &self.stats)
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

    #[test]
    fn cold_cache_misses_everything() {
        let mut c = small_cache();
        assert_eq!(c.read_word(Address::new(0)), None);
        assert_eq!(c.write_word(Address::new(0x20), 1), None);
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().write_misses, 1);
        assert_eq!(c.resident_blocks(), 0);
    }

    #[test]
    fn fill_then_hit() {
        let mut c = small_cache();
        let a = Address::new(0x40);
        c.fill(a, &[7, 8, 9, 10]);
        assert_eq!(c.read_word(a), Some(7));
        assert_eq!(c.read_word(a.offset(8)), Some(8));
        assert_eq!(c.read_word(a.offset(24)), Some(10));
        assert_eq!(c.stats().read_hits, 3);
    }

    #[test]
    fn write_detects_silence() {
        let mut c = small_cache();
        let a = Address::new(0x40);
        c.fill(a, &[7, 0, 0, 0]);
        let e = c.write_word(a, 7).unwrap();
        assert!(e.was_silent);
        assert_eq!(e.old_value, 7);
        let e = c.write_word(a, 8).unwrap();
        assert!(!e.was_silent);
        assert_eq!(e.old_value, 7);
        assert_eq!(c.stats().silent_word_writes, 1);
    }

    #[test]
    fn write_marks_dirty_even_when_silent() {
        let mut c = small_cache();
        let a = Address::new(0x40);
        c.fill(a, &[7, 0, 0, 0]);
        c.write_word(a, 7).unwrap();
        let way = c.probe(a).unwrap();
        let set = c.geometry().set_index_of(a);
        assert!(c.set(set).line(way).is_dirty());
    }

    #[test]
    fn eviction_returns_dirty_victim() {
        let mut c = small_cache();
        // Set 0 holds blocks whose addresses have bit 5 clear (offset_bits=5,
        // 2 sets -> index bit is bit 5).
        let a = Address::new(0x000); // set 0
        let b = Address::new(0x080); // set 0 (0x80 >> 5 = 4, & 1 = 0)
        let d = Address::new(0x100); // set 0
        c.fill(a, &[1, 0, 0, 0]);
        c.fill(b, &[2, 0, 0, 0]);
        c.write_word(a, 5).unwrap(); // dirty a, and make it MRU
        let out = c.fill(d, &[3, 0, 0, 0]);
        let ev = out.evicted.expect("set was full");
        assert_eq!(ev.base, b, "LRU victim is b");
        assert!(!ev.dirty);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 0);
        // Now evict the dirty block a.
        let e = Address::new(0x180);
        let out = c.fill(e, &[4, 0, 0, 0]);
        let ev = out.evicted.expect("set full again");
        assert_eq!(ev.base, a);
        assert!(ev.dirty);
        assert_eq!(ev.data, vec![5, 0, 0, 0]);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn fill_into_reuses_the_victim_buffer() {
        let mut c = small_cache();
        let mut victim = Vec::new();
        c.fill_into(Address::new(0x000), &[1, 0, 0, 0], &mut victim);
        assert!(victim.is_empty(), "no eviction on a cold fill");
        c.fill_into(Address::new(0x080), &[2, 0, 0, 0], &mut victim);
        c.write_word(Address::new(0x080), 9).unwrap();
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
        c.fill(Address::new(0x40), &[0; 4]);
        c.fill(Address::new(0x47), &[0; 4]); // same block
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut c = small_cache();
        let a = Address::new(0x40);
        c.fill(a, &[0; 4]);
        let before = *c.stats();
        assert!(c.probe(a).is_some());
        assert!(c.probe(Address::new(0x60)).is_none());
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn update_block_replaces_data_and_dirty() {
        let mut c = small_cache();
        let a = Address::new(0x40);
        c.fill(a, &[0; 4]);
        let set = c.geometry().set_index_of(a);
        let way = c.probe(a).unwrap();
        c.update_block(set, way, &[9, 9, 9, 9], true);
        assert_eq!(c.read_word(a), Some(9));
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
        c.fill(a, mem.read_block_ref(a));
        assert_eq!(c.read_word(a), Some(77));
        c.write_word(a, 78).unwrap();
        // Evict everything in set of a by filling conflicting blocks.
        let mut evicted_data = None;
        for i in 1..=2 {
            let out = c.fill(
                Address::new(0x40 + i * 0x80),
                mem.read_block_ref(Address::new(0x40 + i * 0x80)),
            );
            if let Some(ev) = out.evicted {
                if ev.base == Address::new(0x40) {
                    evicted_data = Some(ev);
                }
            }
        }
        let ev = evicted_data.expect("a was evicted");
        assert!(ev.dirty);
        mem.write_block_from(ev.base, &ev.data);
        assert_eq!(mem.read_word(Address::new(0x40)), 78);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut c = small_cache();
        c.read_word(Address::new(0));
        assert_ne!(c.stats().accesses(), 0);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn iter_valid_lines_sees_all_fills() {
        let mut c = small_cache();
        c.fill(Address::new(0x00), &[0; 4]);
        c.fill(Address::new(0x20), &[0; 4]);
        c.fill(Address::new(0x80), &[0; 4]);
        assert_eq!(c.resident_blocks(), 3);
        let sets: Vec<u64> = c.iter_valid_lines().map(|(s, _, _)| s).collect();
        assert_eq!(sets.iter().filter(|&&s| s == 0).count(), 2);
        assert_eq!(sets.iter().filter(|&&s| s == 1).count(), 1);
    }
}
