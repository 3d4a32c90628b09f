//! Cache geometry: capacity / associativity / block size and address
//! decomposition.

use serde::{Deserialize, Serialize};

use crate::{Address, GeometryError};

/// Number of bytes in the 64-bit word granularity the simulator stores.
pub(crate) const WORD_BYTES: u64 = 8;

/// The shape of a set-associative cache and the induced address split.
///
/// A `CacheGeometry` is an immutable, validated description of a cache:
/// total capacity, associativity (ways), and block size, all powers of two.
/// It provides the tag / set-index / block-offset decomposition used by
/// every component in the workspace.
///
/// The paper's baseline is 64 KB, 4-way, 32 B blocks (§5.1); the
/// sensitivity studies use 32 KB/64 B (Figure 10) and 32 KB & 128 KB/32 B
/// (Figure 11). [`CacheGeometry::paper_baseline`] and friends construct
/// those configurations.
///
/// # Example
///
/// ```
/// use cache8t_sim::{Address, CacheGeometry};
///
/// # fn main() -> Result<(), cache8t_sim::GeometryError> {
/// let g = CacheGeometry::new(64 * 1024, 4, 32)?;
/// assert_eq!(g.num_sets(), 512);
/// assert_eq!(g.set_bytes(), 128); // the Set-Buffer size of paper §5.4
///
/// let a = Address::new(0x0001_2345);
/// assert_eq!(g.block_offset_of(a), 0x05);
/// assert_eq!(g.set_index_of(a), (0x0001_2345 >> 5) & 0x1ff);
/// assert_eq!(g.tag_of(a), 0x0001_2345 >> 14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    capacity_bytes: u64,
    ways: u64,
    block_bytes: u64,
    num_sets: u64,
    offset_bits: u32,
    index_bits: u32,
}

impl CacheGeometry {
    /// Creates a validated geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if any of the parameters is zero or not a
    /// power of two, if `block_bytes` is smaller than the 8-byte simulator
    /// word, or if `capacity_bytes < ways * block_bytes`.
    pub fn new(capacity_bytes: u64, ways: u64, block_bytes: u64) -> Result<Self, GeometryError> {
        if capacity_bytes == 0 || !capacity_bytes.is_power_of_two() {
            return Err(GeometryError::CapacityNotPowerOfTwo { capacity_bytes });
        }
        if block_bytes < WORD_BYTES || !block_bytes.is_power_of_two() {
            return Err(GeometryError::InvalidBlockSize { block_bytes });
        }
        if ways == 0 || !ways.is_power_of_two() {
            return Err(GeometryError::InvalidWays { ways });
        }
        let set_bytes = ways * block_bytes;
        if capacity_bytes < set_bytes {
            return Err(GeometryError::Inconsistent {
                capacity_bytes,
                ways,
                block_bytes,
            });
        }
        let num_sets = capacity_bytes / set_bytes;
        debug_assert!(num_sets.is_power_of_two());
        Ok(CacheGeometry {
            capacity_bytes,
            ways,
            block_bytes,
            num_sets,
            offset_bits: block_bytes.trailing_zeros(),
            index_bits: num_sets.trailing_zeros(),
        })
    }

    /// The paper's baseline L1 data cache: 64 KB, 4-way, 32 B blocks (§5.1).
    pub fn paper_baseline() -> Self {
        CacheGeometry::new(64 * 1024, 4, 32).expect("baseline geometry is valid")
    }

    /// The Figure 10 configuration: 32 KB, 4-way, 64 B blocks.
    pub fn paper_large_blocks() -> Self {
        CacheGeometry::new(32 * 1024, 4, 64).expect("figure 10 geometry is valid")
    }

    /// The Figure 11 small configuration: 32 KB, 4-way, 32 B blocks.
    pub fn paper_small() -> Self {
        CacheGeometry::new(32 * 1024, 4, 32).expect("figure 11 geometry is valid")
    }

    /// The Figure 11 large configuration: 128 KB, 4-way, 32 B blocks.
    pub fn paper_large() -> Self {
        CacheGeometry::new(128 * 1024, 4, 32).expect("figure 11 geometry is valid")
    }

    /// Total capacity in bytes.
    #[inline]
    pub const fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Associativity (blocks per set).
    #[inline]
    pub const fn ways(&self) -> u64 {
        self.ways
    }

    /// Block (cache line) size in bytes.
    #[inline]
    pub const fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Block size in 64-bit words.
    #[inline]
    pub const fn block_words(&self) -> usize {
        (self.block_bytes / WORD_BYTES) as usize
    }

    /// Number of sets.
    #[inline]
    pub const fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// Size of one full set in bytes (`ways * block_bytes`).
    ///
    /// This is the capacity of the paper's Set-Buffer (§5.4: 128 B for the
    /// baseline geometry).
    #[inline]
    pub const fn set_bytes(&self) -> u64 {
        self.ways * self.block_bytes
    }

    /// Number of low address bits naming a byte within a block.
    #[inline]
    pub const fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    /// Number of address bits naming the set.
    #[inline]
    pub const fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Number of tag bits for a physical address of `address_bits` bits.
    ///
    /// The paper assumes 48-bit physical addresses when sizing the
    /// Tag-Buffer (§5.4).
    #[inline]
    pub const fn tag_bits(&self, address_bits: u32) -> u32 {
        address_bits.saturating_sub(self.offset_bits + self.index_bits)
    }

    /// Byte offset of `addr` within its block.
    #[inline]
    pub fn block_offset_of(&self, addr: Address) -> u64 {
        addr.raw() & (self.block_bytes - 1)
    }

    /// Word offset of `addr` within its block (index into block words).
    #[inline]
    pub fn word_offset_of(&self, addr: Address) -> usize {
        (self.block_offset_of(addr) / WORD_BYTES) as usize
    }

    /// Set index of `addr`.
    #[inline]
    pub fn set_index_of(&self, addr: Address) -> u64 {
        (addr.raw() >> self.offset_bits) & (self.num_sets - 1)
    }

    /// Tag of `addr` (all address bits above offset and index).
    #[inline]
    pub fn tag_of(&self, addr: Address) -> u64 {
        addr.raw() >> (self.offset_bits + self.index_bits)
    }

    /// First byte address of the block containing `addr`.
    #[inline]
    pub fn block_base(&self, addr: Address) -> Address {
        addr.align_down(self.block_bytes)
    }

    /// Coarse set-index bucket of `addr` for conflict-heat telemetry:
    /// partitions the set-index space into `buckets` equal-width
    /// ranges and returns which range `addr`'s set falls in (always
    /// `< buckets`). Caches with fewer sets than buckets simply leave
    /// the high buckets unused.
    #[inline]
    pub fn heat_bucket_of(&self, addr: Address, buckets: usize) -> usize {
        debug_assert!(buckets > 0);
        ((self.set_index_of(addr) as u128 * buckets as u128) / self.num_sets as u128) as usize
    }

    /// Reconstructs the block base address of a (tag, set index) pair.
    ///
    /// Inverse of [`tag_of`](Self::tag_of) + [`set_index_of`](Self::set_index_of)
    /// at block granularity.
    #[inline]
    pub fn block_base_from_parts(&self, tag: u64, set_index: u64) -> Address {
        debug_assert!(set_index < self.num_sets);
        Address::new(
            (tag << (self.offset_bits + self.index_bits)) | (set_index << self.offset_bits),
        )
    }
}

/// The paper's baseline geometry, [`CacheGeometry::paper_baseline`].
impl Default for CacheGeometry {
    fn default() -> Self {
        CacheGeometry::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_numbers() {
        let g = CacheGeometry::paper_baseline();
        assert_eq!(g.capacity_bytes(), 65536);
        assert_eq!(g.ways(), 4);
        assert_eq!(g.block_bytes(), 32);
        assert_eq!(g.num_sets(), 512);
        // Paper §5.4: "the size of a cache set is 128B".
        assert_eq!(g.set_bytes(), 128);
        assert_eq!(g.block_words(), 4);
        assert_eq!(g.offset_bits(), 5);
        assert_eq!(g.index_bits(), 9);
        // Paper §5.4: Tag-Buffer < 150 bits for 48-bit physical addresses.
        // 4 tags of (48 - 5 - 9) = 34 bits + 9 index bits = 145 bits.
        assert_eq!(g.tag_bits(48), 34);
        let tag_buffer_bits = 4 * u64::from(g.tag_bits(48)) + u64::from(g.index_bits());
        assert!(tag_buffer_bits <= 150, "got {tag_buffer_bits} bits");
    }

    #[test]
    fn sweep_configurations_are_valid() {
        for g in [
            CacheGeometry::paper_large_blocks(),
            CacheGeometry::paper_small(),
            CacheGeometry::paper_large(),
        ] {
            assert!(g.num_sets() >= 1);
            assert_eq!(g.capacity_bytes(), g.num_sets() * g.set_bytes());
        }
        assert_eq!(CacheGeometry::paper_large_blocks().num_sets(), 128);
        assert_eq!(CacheGeometry::paper_small().num_sets(), 256);
        assert_eq!(CacheGeometry::paper_large().num_sets(), 1024);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(matches!(
            CacheGeometry::new(0, 4, 32),
            Err(GeometryError::CapacityNotPowerOfTwo { .. })
        ));
        assert!(matches!(
            CacheGeometry::new(65536, 4, 12),
            Err(GeometryError::InvalidBlockSize { .. })
        ));
        assert!(matches!(
            CacheGeometry::new(65536, 4, 4),
            Err(GeometryError::InvalidBlockSize { .. })
        ));
        assert!(matches!(
            CacheGeometry::new(65536, 3, 32),
            Err(GeometryError::InvalidWays { .. })
        ));
        assert!(matches!(
            CacheGeometry::new(64, 4, 32),
            Err(GeometryError::Inconsistent { .. })
        ));
        assert!(matches!(
            CacheGeometry::new(65535, 4, 32),
            Err(GeometryError::CapacityNotPowerOfTwo { .. })
        ));
    }

    #[test]
    fn fully_associative_single_set_is_allowed() {
        let g = CacheGeometry::new(128, 4, 32).unwrap();
        assert_eq!(g.num_sets(), 1);
        assert_eq!(g.index_bits(), 0);
        assert_eq!(g.set_index_of(Address::new(0xffff_ffff)), 0);
    }

    #[test]
    fn decomposition_roundtrips() {
        let g = CacheGeometry::paper_baseline();
        for raw in [0u64, 0x1040, 0xdead_beef, u64::MAX - 7] {
            let a = Address::new(raw);
            let tag = g.tag_of(a);
            let idx = g.set_index_of(a);
            let base = g.block_base_from_parts(tag, idx);
            assert_eq!(base, g.block_base(a), "address {a}");
        }
    }

    #[test]
    fn heat_buckets_partition_the_set_space() {
        let g = CacheGeometry::paper_baseline(); // 512 sets
        let buckets = 16;
        // Every set lands in a valid bucket, and the mapping is
        // monotone in the set index.
        let mut last = 0;
        for set in 0..g.num_sets() {
            let addr = g.block_base_from_parts(0, set);
            let b = g.heat_bucket_of(addr, buckets);
            assert!(b < buckets);
            assert!(b >= last, "bucket map must be monotone");
            last = b;
        }
        assert_eq!(last, buckets - 1, "the top sets reach the top bucket");
        // A single-set cache puts everything in bucket 0.
        let tiny = CacheGeometry::new(128, 4, 32).unwrap();
        assert_eq!(tiny.heat_bucket_of(Address::new(0xffff_ff00), buckets), 0);
    }

    #[test]
    fn word_offset_of_addresses_within_block() {
        let g = CacheGeometry::paper_baseline();
        assert_eq!(g.word_offset_of(Address::new(0x100)), 0);
        assert_eq!(g.word_offset_of(Address::new(0x108)), 1);
        assert_eq!(g.word_offset_of(Address::new(0x10f)), 1);
        assert_eq!(g.word_offset_of(Address::new(0x118)), 3);
    }

    #[test]
    fn tag_bits_saturates() {
        let g = CacheGeometry::paper_baseline();
        assert_eq!(g.tag_bits(4), 0);
    }
}
