//! Sparse backing memory.

use crate::geometry::WORD_BYTES;
use crate::hash::FastMap;
use crate::Address;

/// A sparse, lazily zero-filled main memory holding 64-bit words at block
/// granularity.
///
/// The cache simulator needs a data source for miss fills and a sink for
/// write-backs; `MainMemory` provides both. Untouched memory reads as zero,
/// which matches the silent-write convention the paper inherits from Lepak &
/// Lipasti: a store of `0` to a never-written location is silent.
///
/// Blocks are stored as `Box<[u64]>` and the borrowing accessors
/// ([`read_block_ref`](Self::read_block_ref),
/// [`read_block_into`](Self::read_block_into),
/// [`write_block_from`](Self::write_block_from)) keep the miss-fill and
/// write-back paths allocation-free: a cold read borrows one shared
/// zero block instead of materializing a fresh `Vec`, and a write-back
/// into an existing block copies in place.
///
/// # Example
///
/// ```
/// use cache8t_sim::{Address, MainMemory};
///
/// let mut mem = MainMemory::new(32);
/// assert_eq!(mem.read_word(Address::new(0x40)), 0);
/// mem.write_word(Address::new(0x40), 7);
/// assert_eq!(mem.read_word(Address::new(0x40)), 7);
/// assert_eq!(mem.read_block_ref(Address::new(0x40)), &[7, 0, 0, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    block_bytes: u64,
    block_words: usize,
    blocks: FastMap<u64, Box<[u64]>>,
    /// Shared backing for reads of untouched blocks.
    zero_block: Box<[u64]>,
}

impl MainMemory {
    /// Creates an empty (all-zero) memory with the given block size in
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power-of-two multiple of 8.
    pub fn new(block_bytes: u64) -> Self {
        assert!(
            block_bytes >= WORD_BYTES && block_bytes.is_power_of_two(),
            "block size must be a power-of-two multiple of {WORD_BYTES} bytes"
        );
        let block_words = (block_bytes / WORD_BYTES) as usize;
        MainMemory {
            block_bytes,
            block_words,
            blocks: FastMap::default(),
            zero_block: vec![0; block_words].into_boxed_slice(),
        }
    }

    /// Block size in bytes.
    #[inline]
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Number of blocks that have ever been written (the memory footprint).
    #[inline]
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn block_base(&self, addr: Address) -> u64 {
        addr.raw() & !(self.block_bytes - 1)
    }

    fn word_index(&self, addr: Address) -> usize {
        ((addr.raw() & (self.block_bytes - 1)) / WORD_BYTES) as usize
    }

    /// Borrows the whole block containing `addr` without copying; an
    /// untouched block borrows a shared all-zero block.
    #[inline]
    pub fn read_block_ref(&self, addr: Address) -> &[u64] {
        let base = self.block_base(addr);
        match self.blocks.get(&base) {
            Some(block) => block,
            None => &self.zero_block,
        }
    }

    /// Copies the whole block containing `addr` into `dst` (zeros if
    /// untouched).
    ///
    /// # Panics
    ///
    /// Panics if `dst.len()` does not equal the block size in words.
    pub fn read_block_into(&self, addr: Address, dst: &mut [u64]) {
        assert_eq!(
            dst.len(),
            self.block_words,
            "block buffer must be exactly {} words",
            self.block_words
        );
        dst.copy_from_slice(self.read_block_ref(addr));
    }

    /// Overwrites the whole block containing `addr` from a borrowed
    /// slice, copying in place when the block already exists.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the block size in words.
    pub fn write_block_from(&mut self, addr: Address, data: &[u64]) {
        assert_eq!(
            data.len(),
            self.block_words,
            "block data must be exactly {} words",
            self.block_words
        );
        let base = self.block_base(addr);
        match self.blocks.get_mut(&base) {
            Some(block) => block.copy_from_slice(data),
            None => {
                self.blocks.insert(base, data.into());
            }
        }
    }

    /// Reads the aligned 64-bit word containing `addr`.
    pub fn read_word(&self, addr: Address) -> u64 {
        let base = self.block_base(addr);
        match self.blocks.get(&base) {
            Some(block) => block[self.word_index(addr)],
            None => 0,
        }
    }

    /// Writes the aligned 64-bit word containing `addr`, materializing the
    /// block if needed.
    pub fn write_word(&mut self, addr: Address, value: u64) {
        let base = self.block_base(addr);
        let idx = self.word_index(addr);
        let words = self.block_words;
        let block = self
            .blocks
            .entry(base)
            .or_insert_with(|| vec![0; words].into_boxed_slice());
        block[idx] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = MainMemory::new(32);
        assert_eq!(mem.read_word(Address::new(0)), 0);
        assert_eq!(mem.read_word(Address::new(0xffff_fff8)), 0);
        assert_eq!(mem.read_block_ref(Address::new(0x123000)), &[0; 4]);
        assert_eq!(mem.resident_blocks(), 0);
    }

    #[test]
    fn word_writes_land_in_the_right_slot() {
        let mut mem = MainMemory::new(32);
        mem.write_word(Address::new(0x100), 1);
        mem.write_word(Address::new(0x108), 2);
        mem.write_word(Address::new(0x118), 4);
        assert_eq!(mem.read_block_ref(Address::new(0x100)), &[1, 2, 0, 4]);
        assert_eq!(mem.resident_blocks(), 1);
    }

    #[test]
    fn unaligned_word_access_uses_containing_word() {
        let mut mem = MainMemory::new(32);
        mem.write_word(Address::new(0x105), 9); // within word 0 of block 0x100
        assert_eq!(mem.read_word(Address::new(0x100)), 9);
        assert_eq!(mem.read_word(Address::new(0x107)), 9);
    }

    #[test]
    fn block_write_replaces_contents() {
        let mut mem = MainMemory::new(32);
        mem.write_word(Address::new(0x40), 5);
        mem.write_block_from(Address::new(0x47), &[10, 11, 12, 13]);
        assert_eq!(mem.read_word(Address::new(0x40)), 10);
        assert_eq!(mem.read_word(Address::new(0x58)), 13);
    }

    #[test]
    fn block_write_from_slice_copies_in_place() {
        let mut mem = MainMemory::new(32);
        mem.write_block_from(Address::new(0x40), &[1, 2, 3, 4]);
        assert_eq!(mem.read_block_ref(Address::new(0x40)), &[1, 2, 3, 4]);
        mem.write_block_from(Address::new(0x40), &[5, 6, 7, 8]);
        assert_eq!(mem.read_block_ref(Address::new(0x40)), &[5, 6, 7, 8]);
        assert_eq!(mem.resident_blocks(), 1);
    }

    #[test]
    fn block_read_into_copies_and_zero_fills() {
        let mut mem = MainMemory::new(32);
        let mut buf = vec![99; 4];
        mem.read_block_into(Address::new(0x40), &mut buf);
        assert_eq!(buf, vec![0; 4], "untouched block reads zero");
        mem.write_word(Address::new(0x48), 7);
        mem.read_block_into(Address::new(0x40), &mut buf);
        assert_eq!(buf, vec![0, 7, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "exactly 4 words")]
    fn block_write_rejects_wrong_size() {
        let mut mem = MainMemory::new(32);
        mem.write_block_from(Address::new(0), &[0; 3]);
    }

    #[test]
    #[should_panic(expected = "exactly 4 words")]
    fn block_read_into_rejects_wrong_size() {
        let mem = MainMemory::new(32);
        let mut buf = vec![0; 3];
        mem.read_block_into(Address::new(0), &mut buf);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_bad_block_size() {
        let _ = MainMemory::new(12);
    }

    #[test]
    fn different_blocks_are_independent() {
        let mut mem = MainMemory::new(64);
        mem.write_word(Address::new(0x0), 1);
        mem.write_word(Address::new(0x40), 2);
        assert_eq!(mem.read_word(Address::new(0x0)), 1);
        assert_eq!(mem.read_word(Address::new(0x40)), 2);
        assert_eq!(mem.resident_blocks(), 2);
    }
}
