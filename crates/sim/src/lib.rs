//! # cache8t-sim — value-carrying set-associative cache substrate
//!
//! This crate is the cache-simulation substrate of the `cache8t` workspace,
//! a from-scratch reproduction of *"Performance and Power Solutions for
//! Caches Using 8T SRAM Cells"* (Farahani & Baniasadi, MICRO 2012).
//!
//! The paper evaluates its techniques with a Pin-based L1 data-cache
//! simulator. Two properties of that simulator matter and are reproduced
//! here:
//!
//! 1. **The cache carries data values**, not just tags. Silent-write
//!    detection (paper §4.1) compares the value being written against the
//!    value already stored, so a tag-only simulator cannot express the
//!    technique. [`DataCache`] stores every cache block as 64-bit words.
//! 2. **Replacement and geometry are configurable** (the paper sweeps cache
//!    size and block size in §5.3). [`CacheGeometry`] validates arbitrary
//!    power-of-two configurations and [`ReplacementKind`] provides LRU (the
//!    paper's policy) plus FIFO/Random/Tree-PLRU for sensitivity studies.
//!
//! The higher-level crates build on this one: `cache8t-core` implements the
//! RMW / WG / WG+RB controllers on top of [`DataCache`] + [`MainMemory`],
//! and `cache8t-trace` generates the request streams.
//!
//! ## Example
//!
//! ```
//! use cache8t_sim::{Address, CacheGeometry, DataCache, MainMemory, ReplacementKind};
//!
//! # fn main() -> Result<(), cache8t_sim::GeometryError> {
//! // The paper's baseline L1D: 64 KB, 4-way, 32 B blocks, LRU.
//! let geometry = CacheGeometry::new(64 * 1024, 4, 32)?;
//! let mut cache = DataCache::new(geometry, ReplacementKind::Lru);
//! let memory = MainMemory::new(geometry.block_bytes());
//!
//! let addr = Address::new(0x1040);
//! assert!(cache.probe(addr).is_none()); // cold miss
//! let base = geometry.block_base(addr);
//! let mut victim = Vec::new();
//! let slot = cache.fill_into(base, memory.read_block_ref(base), &mut victim);
//! assert_eq!(cache.probe(addr), Some(slot.way));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod address;
mod cache;
mod error;
mod geometry;
mod hash;
pub mod kernels;
mod memory;
mod replacement;
mod stats;

pub use address::{AccessKind, Address};
pub use cache::{DataCache, EvictedMeta, FillSlot, LineView, SetView};
pub use error::GeometryError;
pub use geometry::CacheGeometry;
pub use hash::{FastHasher, FastMap, FastSet};
pub use memory::MainMemory;
pub use replacement::ReplacementKind;
pub use stats::CacheStats;
