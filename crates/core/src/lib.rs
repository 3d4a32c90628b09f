//! # cache8t-core — Write Grouping and Read Bypassing for 8T SRAM caches
//!
//! This crate is the primary contribution of *"Performance and Power
//! Solutions for Caches Using 8T SRAM Cells"* (Farahani & Baniasadi, MICRO
//! 2012), reimplemented from scratch:
//!
//! - [`ConventionalController`] — a 6T-style cache where a write is a
//!   single array access (the reference the paper measures RMW's traffic
//!   increase against);
//! - [`RmwController`] — the 8T baseline: every write performs Morita et
//!   al.'s read-modify-write, costing an extra row read (paper §2);
//! - [`WgController`] — **Write Grouping** (paper §4.1): a Set-Buffer
//!   holding the most recently written cache set plus a Tag-Buffer in the
//!   controller; consecutive writes to the buffered set are grouped into
//!   one eventual RMW, and a Dirty bit suppresses the write-back entirely
//!   when every grouped write was silent;
//! - **Write Grouping + Read Bypassing** (paper §4.2): a [`WgController`]
//!   with [`WgOptions::read_bypass`] set, which [`WgRbController`] builds.
//!   It additionally serves reads that hit the Tag-Buffer straight from
//!   the Set-Buffer, eliminating both the premature write-back and the
//!   array read.
//!
//! [`SchemeKind`] names them all: it parses a scheme name (`wg+rb`,
//! `coalesce:8`), displays it, and builds its controller. It is the one
//! construction path, so a new scheme is its controller and one
//! `SchemeKind` arm.
//!
//! All controllers implement [`Controller`] over a [`CacheBackend`]: the
//! same value-carrying cache + backing memory from `cache8t-sim`, and
//! the [`ArrayTraffic`] ledger each controller's SRAM-array traffic is
//! counted in — the quantity behind the paper's Figures 9–11, totalled
//! the paper's way (demand accesses only) by [`ArrayTraffic::total`].
//! Functional correctness (every read returns the last value written) is
//! enforced by [`Controller::peek_word`]-based oracle tests and property
//! tests in this crate.
//!
//! ## Example
//!
//! ```
//! use cache8t_core::{Controller, RmwController, WgController};
//! use cache8t_sim::{Address, CacheGeometry, ReplacementKind};
//! use cache8t_trace::MemOp;
//!
//! let g = CacheGeometry::paper_baseline();
//! let mut rmw = RmwController::new(g, ReplacementKind::Lru);
//! let mut wg = WgController::new(g, ReplacementKind::Lru);
//!
//! // Two consecutive writes to the same set: RMW pays twice, WG groups.
//! let a = Address::new(0x1000);
//! for ctrl in [&mut rmw as &mut dyn Controller, &mut wg] {
//!     ctrl.access(&MemOp::write(a, 1));
//!     ctrl.access(&MemOp::write(a.offset(8), 2));
//!     ctrl.flush();
//! }
//! assert_eq!(rmw.array_accesses(), 4); // 2 x (row read + row write)
//! assert_eq!(wg.array_accesses(), 2);  // 1 fill read + 1 write-back
//! assert_eq!(rmw.peek_word(a), wg.peek_word(a));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod coalescing;
mod controller;
mod conventional;
mod obs;
mod rmw;
mod scheme;
mod traffic;
mod wg;

pub use coalescing::CoalescingController;
pub use controller::{AccessCost, AccessResponse, CacheBackend, Controller, ResidencyOutcome};
pub use conventional::ConventionalController;
pub use obs::{StackObs, SET_HEAT_BUCKETS};
pub use rmw::RmwController;
pub use scheme::SchemeKind;
pub use traffic::ArrayTraffic;
pub use wg::{WgBufferView, WgController, WgFault, WgOptions, WgRbController};
