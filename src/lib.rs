//! # cache8t — facade crate
//!
//! Re-exports the whole workspace: a from-scratch reproduction of
//! *"Performance and Power Solutions for Caches Using 8T SRAM Cells"*
//! (Farahani & Baniasadi, MICRO 2012). See the repository README for the
//! architecture overview and `DESIGN.md` for the paper-to-module map.
//!
//! - [`sim`]: value-carrying set-associative cache substrate.
//! - [`sram`]: bit-accurate 8T/6T SRAM arrays with RMW sequencing.
//! - [`trace`]: SPEC-CPU2006-calibrated workload generators.
//! - [`core`]: the paper's contribution — Write Grouping (WG) and Write
//!   Grouping + Read Bypassing (WG+RB) controllers, plus baselines.
//! - [`energy`]: CACTI-style area/energy model and DVFS support.
//! - [`cpu`]: port-contention timing model.
//! - [`obs`]: metric registry, structured event tracing
//!   (`CACHE8T_TRACE`), and spans: one RAII guard
//!   ([`obs::timeline::Span`]) feeding both the per-phase profile
//!   report and the Chrome-trace execution timeline.
//! - [`exec`]: parallel sweep-execution engine — a job pool whose
//!   workers share one cursor over the job list, one job per profile
//!   replaying its trace once through every geometry and scheme,
//!   crash-isolated experiment runner (`cache8t sweep`).
//! - [`conform`]: differential conformance harness — lockstep oracle
//!   replay against a golden memory, invariant checking, and seeded
//!   trace fuzzing with reproducer shrinking (`cache8t check`).
//! - [`serve`]: sweep-as-a-service daemon — versioned JSONL protocol
//!   over TCP/unix sockets, checkpoint-journalled resumable sweeps
//!   (`cache8t serve` / `cache8t client`).
//!
//! ## Quickstart
//!
//! ```
//! use cache8t::core::{Controller, RmwController, WgRbController};
//! use cache8t::sim::{CacheGeometry, ReplacementKind};
//! use cache8t::trace::{profiles, ProfiledGenerator, TraceGenerator};
//!
//! let geometry = CacheGeometry::paper_baseline();
//! let profile = profiles::by_name("bwaves").expect("bwaves is in the suite");
//! let trace = ProfiledGenerator::new(profile, geometry, 1).collect(20_000);
//!
//! let mut rmw = RmwController::new(geometry, ReplacementKind::Lru);
//! let mut wgrb = WgRbController::new(geometry, ReplacementKind::Lru);
//! for op in &trace {
//!     rmw.access(op);
//!     wgrb.access(op);
//! }
//! // WG+RB issues fewer SRAM array accesses than plain RMW.
//! assert!(wgrb.array_accesses() < rmw.array_accesses());
//! ```

pub use cache8t_conform as conform;
pub use cache8t_core as core;
pub use cache8t_cpu as cpu;
pub use cache8t_energy as energy;
pub use cache8t_exec as exec;
pub use cache8t_obs as obs;
pub use cache8t_serve as serve;
pub use cache8t_sim as sim;
pub use cache8t_sram as sram;
pub use cache8t_trace as trace;
