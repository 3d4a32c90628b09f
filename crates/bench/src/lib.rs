//! # cache8t-bench — figure/table regeneration harness
//!
//! One binary per figure/table of the paper (see `DESIGN.md` §4 for the
//! full index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig03_access_frequency` | Figure 3: read/write accesses per instruction |
//! | `fig04_consecutive_scenarios` | Figure 4: RR/RW/WR/WW same-set breakdown |
//! | `fig05_silent_writes` | Figure 5: silent write frequency |
//! | `motivation_rmw_traffic` | §1/§3: RMW traffic increase vs conventional |
//! | `fig09_access_reduction` | Figure 9: WG / WG+RB access reduction (baseline cache) |
//! | `fig10_blocksize_sensitivity` | Figure 10: 32 KB / 64 B blocks |
//! | `fig11_cachesize_sensitivity` | Figure 11: 32 KB and 128 KB |
//! | `table_area_overhead` | §5.4: Set-Buffer / Tag-Buffer overhead |
//! | `sram_rmw_walkthrough` | Figures 1–2: cell/array behaviour and the RMW sequence |
//! | `ext_performance` | extension E1: §5.5 performance arguments, quantified |
//! | `ext_power_dvfs` | extension E2: §5.5 power arguments + DVFS headroom |
//! | `ext_ablations` | extension E3: design-choice ablations |
//! | `ext_alternatives` | extension E4: §2 related work (coalescing buffer, local RMW, word-granularity writes) |
//! | `ext_soft_errors` | extension E5: burst upsets vs SEC-DED, with/without interleaving |
//! | `ext_sweeps` | extension E6: write-share / silent / WW-locality / associativity sweeps |
//! | `ext_context_switch` | extension E7: multiprogramming / context-switch sensitivity |
//! | `report_card` | scores every text-anchored paper claim PASS/FAIL (nonzero exit on failure) |
//!
//! The binaries that replay or generate traces take `--ops N` (default
//! 2,000,000) and `--seed S` (default 42); results are deterministic per
//! seed. Each binary names the [`cli::CommonArgs`] flags it reads and
//! rejects any other. This library crate holds the shared machinery: the
//! flag parser (which also runs suites on the sweep engine), the
//! experiment re-exports and output writers, and a plain-text table
//! printer. Every replay goes through `cache8t_exec::replay`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cli;
pub mod experiment;
pub mod table;
