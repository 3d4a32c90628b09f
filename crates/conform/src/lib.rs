//! # cache8t-conform — the differential conformance harness
//!
//! The paper's central functional claim (§4–§5) is that Write Grouping
//! and Read Bypassing are *transparent*: every read returns the same
//! value the conventional 6T or RMW cache would return, silent-write
//! suppression never drops a dirty block, and buffer bypassing never
//! serves stale data. This crate *proves* that claim for a concrete
//! trace by replaying it in lockstep through every scheme plus a flat
//! golden-memory reference model, checking three families of laws:
//!
//! 1. **Value equivalence** — per-op read values and post-`flush`
//!    [`peek_word`](cache8t_core::Controller::peek_word) images must
//!    match the golden model for every scheme.
//! 2. **Stat conservation** — hits + misses = accesses per scheme, all
//!    schemes agree on the full [`CacheStats`](cache8t_sim::CacheStats),
//!    line fills are scheme-independent, and array traffic obeys the
//!    paper's ordering (6T ≤ RMW, WG ≤ RMW, WG+RB ≤ WG).
//! 3. **Buffer coherence** — every Tag-Buffer entry mirrors a valid
//!    cache line, and a clear Dirty bit implies the Set-Buffer holds
//!    exactly the array's data.
//!
//! Every violation becomes a structured [`Divergence`];
//! [`ConformReport::write_trace_jsonl`] writes each one as a
//! [`Component::Conform`]/[`EventKind::Divergence`] trace event. Every
//! scheme is built through [`SchemeKind::build_on`], the workspace's one
//! construction path, and the WG schemes' Set-Buffers are reached through
//! [`Controller::as_wg`]. The [`fuzz`] module drives [`replay`] with
//! seeded random traces and shrinks any failure to a minimal reproducer.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod fuzz;

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};

use cache8t_core::{CacheBackend, Controller, SchemeKind, WgFault};
use cache8t_obs::{trace, Component, EventKind, TraceEvent};
use cache8t_sim::{Address, CacheGeometry, ReplacementKind};
use cache8t_trace::Trace;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ConformConfig {
    /// Cache geometry every scheme is instantiated at.
    pub geometry: CacheGeometry,
    /// Replacement policy (shared — it must be, for lockstep equality).
    pub replacement: ReplacementKind,
    /// The schemes to replay, in order. The first is the hit/miss
    /// reference.
    pub schemes: Vec<SchemeKind>,
    /// Stop recording divergences after this many (the replay still
    /// runs to completion so stats stay meaningful).
    pub max_divergences: usize,
    /// Arm this fault in every WG/WG+RB controller — self-test hook used
    /// to prove the harness catches real equivalence bugs.
    pub wg_fault: Option<WgFault>,
}

impl ConformConfig {
    /// The default configuration at `geometry`: all five schemes, LRU,
    /// a 64-divergence cap, no fault.
    pub fn new(geometry: CacheGeometry) -> Self {
        ConformConfig {
            geometry,
            replacement: ReplacementKind::Lru,
            schemes: SchemeKind::suite(4).to_vec(),
            max_divergences: 64,
            wg_fault: None,
        }
    }
}

/// Which law a [`Divergence`] violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DivergenceKind {
    /// A scheme returned the wrong value for an access.
    ValueMismatch,
    /// A scheme disagreed with the reference scheme on hit/miss.
    HitDisagreement,
    /// After `flush`, `peek_word` disagreed with the golden memory.
    FinalValue,
    /// Schemes ended the replay with different `CacheStats`.
    StatsMismatch,
    /// A per-scheme counter law failed (hits+misses=accesses,
    /// eviction bounds, accesses = ops replayed).
    ConservationLaw,
    /// Cross-scheme traffic ordering failed (e.g. WG wrote the array
    /// more often than RMW) or line fills were scheme-dependent.
    TrafficOrdering,
    /// A Tag-Buffer entry names a tag the cache set does not hold.
    BufferTagGhost,
    /// The Dirty bit is clear but the Set-Buffer differs from the
    /// array — exactly the state that loses data on a silent elision.
    BufferStaleClean,
}

impl DivergenceKind {
    /// Stable discriminant carried in the trace event's `detail` field.
    pub fn discriminant(self) -> u64 {
        match self {
            DivergenceKind::ValueMismatch => 0,
            DivergenceKind::HitDisagreement => 1,
            DivergenceKind::FinalValue => 2,
            DivergenceKind::StatsMismatch => 3,
            DivergenceKind::ConservationLaw => 4,
            DivergenceKind::TrafficOrdering => 5,
            DivergenceKind::BufferTagGhost => 6,
            DivergenceKind::BufferStaleClean => 7,
        }
    }

    /// Short kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::ValueMismatch => "value-mismatch",
            DivergenceKind::HitDisagreement => "hit-disagreement",
            DivergenceKind::FinalValue => "final-value",
            DivergenceKind::StatsMismatch => "stats-mismatch",
            DivergenceKind::ConservationLaw => "conservation-law",
            DivergenceKind::TrafficOrdering => "traffic-ordering",
            DivergenceKind::BufferTagGhost => "buffer-tag-ghost",
            DivergenceKind::BufferStaleClean => "buffer-stale-clean",
        }
    }
}

/// One observed disagreement between a scheme and the golden model (or
/// between schemes).
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the op being replayed when the divergence was seen;
    /// `ops_replayed` for end-of-run checks.
    pub op_index: u64,
    /// Label of the diverging scheme.
    pub scheme: String,
    /// The violated law.
    pub kind: DivergenceKind,
    /// The address involved (0 when not address-specific).
    pub addr: u64,
    /// The value the law requires.
    pub expected: u64,
    /// The value observed.
    pub actual: u64,
    /// Human-readable context.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op {} [{}] {}: {} (expected {:#x}, got {:#x}, addr {:#x})",
            self.op_index,
            self.scheme,
            self.kind.name(),
            self.detail,
            self.expected,
            self.actual,
            self.addr
        )
    }
}

/// The outcome of one lockstep replay.
#[derive(Debug)]
pub struct ConformReport {
    /// Ops replayed through every scheme.
    pub ops_replayed: u64,
    /// Labels of the replayed schemes, in configuration order.
    pub schemes: Vec<String>,
    /// Recorded divergences (capped at `max_divergences`).
    pub divergences: Vec<Divergence>,
    /// Divergences observed beyond the cap (recorded only as a count).
    pub suppressed: u64,
}

impl ConformReport {
    /// `true` when no law was violated.
    pub fn pass(&self) -> bool {
        self.divergences.is_empty() && self.suppressed == 0
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        if self.pass() {
            format!(
                "conformance PASS: {} ops x {} schemes, 0 divergences",
                self.ops_replayed,
                self.schemes.len()
            )
        } else {
            format!(
                "conformance FAIL: {} ops x {} schemes, {} divergence(s){}",
                self.ops_replayed,
                self.schemes.len(),
                self.divergences.len(),
                if self.suppressed > 0 {
                    format!(" (+{} suppressed)", self.suppressed)
                } else {
                    String::new()
                }
            )
        }
    }

    /// Writes one [`Component::Conform`]/[`EventKind::Divergence`] trace
    /// event per recorded divergence, in order, as JSONL (the
    /// `cache8t check --trace-out` format): stamped with the op index,
    /// carrying the address and the kind's
    /// [`discriminant`](DivergenceKind::discriminant).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_trace_jsonl<W: Write>(&self, writer: W) -> io::Result<()> {
        let events = self.divergences.iter().map(|d| {
            TraceEvent::new(
                d.op_index,
                Component::Conform,
                EventKind::Divergence,
                d.addr,
                d.kind.discriminant(),
            )
        });
        trace::write_jsonl(events, writer)
    }
}

/// Collects divergences up to a cap.
struct Recorder {
    divergences: Vec<Divergence>,
    suppressed: u64,
    max: usize,
}

impl Recorder {
    fn new(max: usize) -> Self {
        Recorder {
            divergences: Vec::new(),
            suppressed: 0,
            max,
        }
    }

    fn record(&mut self, d: Divergence) {
        if self.divergences.len() >= self.max {
            self.suppressed += 1;
            return;
        }
        self.divergences.push(d);
    }
}

/// Replays `trace` in lockstep through every configured scheme and a
/// flat golden memory, checking value equivalence, stat conservation,
/// and buffer coherence. See the [crate docs](crate) for the invariant
/// catalogue.
pub fn replay(trace: &Trace, config: &ConformConfig) -> ConformReport {
    assert!(
        !config.schemes.is_empty(),
        "at least one scheme is required"
    );
    let mut controllers: Vec<(String, Box<dyn Controller>)> = config
        .schemes
        .iter()
        .map(|&id| {
            let mut ctrl = id.build_on(CacheBackend::new(config.geometry, config.replacement));
            if let Some(wg) = ctrl.as_wg_mut() {
                wg.inject_fault(config.wg_fault);
            }
            (id.to_string(), ctrl)
        })
        .collect();
    let mut rec = Recorder::new(config.max_divergences);
    let ref_label = config.schemes[0].to_string();

    // The golden model: a flat word-addressed memory, zero-initialized
    // like MainMemory. `touched` keys every address the trace used so
    // the final sweep also covers read-only locations.
    let mut golden: BTreeMap<u64, u64> = BTreeMap::new();
    let mut touched: BTreeMap<u64, ()> = BTreeMap::new();

    for (i, op) in trace.iter().enumerate() {
        let op_index = i as u64;
        touched.insert(op.addr.raw(), ());
        let expected = if op.is_read() {
            golden.get(&op.addr.raw()).copied().unwrap_or(0)
        } else {
            golden.insert(op.addr.raw(), op.value);
            op.value
        };

        let mut reference_hit: Option<bool> = None;
        for (label, ctrl) in &mut controllers {
            let response = ctrl.access(op);
            if response.value != expected {
                rec.record(Divergence {
                    op_index,
                    scheme: label.clone(),
                    kind: DivergenceKind::ValueMismatch,
                    addr: op.addr.raw(),
                    expected,
                    actual: response.value,
                    detail: format!("{op} returned the wrong value"),
                });
            }
            match reference_hit {
                None => reference_hit = Some(response.hit),
                Some(reference) => {
                    if response.hit != reference {
                        rec.record(Divergence {
                            op_index,
                            scheme: label.clone(),
                            kind: DivergenceKind::HitDisagreement,
                            addr: op.addr.raw(),
                            expected: u64::from(reference),
                            actual: u64::from(response.hit),
                            detail: format!("hit/miss disagrees with {ref_label} for {op}"),
                        });
                    }
                }
            }
        }

        for (label, ctrl) in &controllers {
            check_buffer_coherence(label, ctrl.as_ref(), op_index, &mut rec);
        }
        if rec.divergences.len() >= rec.max && rec.suppressed > 0 {
            // Already past the cap and still diverging: the prefix is
            // long since damning, stop burning time.
            break;
        }
    }

    let ops_replayed = trace.len() as u64;
    for (_, ctrl) in &mut controllers {
        ctrl.flush();
    }

    // Final architectural image: every touched word must match golden.
    for (&raw, ()) in &touched {
        let expected = golden.get(&raw).copied().unwrap_or(0);
        for (label, ctrl) in &controllers {
            let actual = ctrl.peek_word(Address::new(raw));
            if actual != expected {
                rec.record(Divergence {
                    op_index: ops_replayed,
                    scheme: label.clone(),
                    kind: DivergenceKind::FinalValue,
                    addr: raw,
                    expected,
                    actual,
                    detail: "post-flush peek_word disagrees with golden memory".to_string(),
                });
            }
        }
    }

    check_stat_laws(&controllers, ops_replayed, &mut rec);

    ConformReport {
        ops_replayed,
        schemes: controllers.iter().map(|(l, _)| l.clone()).collect(),
        divergences: rec.divergences,
        suppressed: rec.suppressed,
    }
}

/// Buffer-coherence invariants for a WG/WG+RB controller:
/// every Tag-Buffer entry mirrors a valid cache line with that tag, and
/// a clear Dirty bit implies the Set-Buffer equals the array image.
fn check_buffer_coherence(label: &str, ctrl: &dyn Controller, op_index: u64, rec: &mut Recorder) {
    let Some(wg) = ctrl.as_wg() else {
        return;
    };
    let cache = wg.cache();
    for view in wg.buffer_views() {
        let set = cache.set(view.set_index());
        for (way, tag) in view.tags().iter().enumerate() {
            let Some(tag) = *tag else { continue };
            let line = set.line(way);
            if !line.is_valid() || line.tag() != tag {
                rec.record(Divergence {
                    op_index,
                    scheme: label.to_string(),
                    kind: DivergenceKind::BufferTagGhost,
                    addr: view.set_index(),
                    expected: tag,
                    actual: if line.is_valid() {
                        line.tag()
                    } else {
                        u64::MAX
                    },
                    detail: format!(
                        "Tag-Buffer way {way} of set {} names a tag the cache does not hold",
                        view.set_index()
                    ),
                });
                continue;
            }
            // Clean buffer ⟹ buffered data equals the array copy.
            // (The converse does not hold: an ABA rewrite leaves the
            // Dirty bit set with data that happens to match.)
            if !view.dirty() && view.way_data(way) != line.data() {
                let word = view
                    .way_data(way)
                    .iter()
                    .zip(line.data())
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                rec.record(Divergence {
                    op_index,
                    scheme: label.to_string(),
                    kind: DivergenceKind::BufferStaleClean,
                    addr: view.set_index(),
                    expected: line.data()[word],
                    actual: view.way_data(way)[word],
                    detail: format!(
                        "Dirty bit clear but Set-Buffer way {way} word {word} differs from the array"
                    ),
                });
            }
        }
    }
}

/// End-of-run stat conservation and cross-scheme traffic laws.
fn check_stat_laws(
    controllers: &[(String, Box<dyn Controller>)],
    ops_replayed: u64,
    rec: &mut Recorder,
) {
    let end = Divergence {
        op_index: ops_replayed,
        scheme: String::new(),
        kind: DivergenceKind::ConservationLaw,
        addr: 0,
        expected: 0,
        actual: 0,
        detail: String::new(),
    };

    // Per-scheme laws.
    for (label, ctrl) in controllers {
        let stats = ctrl.stats();
        if let Err(law) = stats.check_conservation() {
            rec.record(Divergence {
                scheme: label.clone(),
                detail: law,
                ..end.clone()
            });
        }
        if stats.accesses() != ops_replayed {
            rec.record(Divergence {
                scheme: label.clone(),
                expected: ops_replayed,
                actual: stats.accesses(),
                detail: "stats.accesses() != ops replayed".to_string(),
                ..end.clone()
            });
        }
    }

    // Cross-scheme laws. The reference is the first scheme.
    let (ref_label, ref_ctrl) = &controllers[0];
    let ref_stats = *ref_ctrl.stats();
    let ref_fills = ref_ctrl.traffic().line_fills;
    for (label, ctrl) in &controllers[1..] {
        if *ctrl.stats() != ref_stats {
            rec.record(Divergence {
                scheme: label.clone(),
                kind: DivergenceKind::StatsMismatch,
                detail: format!(
                    "CacheStats diverge from {ref_label}: {} vs {}",
                    ctrl.stats(),
                    ref_stats
                ),
                ..end.clone()
            });
        }
        let fills = ctrl.traffic().line_fills;
        if fills != ref_fills {
            rec.record(Divergence {
                scheme: label.clone(),
                kind: DivergenceKind::TrafficOrdering,
                expected: ref_fills,
                actual: fills,
                detail: format!("line fills diverge from {ref_label}"),
                ..end.clone()
            });
        }
    }

    // Array-traffic ordering between the paper's schemes, when present.
    let find = |want: &str| {
        controllers
            .iter()
            .find(|(l, _)| l == want)
            .map(|(_, c)| c.as_ref())
    };
    let (six_t, rmw, wg, wgrb) = (find("6T"), find("RMW"), find("WG"), find("WG+RB"));
    let mut ordering = |name: &str, lhs: u64, rhs: u64, scheme: &str| {
        if lhs > rhs {
            rec.record(Divergence {
                scheme: scheme.to_string(),
                kind: DivergenceKind::TrafficOrdering,
                expected: rhs,
                actual: lhs,
                detail: name.to_string(),
                ..end.clone()
            });
        }
    };
    if let (Some(six_t), Some(rmw)) = (six_t, rmw) {
        ordering(
            "6T array accesses exceed RMW's",
            six_t.array_accesses(),
            rmw.array_accesses(),
            "6T",
        );
    }
    if let (Some(wg), Some(rmw)) = (wg, rmw) {
        ordering(
            "WG array accesses exceed RMW's",
            wg.array_accesses(),
            rmw.array_accesses(),
            "WG",
        );
        ordering(
            "WG array writes exceed RMW's",
            wg.traffic().write_port_activations(),
            rmw.traffic().write_port_activations(),
            "WG",
        );
    }
    if let (Some(wgrb), Some(wg)) = (wgrb, wg) {
        ordering(
            "WG+RB array accesses exceed WG's",
            wgrb.array_accesses(),
            wg.array_accesses(),
            "WG+RB",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_trace::MemOp;

    fn tiny() -> CacheGeometry {
        CacheGeometry::new(256, 2, 32).expect("valid test geometry")
    }

    fn trace_of(ops: Vec<MemOp>) -> Trace {
        let n = ops.len() as u64;
        Trace::new(ops, n)
    }

    #[test]
    fn healthy_schemes_pass_a_conflict_heavy_trace() {
        // Writes and reads over colliding sets with silent rewrites.
        let mut ops = Vec::new();
        for i in 0..200u64 {
            let addr = Address::new((i * 13 % 64) * 8);
            if i % 3 == 0 {
                ops.push(MemOp::read(addr));
            } else {
                ops.push(MemOp::write(addr, i % 4));
            }
        }
        let report = replay(&trace_of(ops), &ConformConfig::new(tiny()));
        assert!(
            report.pass(),
            "unexpected divergences: {:?}",
            report.divergences
        );
        assert_eq!(report.ops_replayed, 200);
        assert_eq!(report.schemes.len(), 5);
        let mut events = Vec::new();
        report
            .write_trace_jsonl(&mut events)
            .expect("in-memory write");
        assert!(events.is_empty(), "no events on a clean run");
    }

    #[test]
    fn injected_dirty_bit_fault_is_caught() {
        let mut config = ConformConfig::new(tiny());
        config.wg_fault = Some(WgFault::SkipDirtyBit);
        // A non-silent write followed by an eviction of the buffer: the
        // faulty WG elides the write-back and loses the value.
        let ops = vec![
            MemOp::write(Address::new(0x20), 3),
            MemOp::write(Address::new(0x00), 1),
            MemOp::read(Address::new(0x20)),
        ];
        let report = replay(&trace_of(ops), &config);
        assert!(!report.pass());
        assert!(
            report
                .divergences
                .iter()
                .any(|d| d.kind == DivergenceKind::ValueMismatch
                    || d.kind == DivergenceKind::FinalValue
                    || d.kind == DivergenceKind::BufferStaleClean),
            "expected a value or coherence divergence, got {:?}",
            report.divergences
        );
        // Each recorded divergence has a matching structured event.
        let mut jsonl = Vec::new();
        report
            .write_trace_jsonl(&mut jsonl)
            .expect("in-memory write");
        let events: Vec<TraceEvent> = String::from_utf8(jsonl)
            .expect("utf-8")
            .lines()
            .map(|line| trace::parse_jsonl_line(line).expect("event line"))
            .collect();
        assert_eq!(events.len(), report.divergences.len());
        assert!(events
            .iter()
            .all(|e| e.component == Component::Conform && e.kind == EventKind::Divergence));
    }

    #[test]
    fn divergence_cap_suppresses_but_counts() {
        let mut config = ConformConfig::new(tiny());
        config.wg_fault = Some(WgFault::SkipDirtyBit);
        config.max_divergences = 2;
        let mut ops = Vec::new();
        for i in 0..100u64 {
            ops.push(MemOp::write(Address::new((i % 64) * 8), i + 1));
        }
        for i in 0..64u64 {
            ops.push(MemOp::read(Address::new(i * 8)));
        }
        let report = replay(&trace_of(ops), &config);
        assert!(!report.pass());
        assert!(report.divergences.len() <= 2);
        assert!(report.suppressed > 0, "the cap must count what it drops");
        assert!(report.summary().contains("suppressed"));
    }
}
