//! In-memory span recording and per-name self-time derivation.
//!
//! A span is one timed call into a layer: its name, start and end on a
//! shared monotonic clock, the span that caused it, the pass or job it
//! belongs to, the thread it ran on, and the ops it covered. Spans are
//! per chunk, sub-batch, window or job, never per op, so recording
//! costs a clock read and a vector push per unit of work.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The replay (consumer) thread of a pass.
pub const MAIN: u32 = 0;
/// The prefetch (producer) thread of a streamed pass.
pub const PREFETCH: u32 = 1;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the recorder.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer call name, e.g. `trace.decode`.
    pub name: &'static str,
    /// Pass or job id every span of one pass shares.
    pub group: u64,
    /// [`MAIN`] or [`PREFETCH`].
    pub thread: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Ops the call covered (0 where the call is not per-op work).
    pub ops: u64,
}

impl Span {
    /// Inclusive duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where a span sits: its parent, its pass or job, and its thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    /// The causing span.
    pub parent: Option<u64>,
    /// Pass or job id.
    pub group: u64,
    /// [`MAIN`] or [`PREFETCH`].
    pub thread: u32,
}

impl Site {
    /// A child of the root `group` on `thread`.
    pub fn under(group: u64, thread: u32) -> Site {
        Site {
            parent: Some(group),
            group,
            thread,
        }
    }

    /// The root span of `group`.
    pub fn root(group: u64) -> Site {
        Site {
            parent: None,
            group,
            thread: MAIN,
        }
    }
}

/// A cloneable handle on one shared span buffer; clones record into the
/// same buffer from any thread.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    next_id: Arc<AtomicU64>,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: Arc::new(AtomicU64::new(1)),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves an id for a span whose children are recorded before it
    /// closes (pass and job roots).
    pub fn reserve(&self) -> u64 {
        // A plain id allocator: no other data is published through it.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span from `start_ns` to now under a fresh id.
    pub fn push(&self, site: Site, name: &'static str, start_ns: u64, ops: u64) -> u64 {
        let id = self.reserve();
        self.record(id, site, name, start_ns, self.now(), ops);
        id
    }

    /// Records a span from `start_ns` to now under an id taken from
    /// [`Recorder::reserve`].
    pub fn close(&self, id: u64, site: Site, name: &'static str, start_ns: u64, ops: u64) {
        self.record(id, site, name, start_ns, self.now(), ops);
    }

    /// Records a span with explicit bounds under a fresh id.
    pub fn push_between(
        &self,
        site: Site,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        ops: u64,
    ) {
        self.record(self.reserve(), site, name, start_ns, end_ns, ops);
    }

    fn record(
        &self,
        id: u64,
        site: Site,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        ops: u64,
    ) {
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent: site.parent,
            name,
            group: site.group,
            thread: site.thread,
            start_ns,
            end_ns,
            ops,
        });
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Self time and work of every span carrying one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans with the name.
    pub calls: u64,
    /// Summed self time: each span's duration minus the part of it its
    /// same-thread children cover.
    pub self_ns: u64,
    /// Summed ops.
    pub ops: u64,
}

impl LayerTotals {
    /// Self time per op, or 0 with no ops.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.ops as f64
        }
    }

    /// Mean self time per call in nanoseconds, or 0 with no calls.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Folds spans into per-name totals. Children on another thread run
/// concurrently with their parent, so only same-thread children are
/// subtracted; same-thread children never overlap one another.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    let thread_of: BTreeMap<u64, u32> = spans.iter().map(|s| (s.id, s.thread)).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            if thread_of.get(&parent) == Some(&span.thread) {
                *covered.entry(parent).or_default() += span.duration_ns();
            }
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for span in spans {
        let entry = totals.entry(span.name).or_default();
        entry.calls += 1;
        entry.ops += span.ops;
        entry.self_ns += span
            .duration_ns()
            .saturating_sub(covered.get(&span.id).copied().unwrap_or(0));
    }
    totals
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"group\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
            s.id, parent, s.name, s.group, s.thread, s.start_ns, s.end_ns, s.ops
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        thread: u32,
        start: u64,
        end: u64,
        ops: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            group: 1,
            thread,
            start_ns: start,
            end_ns: end,
            ops,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = vec![
            span(1, None, "pass", MAIN, 0, 100, 0),
            span(2, Some(1), "decode", MAIN, 10, 30, 8),
            span(3, Some(1), "batch", MAIN, 30, 70, 8),
            // Runs on the prefetch thread, concurrently with the parent.
            span(4, Some(1), "generate", PREFETCH, 0, 90, 8),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(totals["pass"].self_ns, 40);
        assert_eq!(totals["decode"].self_ns, 20);
        assert_eq!(totals["batch"].self_ns, 40);
        assert_eq!(totals["generate"].self_ns, 90);
        assert_eq!(totals["batch"].ns_per_op(), 5.0);
    }

    #[test]
    fn totals_fold_calls_and_ops_per_name() {
        let spans = vec![
            span(1, None, "wait", MAIN, 0, 10, 4),
            span(2, None, "wait", MAIN, 20, 25, 6),
        ];
        let totals = layer_totals(&spans);
        assert_eq!(
            totals["wait"],
            LayerTotals {
                calls: 2,
                self_ns: 15,
                ops: 10
            }
        );
        assert_eq!(totals["wait"].ns_per_call(), 7.5);
    }

    #[test]
    fn recorder_links_reserved_parents() {
        let rec = Recorder::new();
        let root = rec.reserve();
        let start = rec.now();
        let child = rec.push(Site::under(root, MAIN), "child", start, 3);
        rec.close(root, Site::root(root), "root", start, 0);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, child);
        assert_eq!(spans[0].parent, Some(root));
        assert!(to_jsonl(&spans).lines().all(|l| l.starts_with("{\"id\":")));
    }
}
