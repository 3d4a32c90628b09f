//! Batched-replay conformance lockstep: servicing pre-decoded op batches
//! through `Controller::access_batch` must be bit-identical to servicing
//! the same ops one at a time through `access` — for all five schemes,
//! at several batch sizes, with the warm-up counter reset landing on and
//! off batch seams.
//!
//! This is the lock on the batched-kernel tentpole: any drift between
//! the decoded fast paths (branchless probe, pre-split set/tag/word
//! columns, block-granularity compares) and the per-op reference lands
//! here as a field-level diff.

use std::sync::Arc;

use cache8t::core::{Controller, SchemeKind};
use cache8t::exec::{replay, Ops};
use cache8t::sim::CacheGeometry;
use cache8t::trace::{DecodedBatch, ProfiledGenerator, Trace, TraceChunk, TraceGenerator};

const TOTAL_OPS: usize = 30_000;
const WARMUP_OPS: usize = 3_000;

fn materialized() -> Trace {
    let profile = cache8t::trace::profiles::by_name("gcc").expect("gcc profile");
    ProfiledGenerator::new(profile, CacheGeometry::paper_baseline(), 17).collect(TOTAL_OPS)
}

/// Everything a controller exposes after a replay, comparable — plus the
/// architecturally-visible word image at a sample of trace addresses, so
/// a fast path that corrupted buffered data (not just counters) is
/// caught too.
fn snapshot(controller: &dyn Controller, trace: &Trace) -> String {
    let words: Vec<u64> = trace
        .ops()
        .iter()
        .step_by(997)
        .map(|op| controller.peek_word(op.addr))
        .collect();
    format!(
        "{} | {:?} | {:?} | accesses={} | words={words:?}",
        controller.name(),
        controller.traffic(),
        controller.stats(),
        controller.array_accesses(),
    )
}

/// Per-op reference replay: the exact loop the batched paths must match.
fn replay_per_op(controller: &mut dyn Controller, trace: &Trace, warmup_ops: usize) {
    for (i, op) in trace.iter().enumerate() {
        if i == warmup_ops {
            controller.reset_counters();
        }
        controller.access(op);
    }
    controller.flush();
}

#[test]
fn access_batch_matches_per_op_for_all_schemes() {
    let trace = materialized();
    // 1_024 puts the warm-up reset exactly on a batch seam; 7_000 puts
    // it mid-batch; 64_000 is a single batch covering the whole trace.
    for batch_ops in [1_024usize, 7_000, 64_000] {
        for id in SchemeKind::suite(4) {
            let mut reference = id.build(CacheGeometry::paper_baseline());
            replay_per_op(reference.as_mut(), &trace, WARMUP_OPS);

            let mut batched = id.build(CacheGeometry::paper_baseline());
            let mut batch = DecodedBatch::new(CacheGeometry::paper_baseline());
            let mut index = 0usize;
            for sub in trace.ops().chunks(batch_ops) {
                let end = index + sub.len();
                batch.decode(sub);
                if index <= WARMUP_OPS && WARMUP_OPS < end {
                    let split = WARMUP_OPS - index;
                    batched.access_batch(&batch, 0..split);
                    batched.reset_counters();
                    batched.access_batch(&batch, split..sub.len());
                } else {
                    batched.access_batch(&batch, 0..sub.len());
                }
                index = end;
            }
            batched.flush();

            assert_eq!(
                snapshot(reference.as_ref(), &trace),
                snapshot(batched.as_ref(), &trace),
                "scheme {id} diverged at batch_ops={batch_ops}"
            );
        }
    }
}

#[test]
fn replay_helper_matches_per_op_for_all_schemes() {
    let trace = materialized();
    for id in SchemeKind::suite(4) {
        let mut reference = id.build(CacheGeometry::paper_baseline());
        replay_per_op(reference.as_mut(), &trace, WARMUP_OPS);

        // Whole-trace invocation, as a materialized run performs it.
        let mut whole = id.build(CacheGeometry::paper_baseline());
        replay(whole.as_mut(), Ops::Trace(&trace), WARMUP_OPS, None).unwrap();
        whole.flush();
        assert_eq!(
            snapshot(reference.as_ref(), &trace),
            snapshot(whole.as_ref(), &trace),
            "scheme {id}: whole-trace batched replay diverged"
        );

        // Chunked invocation, as a streamed run performs it — 7_000
        // keeps the warm-up boundary inside the first chunk and off
        // every 8_192-op sub-batch seam.
        let mut chunked = id.build(CacheGeometry::paper_baseline());
        let chunks: Vec<Arc<TraceChunk>> = (0..)
            .zip(trace.ops().chunks(7_000))
            .map(|(i, sub)| Arc::new(TraceChunk::new(sub.to_vec(), i * 7_000, 0)))
            .collect();
        let chunks = Ops::Chunks(Box::new(chunks.into_iter()));
        replay(chunked.as_mut(), chunks, WARMUP_OPS, None).unwrap();
        chunked.flush();
        assert_eq!(
            snapshot(reference.as_ref(), &trace),
            snapshot(chunked.as_ref(), &trace),
            "scheme {id}: chunked batched replay diverged"
        );
    }
}

#[test]
fn warmup_boundary_cases_match_per_op() {
    let trace = materialized();
    // 0 resets before the very first op; TOTAL_OPS is past the last op
    // and must never reset; 8_192 lands exactly on a sub-batch seam of
    // the replay helper.
    for warmup in [0usize, 8_192, TOTAL_OPS] {
        for id in SchemeKind::suite(4) {
            let mut reference = id.build(CacheGeometry::paper_baseline());
            replay_per_op(reference.as_mut(), &trace, warmup);

            let mut batched = id.build(CacheGeometry::paper_baseline());
            replay(batched.as_mut(), Ops::Trace(&trace), warmup, None).unwrap();
            batched.flush();

            assert_eq!(
                snapshot(reference.as_ref(), &trace),
                snapshot(batched.as_ref(), &trace),
                "scheme {id} diverged at warmup={warmup}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "batch decoded against a different geometry")]
fn mismatched_geometry_is_rejected() {
    let trace = materialized();
    let mut batch = DecodedBatch::new(CacheGeometry::new(8 * 1024, 2, 32).unwrap());
    batch.decode(trace.ops());
    let mut controller = SchemeKind::Conventional.build(CacheGeometry::paper_baseline());
    controller.access_batch(&batch, 0..batch.len());
}
