//! The sweep engine's headline guarantee: the serialized sweep document
//! is byte-identical regardless of worker count, schedule, or sharding.

use std::sync::Arc;

use cache8t::exec::{
    merge_documents, run_sweep, to_document, ExecOptions, GeometryPoint, Shard, SweepOptions,
    SweepPlan, TraceStore,
};
use cache8t::trace::profiles;

/// A small but non-trivial plan: 4 profiles × 2 geometries = 8
/// benchmarks in 4 profile jobs, enough for real interleaving.
fn plan() -> SweepPlan {
    let profiles = ["gcc", "mcf", "bwaves", "lbm"]
        .iter()
        .map(|name| profiles::by_name(name).expect("suite profile"))
        .collect();
    let geometries = vec![
        GeometryPoint::named("baseline").expect("named geometry"),
        GeometryPoint::named("small").expect("named geometry"),
    ];
    SweepPlan {
        profiles,
        geometries,
        ops: 8_000,
        seed: 11,
    }
}

fn options(workers: usize, shard: Option<Shard>) -> SweepOptions {
    SweepOptions {
        exec: ExecOptions {
            workers,
            ..ExecOptions::default()
        },
        slots: shard.map(|shard| shard.slots(plan().benchmark_count())),
        progress: false,
        store: Arc::new(TraceStore::in_memory()),
        series: None,
        ..SweepOptions::default()
    }
}

fn document(workers: usize, shard: Option<Shard>) -> String {
    let plan = plan();
    let outcome = run_sweep(&plan, &options(workers, shard));
    assert!(
        outcome.failures.is_empty(),
        "unexpected failures: {:?}",
        outcome.failures
    );
    serde_json::to_string_pretty(&to_document(&plan, &outcome)).expect("documents serialize")
}

#[test]
fn document_is_byte_identical_across_thread_counts() {
    let serial = document(1, None);
    let parallel = document(8, None);
    assert!(
        serial.contains("\"benchmarks\""),
        "document looks malformed:\n{serial}"
    );
    assert_eq!(
        serial, parallel,
        "--jobs 1 and --jobs 8 must serialize identically"
    );
}

#[test]
fn per_benchmark_stats_match_across_thread_counts() {
    let plan = plan();
    let a = run_sweep(&plan, &options(1, None))
        .into_complete()
        .expect("complete");
    let b = run_sweep(&plan, &options(8, None))
        .into_complete()
        .expect("complete");
    for (ga, gb) in a.iter().zip(&b) {
        for (ra, rb) in ga.iter().zip(gb) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.rmw.array_accesses, rb.rmw.array_accesses);
            assert_eq!(ra.wgrb.array_accesses, rb.wgrb.array_accesses);
            assert_eq!(ra.conventional.stats, rb.conventional.stats);
            // Merged registry snapshots too, not just the headline stats.
            assert_eq!(
                serde_json::to_string(&ra.wg.metrics).unwrap(),
                serde_json::to_string(&rb.wg.metrics).unwrap(),
                "{} WG registry snapshot differs",
                ra.name
            );
        }
    }
}

#[test]
fn shard_documents_merge_into_the_full_document() {
    let full = document(2, None);
    let shard1 = document(2, Some(Shard { index: 0, count: 2 }));
    let shard2 = document(2, Some(Shard { index: 1, count: 2 }));
    assert_ne!(shard1, shard2, "shards must cover different benchmarks");

    let parse = |text: &str| serde_json::from_str(text).expect("documents parse");
    let merged = merge_documents(&[parse(&shard1), parse(&shard2)]).expect("shards merge");
    let merged_text = serde_json::to_string_pretty(&merged).expect("documents serialize");
    assert_eq!(
        merged_text, full,
        "merged shard documents must equal the unsharded document byte-for-byte"
    );

    // Merge order must not matter either.
    let swapped = merge_documents(&[parse(&shard2), parse(&shard1)]).expect("shards merge");
    assert_eq!(
        serde_json::to_string_pretty(&swapped).unwrap(),
        full,
        "merge must be order-insensitive"
    );
}

#[test]
fn merge_rejects_mismatched_plans() {
    let doc1 = serde_json::from_str(&document(1, None)).expect("parses");
    let mut other = plan();
    other.seed = 99;
    let outcome = run_sweep(&other, &options(1, None));
    let doc2 = to_document(&other, &outcome);
    let err = merge_documents(&[doc1, doc2]).expect_err("seed mismatch must fail");
    assert!(err.contains("seed"), "unhelpful error: {err}");
}
