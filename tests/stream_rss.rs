//! The bounded-memory regression harness for streamed replay.
//!
//! A materialized 8 M-op trace costs ~24 bytes per op (~190 MB); the
//! streamed path must replay the same ops while its peak RSS grows by no
//! more than a small multiple of the chunk size. `VmHWM` from
//! `/proc/self/status` is the process-wide high-water mark, so the
//! memory test runs the big replay first thing and compares the
//! before/after marks — the assertion fails loudly if the streamed path
//! ever silently regresses into materializing.

#![cfg(target_os = "linux")]

use cache8t::core::{CacheBackend, Controller, WgController, WgOptions};
use cache8t::exec::{replay, Ops, PrefetchedChunks};
use cache8t::sim::{CacheGeometry, ReplacementKind};
use cache8t::trace::{
    assemble_chunks, ChunkedGenerator, ProfiledGenerator, TraceGenerator, WorkloadProfile,
};

/// The gcc profile with a small working set, so the generator's own
/// shadow state (written-value map, Zipf tables) stays a few hundred
/// kilobytes and the measurement isolates the *trace* memory.
fn small_ws_profile() -> WorkloadProfile {
    let mut profile = cache8t::trace::profiles::by_name("gcc").expect("gcc profile");
    profile.working_set_blocks = 4_096;
    profile.validate().expect("shrunk profile stays valid");
    profile
}

fn controller() -> Box<dyn Controller> {
    let backend = CacheBackend::new(CacheGeometry::paper_baseline(), ReplacementKind::Lru);
    Box::new(WgController::from_backend(backend, WgOptions::wg()))
}

/// `VmHWM` (peak resident set) in kibibytes, from `/proc/self/status`.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmHWM line present")
}

const BIG_OPS: u64 = 8_000_000;
const CHUNK_OPS: usize = 65_536;

#[test]
fn streamed_replay_rss_is_bounded_by_the_chunk_size() {
    let before = peak_rss_kib();

    let generator = ProfiledGenerator::new(small_ws_profile(), CacheGeometry::paper_baseline(), 23);
    let chunks = PrefetchedChunks::spawn(ChunkedGenerator::new(generator, CHUNK_OPS, BIG_OPS));
    let mut wg = controller();
    replay(
        wg.as_mut(),
        Ops::Chunks(Box::new(chunks)),
        BIG_OPS as usize / 10,
        None,
    )
    .unwrap();
    let stats = *wg.stats();
    assert!(
        stats.read_hits + stats.read_misses + stats.write_hits + stats.write_misses > 0,
        "replay must actually have run: {stats:?}"
    );

    let after = peak_rss_kib();
    let growth_kib = after - before;
    // Materializing 8 M ops costs ~190 MB. Two chunks in flight plus
    // controller and generator state measure ~10 MB in practice; 64 MB
    // leaves generous headroom while still failing hard if the trace is
    // ever materialized again.
    assert!(
        growth_kib < 64 * 1024,
        "streamed replay peak RSS grew {growth_kib} KiB (> 64 MiB): \
         the bounded-memory invariant is broken"
    );
}

#[test]
fn streamed_ops_are_the_materialized_ops() {
    // The memory bound means nothing if the stream drifts: spot-check
    // byte identity at a size small enough to materialize comfortably.
    let total = 200_000u64;
    let make = || ProfiledGenerator::new(small_ws_profile(), CacheGeometry::paper_baseline(), 23);
    let expected = make().collect(total as usize);
    let assembled = assemble_chunks(ChunkedGenerator::new(make(), CHUNK_OPS, total));
    assert_eq!(assembled, expected);
}
