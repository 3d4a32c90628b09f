//! Golden telemetry for every scheme: the metric registry snapshot, the
//! windowed series and the verbose event trace of a replay.
//!
//! Every sweep and served document embeds each scheme's registry
//! snapshot, the series files carry the per-window counter deltas, and
//! `--trace-out` writes the event ring. These tests pin all three as
//! FNV-1a digests for the five-scheme suite on two profiles, replayed
//! from a materialized trace and from an in-memory chunk list (the two
//! must agree), plus one run per scheme over a two-level hierarchy. A
//! refactor of how the controllers count their events must leave this
//! table untouched.

use std::sync::Arc;

use cache8t::core::{CacheBackend, Controller, SchemeKind};
use cache8t::exec::{replay, ChunkSource, Ops, SchemeResult};
use cache8t::obs::sampler::{Sampler, SamplerConfig};
use cache8t::obs::TraceLevel;
use cache8t::sim::{CacheGeometry, ReplacementKind};
use cache8t::trace::{profiles, ChunkedGenerator, ProfiledGenerator, Trace, TraceGenerator};

/// Ops replayed per case.
const OPS: usize = 20_000;

/// Ops replayed before the counters reset.
const WARMUP_OPS: usize = 3_000;

/// Sampler window, in ops.
const CADENCE: u64 = 1_000;

/// Chunk size of the streamed feed: divides nothing in sight.
const CHUNK_OPS: usize = 7_919;

const SEED: u64 = 42;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// `(registry, series, events)` digests of one replay.
type Digests = (u64, u64, u64);

fn digests(result: &SchemeResult) -> Digests {
    let registry = serde_json::to_string(&result.metrics).expect("registry serializes");
    let series: String = result
        .series
        .iter()
        .map(|s| s.to_json_line() + "\n")
        .collect();
    let events: String = result
        .events
        .iter()
        .map(|e| serde_json::to_string(e).expect("event serializes") + "\n")
        .collect();
    (
        fnv(registry.as_bytes()),
        fnv(series.as_bytes()),
        fnv(events.as_bytes()),
    )
}

fn generator(profile: &str) -> ProfiledGenerator {
    let profile = profiles::by_name(profile).expect("built-in profile");
    ProfiledGenerator::new(profile, CacheGeometry::paper_baseline(), SEED)
}

/// The same stream as `Trace`, cut into `CHUNK_OPS`-op chunks held in
/// memory.
fn chunk_list(profile: &str) -> Box<dyn ChunkSource> {
    let mut chunks = ChunkedGenerator::new(generator(profile), CHUNK_OPS, OPS as u64);
    let mut list = Vec::new();
    while let Some(chunk) = chunks.next_chunk() {
        list.push(Arc::new(chunk));
    }
    Box::new(list.into_iter())
}

/// Replays `ops` through `controller` with verbose tracing and a
/// cadence-`CADENCE` sampler whose ring keeps every window.
fn run(mut controller: Box<dyn Controller>, ops: Ops<'_>) -> Digests {
    controller
        .obs_mut()
        .expect("every scheme is instrumented")
        .tracer_mut()
        .set_level(TraceLevel::Verbose);
    let label = controller.name();
    let config = SamplerConfig {
        cadence: CADENCE,
        ring_capacity: OPS,
    };
    let mut sampler = Sampler::new("golden", label, config);
    let result = replay(controller.as_mut(), ops, WARMUP_OPS, Some(&mut sampler))
        .expect("an in-memory replay cannot fail");
    digests(&result)
}

fn l2_backend() -> CacheBackend {
    let l2 = CacheGeometry::new(256 * 1024, 8, 32).expect("valid L2 geometry");
    CacheBackend::with_l2(CacheGeometry::paper_baseline(), l2, ReplacementKind::Lru)
}

/// `(profile, scheme, over an L2?, registry, series, events)`, computed
/// on the controllers before their counters were derived from the
/// traffic ledger.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, bool, u64, u64, u64)] = &[
    ("gcc", "6t", false, 0x7c8aca3a8d863f59, 0x50ea164f00394f8c, 0xed04068d07540be0),
    ("gcc", "rmw", false, 0x89a2dc84829ce9d6, 0x01d3485faac6634a, 0x4dac6b17f199b3c5),
    ("gcc", "wg", false, 0x720c35afd02bb395, 0x828a33b6b52219f3, 0xe44163fcef21e9c5),
    ("gcc", "wg+rb", false, 0xe8323dea4f951471, 0x9eee9ce0b170f940, 0x4524694386a148d9),
    ("gcc", "coalesce:8", false, 0x9a68ee52f61de039, 0x997561358b3adbbe, 0xf64f885a8e25ff6f),
    ("mcf", "6t", false, 0xf90354f553def6ca, 0x23a20be322d24383, 0xd4c275704380b8d2),
    ("mcf", "rmw", false, 0x0ae2cd9e07ea5638, 0x4b81874fceb8369a, 0x8ac4c6182a51ec42),
    ("mcf", "wg", false, 0x2b5b3da070832042, 0x829e8809be564cc4, 0xf780c46beff35eb4),
    ("mcf", "wg+rb", false, 0xeeb3e2fbb088fb05, 0x605519b64daecffd, 0xfdb15593a1867cf2),
    ("mcf", "coalesce:8", false, 0x79fd22fa9f64c5ad, 0x68f7755a41df003b, 0xa4339e3076ac5cfc),
    ("gcc", "6t", true, 0x7c8aca3a8d863f59, 0x50ea164f00394f8c, 0xed04068d07540be0),
    ("gcc", "rmw", true, 0x89a2dc84829ce9d6, 0x01d3485faac6634a, 0x4dac6b17f199b3c5),
    ("gcc", "wg", true, 0x720c35afd02bb395, 0x828a33b6b52219f3, 0xe44163fcef21e9c5),
    ("gcc", "wg+rb", true, 0xe8323dea4f951471, 0x9eee9ce0b170f940, 0x4524694386a148d9),
    ("gcc", "coalesce:8", true, 0x9a68ee52f61de039, 0x997561358b3adbbe, 0xf64f885a8e25ff6f),
];

#[test]
fn telemetry_matches_its_golden_digests() {
    let traces: Vec<(&str, Trace)> = ["gcc", "mcf"]
        .into_iter()
        .map(|p| (p, generator(p).collect(OPS)))
        .collect();
    let mut got = Vec::new();
    for (profile, trace) in &traces {
        for kind in SchemeKind::suite(8) {
            let g = CacheGeometry::paper_baseline();
            let materialized = run(kind.build(g), Ops::Trace(trace));
            let streamed = run(kind.build(g), Ops::Chunks(chunk_list(profile)));
            assert_eq!(
                materialized, streamed,
                "{profile} {kind}: chunks of {CHUNK_OPS} diverge from the materialized trace"
            );
            got.push((*profile, kind, false, materialized));
        }
    }
    let (profile, trace) = &traces[0];
    for kind in SchemeKind::suite(8) {
        let over_l2 = run(kind.build_on(l2_backend()), Ops::Trace(trace));
        got.push((*profile, kind, true, over_l2));
    }

    let rows: Vec<String> = got
        .iter()
        .map(|(profile, kind, l2, (registry, series, events))| {
            format!(
                "    (\"{profile}\", \"{}\", {l2}, {registry:#018x}, {series:#018x}, {events:#018x}),",
                kind.spelling()
            )
        })
        .collect();
    let pinned: Vec<String> = GOLDEN
        .iter()
        .map(|(profile, scheme, l2, registry, series, events)| {
            format!(
                "    (\"{profile}\", \"{scheme}\", {l2}, {registry:#018x}, {series:#018x}, {events:#018x}),"
            )
        })
        .collect();
    assert!(
        rows == pinned,
        "telemetry differs from the golden table; got:\n{}",
        rows.join("\n")
    );
}
