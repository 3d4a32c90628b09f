//! Streaming conformance lockstep: replaying a trace as a bounded-memory
//! chunk stream must be bit-identical to replaying the materialized trace
//! — for all five schemes of the workspace (the conform suite), at more
//! than one chunk size, including chunk seams inside the warm-up region
//! and mid-sampler-window.
//!
//! This is the lock on the streaming tentpole: any drift between the two
//! replay paths (op order, warm-up reset placement, sampler window
//! boundaries, instruction pro-rating) lands here as a field-level diff.

use std::sync::Arc;

use cache8t::conform::SchemeId;
use cache8t::core::{
    CacheBackend, CoalescingController, Controller, ConventionalController, RmwController,
    WgController, WgOptions, WgRbController,
};
use cache8t::exec::{replay, Ops, SchemeResult};
use cache8t::obs::sampler::{Sampler, SamplerConfig};
use cache8t::obs::MetricRegistry;
use cache8t::sim::{CacheGeometry, ReplacementKind};
use cache8t::trace::{ChunkedGenerator, ProfiledGenerator, Trace, TraceGenerator};

fn build(id: SchemeId) -> Box<dyn Controller> {
    let backend = CacheBackend::new(CacheGeometry::paper_baseline(), ReplacementKind::Lru);
    match id {
        SchemeId::SixT => Box::new(ConventionalController::from_backend(backend)),
        SchemeId::Rmw => Box::new(RmwController::from_backend(backend)),
        SchemeId::Wg => Box::new(WgController::from_backend(backend, WgOptions::wg())),
        SchemeId::WgRb => Box::new(WgRbController::from_backend(backend)),
        SchemeId::Coalesce(entries) => {
            Box::new(CoalescingController::from_backend(backend, entries))
        }
    }
}

fn generator(seed: u64) -> ProfiledGenerator {
    let profile = cache8t::trace::profiles::by_name("gcc").expect("gcc profile");
    ProfiledGenerator::new(profile, CacheGeometry::paper_baseline(), seed)
}

const TOTAL_OPS: u64 = 30_000;
const WARMUP_OPS: usize = 3_000;

fn materialized() -> Trace {
    generator(17).collect(TOTAL_OPS as usize)
}

fn chunks(chunk_ops: usize) -> ChunkedGenerator<ProfiledGenerator> {
    ChunkedGenerator::new(generator(17), chunk_ops, TOTAL_OPS)
}

/// Everything a controller exposes after a replay, comparable.
fn snapshot(controller: &dyn Controller) -> String {
    format!(
        "{} | {:?} | {:?} | accesses={}",
        controller.name(),
        controller.traffic(),
        controller.stats(),
        controller.array_accesses(),
    )
}

#[test]
fn all_five_schemes_stream_bit_identically() {
    let trace = materialized();
    // 1024 puts seams inside the warm-up region and mid-window; 7_000
    // puts the warm-up boundary mid-chunk; 64_000 is a single chunk.
    for chunk_ops in [1_024usize, 7_000, 64_000] {
        for id in SchemeId::default_suite() {
            let mut reference = build(id);
            replay(reference.as_mut(), Ops::Trace(&trace), WARMUP_OPS, None).unwrap();

            let mut streamed = build(id);
            let streamed_ops = Ops::Chunks(Box::new(chunks(chunk_ops)));
            replay(streamed.as_mut(), streamed_ops, WARMUP_OPS, None).unwrap();

            assert_eq!(
                snapshot(reference.as_ref()),
                snapshot(streamed.as_ref()),
                "scheme {id} diverged at chunk_ops={chunk_ops}"
            );
        }
    }
}

/// An in-memory series sink the test can read back after the sampler
/// (which owns a boxed writer) is done with it.
#[derive(Clone)]
struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn sampled_streams_emit_identical_series_for_all_schemes() {
    let trace = materialized();
    let config = SamplerConfig {
        cadence: 1_024,
        ring_capacity: 32,
    };
    for id in SchemeId::default_suite() {
        let label = id.label();
        let reference_buf = SharedBuf(Arc::new(std::sync::Mutex::new(Vec::new())));
        {
            let mut sampler =
                Sampler::new("gcc", &label, config).with_writer(Box::new(reference_buf.clone()));
            let mut controller = build(id);
            replay(
                controller.as_mut(),
                Ops::Trace(&trace),
                WARMUP_OPS,
                Some(&mut sampler),
            )
            .unwrap();
        }
        let reference = reference_buf.0.lock().unwrap().clone();
        assert!(!reference.is_empty(), "sampled replay must emit windows");
        for chunk_ops in [900usize, 4_096] {
            let buf = SharedBuf(Arc::new(std::sync::Mutex::new(Vec::new())));
            let mut sampler =
                Sampler::new("gcc", &label, config).with_writer(Box::new(buf.clone()));
            let mut controller = build(id);
            replay(
                controller.as_mut(),
                Ops::Chunks(Box::new(chunks(chunk_ops))),
                WARMUP_OPS,
                Some(&mut sampler),
            )
            .unwrap();
            let streamed = buf.0.lock().unwrap().clone();
            assert_eq!(
                reference, streamed,
                "series bytes diverged: scheme {id}, chunk_ops={chunk_ops}"
            );
        }
    }
}

/// The metric registry every scheme of the suite carries.
fn registry(controller: &dyn Controller) -> &MetricRegistry {
    controller
        .obs()
        .expect("every scheme is instrumented")
        .registry()
}

/// Per-op sampled reference replay: the loop the driver's cut rule must
/// reproduce — the counter reset before the op at `warmup_ops`, one
/// `note_op` per op, and a window sampled the moment it fills.
fn replay_sampled_per_op(
    controller: &mut dyn Controller,
    trace: &Trace,
    warmup_ops: usize,
    sampler: &mut Sampler,
) -> SchemeResult {
    sampler.rebaseline(registry(controller));
    for (i, op) in trace.iter().enumerate() {
        if i == warmup_ops {
            controller.reset_counters();
            sampler.rebaseline(registry(controller));
        }
        controller.access(op);
        if sampler.note_op() {
            let occupancy = controller.occupancy().unwrap_or_default();
            sampler.sample(registry(controller), occupancy).unwrap();
        }
    }
    controller.flush();
    let occupancy = controller.occupancy().unwrap_or_default();
    sampler.finish(registry(controller), occupancy).unwrap();
    SchemeResult {
        scheme: controller.name(),
        array_accesses: controller.array_accesses(),
        traffic: *controller.traffic(),
        stats: *controller.stats(),
        metrics: registry(controller).to_value(),
        events: controller
            .obs()
            .unwrap()
            .tracer()
            .events()
            .copied()
            .collect(),
        registry: registry(controller).clone(),
        series: sampler.take_ring(),
    }
}

#[test]
fn sampled_driver_cuts_match_a_per_op_sampled_replay() {
    // The driver cuts batched ranges at sub-batch ends, the warm-up
    // index and window boundaries; CACHE8T_NO_BATCH shares those cuts,
    // so only a per-op loop can show a cut that lands on the wrong op.
    // Cadence 1 samples after every op, so it runs on a shorter trace.
    let cases = [
        (1u64, 1_500),
        (1_000, 17_000),
        (8_192, 17_000),
        (10_000, 17_000),
    ];
    for (cadence, total) in cases {
        let trace = generator(17).collect(total);
        let on_window = cadence as usize;
        for warmup in [0, on_window, 8_192, 3_001, total, total + 5_000] {
            for id in SchemeId::default_suite() {
                let label = id.label();
                let config = SamplerConfig {
                    cadence,
                    ring_capacity: 8,
                };
                let run =
                    |replay_with: &dyn Fn(&mut dyn Controller, &mut Sampler) -> SchemeResult| {
                        let buf = SharedBuf(Arc::new(std::sync::Mutex::new(Vec::new())));
                        let mut sampler =
                            Sampler::new("gcc", &label, config).with_writer(Box::new(buf.clone()));
                        let result = replay_with(build(id).as_mut(), &mut sampler);
                        let bytes = buf.0.lock().unwrap().clone();
                        (
                            serde_json::to_string(&result).unwrap(),
                            result.series,
                            bytes,
                        )
                    };
                let reference = run(&|c, s| replay_sampled_per_op(c, &trace, warmup, s));
                assert!(!reference.2.is_empty(), "sampled replay must emit windows");
                // Materialized, then chunked at 900 and 4096 ops.
                for chunk_ops in [None, Some(900), Some(4_096)] {
                    let driven = run(&|c, s| {
                        let ops = match chunk_ops {
                            None => Ops::Trace(&trace),
                            Some(n) => Ops::Chunks(Box::new(ChunkedGenerator::new(
                                generator(17),
                                n,
                                total as u64,
                            ))),
                        };
                        replay(c, ops, warmup, Some(s)).unwrap()
                    });
                    let case = format!(
                        "scheme {id}, cadence {cadence}, warm-up {warmup}, chunks {chunk_ops:?}"
                    );
                    assert_eq!(reference.0, driven.0, "result JSON diverged: {case}");
                    assert_eq!(reference.1, driven.1, "ring series diverged: {case}");
                    assert_eq!(reference.2, driven.2, "series bytes diverged: {case}");
                }
            }
        }
    }
}
