//! The per-benchmark experiment runner shared by every harness binary
//! and the sweep engine.
//!
//! Lived in `cache8t-bench` until the execution engine arrived; it sits
//! here now so both the serial figure binaries (through the
//! `cache8t_bench::experiment` re-exports) and the parallel sweep
//! scheduler drive the exact same code — which is what makes "the sweep
//! output is byte-identical to the serial run" checkable rather than
//! aspirational.

use std::convert::Infallible;
use std::io;

use serde::Serialize;

use cache8t_core::{
    ArrayTraffic, Controller, ConventionalController, CountingPolicy, RmwController, WgController,
    WgRbController,
};
use cache8t_obs::{span, MetricRegistry, Sampler, SeriesSample, SpanGuard, TraceEvent};
use cache8t_sim::{CacheGeometry, CacheStats, ReplacementKind};
use cache8t_trace::analyze::{StreamStats, StreamStatsAccumulator};
use cache8t_trace::{
    profiles, warmup_split, DecodedBatch, MemOp, ProfiledGenerator, Trace, TraceGenerator,
    WorkloadProfile,
};

use crate::stream::ChunkSource;

/// How a run is set up: geometry, stream length and warm-up.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RunConfig {
    /// Cache geometry under test.
    #[serde(skip)]
    pub geometry: CacheGeometry,
    /// Measured operations per benchmark.
    pub ops: usize,
    /// Warm-up operations before counters reset (the paper fast-forwards
    /// 1 B of its 10 B instructions; we keep the same 10 % ratio).
    pub warmup_ops: usize,
    /// Seed for the trace generator.
    pub seed: u64,
}

impl RunConfig {
    /// A config over `geometry` with `ops` measured operations, 10 %
    /// warm-up, and the given seed.
    pub fn new(geometry: CacheGeometry, ops: usize, seed: u64) -> Self {
        RunConfig {
            geometry,
            ops,
            warmup_ops: ops / 10,
            seed,
        }
    }

    /// Total generated operations (warm-up + measured).
    pub fn total_ops(&self) -> usize {
        self.warmup_ops + self.ops
    }
}

/// One controller's outcome on one benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct SchemeResult {
    /// Scheme name (`"6T"`, `"RMW"`, `"WG"`, `"WG+RB"`).
    pub scheme: &'static str,
    /// Array activations under demand-only counting.
    pub array_accesses: u64,
    /// The full traffic ledger.
    pub traffic: ArrayTraffic,
    /// Request-level hit/miss statistics.
    pub stats: CacheStats,
    /// Metric-registry snapshot (counters, gauges, histograms) taken
    /// after the measured region; `Null` when the controller has no
    /// observability bundle.
    pub metrics: serde_json::Value,
    /// Structural trace events recorded during the measured region.
    /// Empty unless `CACHE8T_TRACE` is `event` or `verbose`; excluded
    /// from the serialized result (use `--trace-out` for the JSONL).
    #[serde(skip)]
    pub events: Vec<TraceEvent>,
    /// The live registry behind `metrics`, kept for merging and
    /// terminal rendering (`report_card`); excluded from JSON.
    #[serde(skip)]
    pub registry: MetricRegistry,
    /// Windowed telemetry samples recorded during the replay. Empty
    /// unless the run was sampled (see [`replay`]);
    /// excluded from the serialized result (use `--series-out` for the
    /// JSONL), which keeps sweep documents byte-identical whether or
    /// not a series was requested.
    #[serde(skip)]
    pub series: Vec<SeriesSample>,
}

/// All schemes' outcomes on one benchmark, plus the measured stream
/// statistics.
#[derive(Debug, Clone, Serialize)]
pub struct BenchmarkResult {
    /// Benchmark name.
    pub name: String,
    /// Measured Figure-3/4/5 statistics of the generated stream.
    pub stream: StreamStats,
    /// Conventional (6T) controller outcome.
    pub conventional: SchemeResult,
    /// RMW baseline outcome.
    pub rmw: SchemeResult,
    /// Write Grouping outcome.
    pub wg: SchemeResult,
    /// Write Grouping + Read Bypassing outcome.
    pub wgrb: SchemeResult,
}

impl BenchmarkResult {
    /// RMW's access increase over the conventional cache (the paper's ">32 %
    /// on average, max 47 %" motivation).
    pub fn rmw_increase(&self) -> f64 {
        if self.conventional.array_accesses == 0 {
            return 0.0;
        }
        self.rmw.array_accesses as f64 / self.conventional.array_accesses as f64 - 1.0
    }

    /// WG's access reduction vs RMW (the left bars of Figures 9–11).
    pub fn wg_reduction(&self) -> f64 {
        self.wg
            .traffic
            .reduction_vs(&self.rmw.traffic, CountingPolicy::DemandOnly)
    }

    /// WG+RB's access reduction vs RMW (the right bars of Figures 9–11).
    pub fn wgrb_reduction(&self) -> f64 {
        self.wgrb
            .traffic
            .reduction_vs(&self.rmw.traffic, CountingPolicy::DemandOnly)
    }

    /// The four scheme results in canonical order.
    pub fn schemes(&self) -> [&SchemeResult; 4] {
        [&self.conventional, &self.rmw, &self.wg, &self.wgrb]
    }
}

/// The four controller schemes every benchmark runs through, in the
/// canonical (6T, RMW, WG, WG+RB) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Conventional 6T-style cache (one array access per write).
    Conventional,
    /// 8T read-modify-write baseline.
    Rmw,
    /// Write Grouping.
    Wg,
    /// Write Grouping + Read Bypassing.
    WgRb,
}

impl SchemeKind {
    /// All four schemes in canonical order.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Conventional,
        SchemeKind::Rmw,
        SchemeKind::Wg,
        SchemeKind::WgRb,
    ];

    /// The display name the controller itself reports.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Conventional => "6T",
            SchemeKind::Rmw => "RMW",
            SchemeKind::Wg => "WG",
            SchemeKind::WgRb => "WG+RB",
        }
    }

    /// Builds the controller for this scheme over `geometry`.
    pub fn build(self, geometry: CacheGeometry) -> Box<dyn Controller> {
        let lru = ReplacementKind::Lru;
        match self {
            SchemeKind::Conventional => Box::new(ConventionalController::new(geometry, lru)),
            SchemeKind::Rmw => Box::new(RmwController::new(geometry, lru)),
            SchemeKind::Wg => Box::new(WgController::new(geometry, lru)),
            SchemeKind::WgRb => Box::new(WgRbController::new(geometry, lru)),
        }
    }
}

/// Ops per pre-decoded sub-batch of the replay driver.
///
/// Large enough to amortize the decode pass and keep the per-batch loop
/// overhead negligible; small enough that the decoded columns (~41 B/op)
/// stay cache-resident and the streamed replay's memory stays bounded by
/// the chunk size, not the trace length.
const REPLAY_BATCH_OPS: usize = 8192;

/// Whether [`replay`] services its ranges through the pre-decoded batch
/// kernels.
///
/// On by default; `CACHE8T_NO_BATCH=1` forces one `access` call per op
/// over the same ranges. CI uses the switch to diff batched-vs-per-op
/// sweep documents and series files byte-for-byte.
fn batching_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("CACHE8T_NO_BATCH").map_or(true, |v| v != "1"))
}

/// A replay's ops in stream order, handed out as borrowed slices: a
/// materialized trace is one slice, a chunk stream one slice per chunk.
/// Neither copies an op, so a streamed replay's memory stays bounded by
/// the chunk size.
pub enum Ops<'a> {
    /// A materialized trace.
    Trace(&'a Trace),
    /// A chunk stream, consumed chunk by chunk.
    Chunks(Box<dyn ChunkSource + 'a>),
}

impl Ops<'_> {
    /// Calls `f` on each slice and its instruction count, in stream
    /// order, stopping at the first error.
    fn try_for_each<E>(self, mut f: impl FnMut(&[MemOp], u64) -> Result<(), E>) -> Result<(), E> {
        match self {
            Ops::Trace(trace) => f(trace.ops(), trace.instructions()),
            Ops::Chunks(mut chunks) => {
                while let Some(chunk) = chunks.next_chunk() {
                    f(chunk.ops(), chunk.instructions())?;
                }
                Ok(())
            }
        }
    }
}

/// Replays `ops` through `controller` with the standard warm-up protocol
/// and snapshots its statistics and telemetry: the one replay loop
/// behind every run, materialized or streamed, sampled or not.
///
/// Each sub-batch of at most 8192 ops is decoded once, then serviced by
/// `access_batch` over ranges cut at the nearest of:
///
/// - the end of the sub-batch;
/// - the op with global index `warmup_ops`, before which the counters
///   reset and the sampler rebaselines (a warm-up at or past the end of
///   the stream never resets);
/// - the sampler's next window boundary, after which a window is
///   sampled.
///
/// The cuts land where a per-op loop would reset and sample, so the
/// result and every series row are bit-identical to it for any chunking.
/// With a `sampler`, each window diffs the controller's registry and
/// probes its buffer occupancy; the retained ring lands in
/// [`SchemeResult::series`], an attached writer streams every window as
/// JSONL and is flushed at every chunk seam. The controller's name
/// doubles as the span label, so the span report breaks replay time
/// down per scheme.
///
/// # Errors
///
/// Returns the sampler writer's I/O error. A replay without a sampler,
/// or with a ring-only one, does no I/O.
pub fn replay(
    controller: &mut dyn Controller,
    ops: Ops<'_>,
    warmup_ops: usize,
    sampler: Option<&mut Sampler>,
) -> io::Result<SchemeResult> {
    let _span = SpanGuard::enter(controller.name());
    // A controller without a registry has no windows to sample.
    let mut sampler = sampler.filter(|_| controller.obs().is_some());
    let warmup = warmup_ops as u64;
    let batched = batching_enabled();
    let mut batch = DecodedBatch::new(controller.cache().geometry());
    if let (Some(s), Some(obs)) = (sampler.as_deref_mut(), controller.obs()) {
        s.rebaseline(obs.registry());
    }
    let mut index = 0u64; // global index of the sub-batch's first op
    ops.try_for_each(|slice, _| {
        for sub in slice.chunks(REPLAY_BATCH_OPS) {
            if batched {
                batch.decode(sub);
            }
            let sub_end = index + sub.len() as u64;
            let mut pos = 0;
            while pos < sub.len() {
                let at = index + pos as u64;
                if at == warmup {
                    controller.reset_counters();
                    if let (Some(s), Some(obs)) = (sampler.as_deref_mut(), controller.obs()) {
                        s.rebaseline(obs.registry());
                    }
                }
                let mut end = if at < warmup && warmup < sub_end {
                    (warmup - index) as usize
                } else {
                    sub.len()
                };
                if let Some(s) = sampler.as_deref() {
                    end = pos + s.ops_to_boundary().min((end - pos) as u64) as usize;
                }
                if batched {
                    controller.access_batch(&batch, pos..end);
                } else {
                    for op in &sub[pos..end] {
                        controller.access(op);
                    }
                }
                if let Some(s) = sampler.as_deref_mut() {
                    if s.note_ops((end - pos) as u64) {
                        if let Some(obs) = controller.obs() {
                            let occupancy = controller.occupancy().unwrap_or_default();
                            s.sample(obs.registry(), occupancy)?;
                        }
                    }
                }
                pos = end;
            }
            index = sub_end;
        }
        match sampler.as_deref_mut() {
            Some(s) => s.flush_writer(),
            None => Ok(()),
        }
    })?;
    controller.flush();
    let series = match sampler {
        Some(s) => {
            if let Some(obs) = controller.obs() {
                let occupancy = controller.occupancy().unwrap_or_default();
                s.finish(obs.registry(), occupancy)?;
            }
            s.take_ring()
        }
        None => Vec::new(),
    };
    Ok(finish_scheme(controller, series))
}

/// Snapshots a replayed controller into a [`SchemeResult`].
fn finish_scheme(controller: &mut dyn Controller, series: Vec<SeriesSample>) -> SchemeResult {
    let (metrics, events, registry) = match controller.obs() {
        Some(obs) => (
            obs.registry().to_value(),
            obs.tracer().events().copied().collect(),
            obs.registry().clone(),
        ),
        None => (serde_json::Value::Null, Vec::new(), MetricRegistry::new()),
    };
    SchemeResult {
        scheme: controller.name(),
        array_accesses: controller.array_accesses(),
        traffic: *controller.traffic(),
        stats: *controller.stats(),
        metrics,
        events,
        registry,
        series,
    }
}

/// Measures the Figure-3/4/5 stream statistics of the measured region —
/// the sweep engine's fifth per-benchmark unit of work. The ops past the
/// warm-up fold through the incremental accumulator, normalized by the
/// `warmup_split` pro-rating of the whole stream, so a chunk stream
/// measures bit-identically to its materialized trace.
pub fn measure_stream(ops: Ops<'_>, config: RunConfig) -> StreamStats {
    let _span = span!("bench.stream_stats");
    let mut acc = StreamStatsAccumulator::new(config.geometry);
    let warmup = config.warmup_ops as u64;
    let (mut total_ops, mut total_instructions) = (0u64, 0u64);
    let Ok(()) = ops.try_for_each(|slice, instructions| {
        let skip = warmup.saturating_sub(total_ops).min(slice.len() as u64);
        acc.feed(&slice[skip as usize..]);
        total_ops += slice.len() as u64;
        total_instructions += instructions;
        Ok::<(), Infallible>(())
    });
    let split = warmup_split(total_ops as usize, total_instructions, config.warmup_ops);
    acc.finish(split.measured_instructions)
}

/// Generates the benchmark's trace exactly as the experiment runner
/// does: shaped at the paper's *reference* geometry and replayed
/// unchanged against every cache configuration — the paper's own
/// methodology (one Pin trace, many cache models). This is what lets
/// the Figure 10/11 sensitivity effects emerge from spatial locality
/// rather than being re-generated away.
pub fn generate_trace(profile: &WorkloadProfile, config: RunConfig) -> Trace {
    let _span = span!("bench.generate");
    let mut generator = ProfiledGenerator::new(
        profile.clone(),
        CacheGeometry::paper_baseline(),
        config.seed,
    );
    generator.collect(config.total_ops())
}

/// Runs one benchmark profile through all four controllers over an
/// identical, pre-generated trace.
pub fn run_benchmark_on_trace(
    profile: &WorkloadProfile,
    config: RunConfig,
    trace: &Trace,
) -> BenchmarkResult {
    let stream = measure_stream(Ops::Trace(trace), config);
    let [conventional, rmw, wg, wgrb] = SchemeKind::ALL.map(|scheme| {
        let mut controller = scheme.build(config.geometry);
        match replay(
            controller.as_mut(),
            Ops::Trace(trace),
            config.warmup_ops,
            None,
        ) {
            Ok(result) => result,
            Err(e) => unreachable!("a replay without a sampler does no I/O: {e}"),
        }
    });
    BenchmarkResult {
        name: profile.name.clone(),
        stream,
        conventional,
        rmw,
        wg,
        wgrb,
    }
}

/// Runs one benchmark profile through all four controllers over an
/// identical trace.
pub fn run_benchmark(profile: &WorkloadProfile, config: RunConfig) -> BenchmarkResult {
    let trace = generate_trace(profile, config);
    run_benchmark_on_trace(profile, config, &trace)
}

/// Runs the full 25-benchmark suite serially. The sweep engine
/// (`crate::sweep`) produces identical results in parallel.
pub fn run_suite(config: RunConfig) -> Vec<BenchmarkResult> {
    profiles::spec2006()
        .iter()
        .map(|p| run_benchmark(p, config))
        .collect()
}

/// Arithmetic mean of a per-benchmark metric.
pub fn average<F: Fn(&BenchmarkResult) -> f64>(results: &[BenchmarkResult], f: F) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(f).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_obs::SamplerConfig;
    use cache8t_trace::ChunkedGenerator;

    fn small_config() -> RunConfig {
        RunConfig::new(CacheGeometry::paper_baseline(), 20_000, 7)
    }

    /// One unsampled scheme unit, as the sweep engine runs it.
    fn run(scheme: SchemeKind, ops: Ops<'_>, config: RunConfig) -> io::Result<SchemeResult> {
        replay(
            scheme.build(config.geometry).as_mut(),
            ops,
            config.warmup_ops,
            None,
        )
    }

    #[test]
    fn scheme_kinds_build_their_controllers() {
        for kind in SchemeKind::ALL {
            let controller = kind.build(CacheGeometry::paper_baseline());
            assert_eq!(controller.name(), kind.name());
        }
    }

    #[test]
    fn per_unit_runs_assemble_into_the_serial_result() {
        // The engine's unit jobs must reproduce run_benchmark exactly.
        let p = profiles::by_name("gcc").unwrap();
        let config = small_config();
        let serial = run_benchmark(&p, config);
        let trace = generate_trace(&p, config);
        let assembled = run_benchmark_on_trace(&p, config, &trace);
        assert_eq!(serial.rmw.array_accesses, assembled.rmw.array_accesses);
        assert_eq!(serial.wgrb.array_accesses, assembled.wgrb.array_accesses);
        assert_eq!(serial.conventional.stats, assembled.conventional.stats);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&assembled).unwrap()
        );
    }

    #[test]
    fn sampling_does_not_perturb_the_measurement() -> io::Result<()> {
        // A sampled run must report byte-identical results to the plain
        // runner — telemetry observes the replay, it never changes it.
        let p = profiles::by_name("gcc").unwrap();
        let config = small_config();
        let trace = generate_trace(&p, config);
        let plain = run(SchemeKind::Wg, Ops::Trace(&trace), config)?;
        let mut sampler = Sampler::new(
            "gcc",
            SchemeKind::Wg.name(),
            SamplerConfig {
                cadence: 1_024,
                ring_capacity: 64,
            },
        );
        let sampled = replay(
            SchemeKind::Wg.build(config.geometry).as_mut(),
            Ops::Trace(&trace),
            config.warmup_ops,
            Some(&mut sampler),
        )?;
        assert_eq!(plain.stats, sampled.stats);
        assert_eq!(plain.array_accesses, sampled.array_accesses);
        assert_eq!(
            serde_json::to_string(&plain.metrics).unwrap(),
            serde_json::to_string(&sampled.metrics).unwrap()
        );
        assert!(!sampled.series.is_empty());
        assert!(plain.series.is_empty());
        // Serialized scheme results are unchanged by sampling: the
        // series rides along outside the document schema.
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&sampled).unwrap()
        );
        Ok(())
    }

    fn chunks_for(
        p: &WorkloadProfile,
        config: RunConfig,
        chunk_ops: usize,
    ) -> ChunkedGenerator<ProfiledGenerator> {
        let generator =
            ProfiledGenerator::new(p.clone(), CacheGeometry::paper_baseline(), config.seed);
        ChunkedGenerator::new(generator, chunk_ops, config.total_ops() as u64)
    }

    #[test]
    fn streamed_replay_is_bit_identical_to_materialized() -> io::Result<()> {
        // The tentpole invariant: a chunked replay — at any chunk size,
        // including seams inside the warm-up region — serializes to the
        // exact bytes of the materialized replay, for every scheme.
        let p = profiles::by_name("gcc").unwrap();
        let config = small_config();
        let trace = generate_trace(&p, config);
        for chunk_ops in [999usize, 4_096, 22_000, 50_000] {
            for scheme in SchemeKind::ALL {
                let materialized = run(scheme, Ops::Trace(&trace), config)?;
                let streamed = run(
                    scheme,
                    Ops::Chunks(Box::new(chunks_for(&p, config, chunk_ops))),
                    config,
                )?;
                assert_eq!(
                    serde_json::to_string(&materialized).unwrap(),
                    serde_json::to_string(&streamed).unwrap(),
                    "scheme={} chunk_ops={chunk_ops}",
                    scheme.name()
                );
            }
            let materialized = measure_stream(Ops::Trace(&trace), config);
            let streamed = measure_stream(
                Ops::Chunks(Box::new(chunks_for(&p, config, chunk_ops))),
                config,
            );
            assert_eq!(
                serde_json::to_string(&materialized).unwrap(),
                serde_json::to_string(&streamed).unwrap(),
                "stream stats, chunk_ops={chunk_ops}"
            );
        }
        Ok(())
    }

    #[test]
    fn streamed_sampled_series_is_byte_identical_to_materialized() -> io::Result<()> {
        // Chunk seams fall mid-window (cadence 1024, chunk 1000): the
        // streamed sampler must emit the same windows and the same JSONL
        // bytes as the materialized sampled replay.
        use std::sync::{Arc as StdArc, Mutex};

        #[derive(Clone)]
        struct SharedBuf(StdArc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let p = profiles::by_name("mcf").unwrap();
        let config = small_config();
        let trace = generate_trace(&p, config);
        let sampler_config = SamplerConfig {
            cadence: 1_024,
            ring_capacity: 64,
        };

        let run = |ops: Ops<'_>| -> io::Result<(SchemeResult, Vec<u8>)> {
            let buf = SharedBuf(StdArc::new(Mutex::new(Vec::new())));
            let mut sampler = Sampler::new("mcf", SchemeKind::WgRb.name(), sampler_config)
                .with_writer(Box::new(buf.clone()));
            let mut controller = SchemeKind::WgRb.build(config.geometry);
            let result = replay(
                controller.as_mut(),
                ops,
                config.warmup_ops,
                Some(&mut sampler),
            )?;
            let bytes = buf.0.lock().unwrap().clone();
            Ok((result, bytes))
        };

        let (materialized, mat_bytes) = run(Ops::Trace(&trace))?;
        for chunk_ops in [1_000usize, 4_096] {
            let (streamed, stream_bytes) =
                run(Ops::Chunks(Box::new(chunks_for(&p, config, chunk_ops))))?;
            assert_eq!(
                mat_bytes, stream_bytes,
                "JSONL bytes, chunk_ops={chunk_ops}"
            );
            assert_eq!(
                materialized.series, streamed.series,
                "ring series, chunk_ops={chunk_ops}"
            );
            assert_eq!(materialized.stats, streamed.stats);
        }
        Ok(())
    }

    #[test]
    fn streamed_warmup_reset_handles_every_seam_case() -> io::Result<()> {
        // The reset must fire exactly before the op at index warmup_ops:
        // at a chunk seam, mid-chunk, with no warm-up at all, and with a
        // warm-up longer than the stream (never fires).
        let p = profiles::by_name("gcc").unwrap();
        let base = small_config();
        let trace = generate_trace(&p, base);
        for warmup_ops in [0usize, 1_000, 1_001, 2_000, 21_999, 22_000, 50_000] {
            let config = RunConfig { warmup_ops, ..base };
            let materialized = run(SchemeKind::Wg, Ops::Trace(&trace), config)?;
            let streamed = run(
                SchemeKind::Wg,
                Ops::Chunks(Box::new(chunks_for(&p, base, 1_000))),
                config,
            )?;
            assert_eq!(
                serde_json::to_string(&materialized).unwrap(),
                serde_json::to_string(&streamed).unwrap(),
                "warmup_ops={warmup_ops}"
            );
        }
        Ok(())
    }

    #[test]
    fn prefetched_streamed_replay_matches_direct_streaming() -> io::Result<()> {
        // Double-buffered prefetch is pure plumbing: same chunks, same
        // result, even though generation happens on another thread.
        let p = profiles::by_name("gcc").unwrap();
        let config = small_config();
        let direct = run(
            SchemeKind::Rmw,
            Ops::Chunks(Box::new(chunks_for(&p, config, 2_048))),
            config,
        )?;
        let prefetched = run(
            SchemeKind::Rmw,
            Ops::Chunks(Box::new(crate::stream::PrefetchedChunks::spawn(
                chunks_for(&p, config, 2_048),
            ))),
            config,
        )?;
        assert_eq!(
            serde_json::to_string(&direct).unwrap(),
            serde_json::to_string(&prefetched).unwrap()
        );
        Ok(())
    }

    #[test]
    fn long_sampled_replays_hold_a_bounded_ring() -> io::Result<()> {
        // Memory for an arbitrarily long replay is O(ring), not O(ops):
        // far more windows are emitted than retained.
        let p = profiles::by_name("mcf").unwrap();
        let config = RunConfig::new(CacheGeometry::paper_baseline(), 200_000, 7);
        let trace = generate_trace(&p, config);
        let sampler_config = SamplerConfig {
            cadence: 64,
            ring_capacity: 32,
        };
        let mut sampler = Sampler::new("mcf", "WG", sampler_config);
        let mut controller = SchemeKind::Wg.build(config.geometry);
        let result = replay(
            controller.as_mut(),
            Ops::Trace(&trace),
            config.warmup_ops,
            Some(&mut sampler),
        )?;
        let windows = config.total_ops() as u64 / 64;
        assert!(sampler.emitted() >= windows, "{}", sampler.emitted());
        assert_eq!(result.series.len(), 32, "ring must stay at capacity");
        // The retained tail is the most recent windows, in order.
        let last = result.series.last().unwrap();
        assert_eq!(last.op_end, config.total_ops() as u64);
        Ok(())
    }
}
