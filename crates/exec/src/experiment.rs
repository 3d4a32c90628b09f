//! The replay driver and the result types every replay produces.
//!
//! `Lane` is the one loop that replays a trace for a result: the sweep
//! engine's jobs feed it chunk by chunk, and [`replay`] — behind
//! `simulate`, `bench-core` and the harness binaries — is one lane fed
//! a whole [`Ops`] stream, so the batched kernels the lockstep suites pin
//! are the code behind every reported number. [`BenchmarkResult`]s come
//! from the sweep engine ([`crate::sweep::run_sweep`]) alone.

use std::borrow::{Borrow, BorrowMut};
use std::io;

use serde::Serialize;

/// The scheme registry lives in `cache8t-core`; it is re-exported here
/// because every runner of this module iterates it.
pub use cache8t_core::SchemeKind;
use cache8t_core::{ArrayTraffic, Controller};
use cache8t_obs::{MetricRegistry, Sampler, SeriesSample, Span, TraceEvent};
use cache8t_sim::{CacheGeometry, CacheStats};
use cache8t_trace::analyze::{StreamStats, StreamStatsAccumulator};
use cache8t_trace::{warmup_split, DecodedBatch, MemOp, Trace};

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
    /// The controller's metric registry (counters, gauges, histograms)
    /// after the measured region; serialized as its
    /// [`to_value`](MetricRegistry::to_value) snapshot.
    pub metrics: MetricRegistry,
    /// Structural trace events recorded during the measured region.
    /// Empty unless `CACHE8T_TRACE` is `event` or `verbose`; excluded
    /// from the serialized result (use `--trace-out` for the JSONL).
    #[serde(skip)]
    pub events: Vec<TraceEvent>,
    /// Windowed telemetry samples recorded during the replay. Empty
    /// unless the run was sampled without a writer (a writer streams
    /// the windows instead; see [`replay`]);
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
        self.wg.traffic.reduction_vs(&self.rmw.traffic)
    }

    /// WG+RB's access reduction vs RMW (the right bars of Figures 9–11).
    pub fn wgrb_reduction(&self) -> f64 {
        self.wgrb.traffic.reduction_vs(&self.rmw.traffic)
    }

    /// The four scheme results in canonical order.
    pub fn schemes(&self) -> [&SchemeResult; 4] {
        [&self.conventional, &self.rmw, &self.wg, &self.wgrb]
    }
}

/// Ops per pre-decoded sub-batch of the replay driver.
///
/// Large enough to amortize the decode pass and keep the per-batch loop
/// overhead negligible; small enough that the decoded columns (~41 B/op)
/// stay cache-resident and the streamed replay's memory stays bounded by
/// the chunk size, not the trace length.
const REPLAY_BATCH_OPS: usize = 8192;

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
/// and snapshots its statistics and telemetry: one `Lane` fed every
/// slice of `ops`, materialized or streamed, sampled or not.
///
/// # Errors
///
/// Returns the sampler writer's I/O error. A replay without a sampler,
/// or with a writerless one, does no I/O.
pub fn replay(
    controller: &mut dyn Controller,
    ops: Ops<'_>,
    warmup_ops: usize,
    sampler: Option<&mut Sampler>,
) -> io::Result<SchemeResult> {
    let mut lane = Lane::new(controller, warmup_ops, sampler);
    ops.try_for_each(|slice, _| lane.feed(slice))?;
    lane.finish()
}

/// One controller's replay in progress, fed a trace slice by slice: the
/// one replay loop behind every run. [`replay`] is a single lane over a
/// borrowed controller and sampler; a sweep job's lanes own theirs, and
/// the job feeds each chunk of its trace to every scheme lane of every
/// geometry in turn.
///
/// [`feed`](Lane::feed) decodes each sub-batch of at most 8192 ops once,
/// then services it with `access_batch` over ranges cut at the nearest
/// of:
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
/// With a sampler, each window diffs the controller's registry and
/// probes its buffer occupancy; a writerless sampler's windows land in
/// [`SchemeResult::series`], an attached writer streams every window as
/// JSONL and is flushed after every fed slice. The controller's name
/// labels the span of each feed, so the span report breaks replay time
/// down per scheme.
pub(crate) struct Lane<C, S> {
    controller: C,
    sampler: Option<S>,
    batch: DecodedBatch,
    warmup: u64,
    /// Global index of the next op fed.
    index: u64,
}

impl<'c, C, S> Lane<C, S>
where
    C: BorrowMut<dyn Controller + 'c>,
    S: BorrowMut<Sampler>,
{
    /// A lane over a fresh `controller` (borrowed or owned), resetting
    /// its counters before the op with global index `warmup_ops`.
    pub(crate) fn new(mut controller: C, warmup_ops: usize, mut sampler: Option<S>) -> Self {
        let c: &mut (dyn Controller + 'c) = controller.borrow_mut();
        if let Some(s) = sampler.as_mut() {
            s.borrow_mut().rebaseline(c.backend().obs().registry());
        }
        Lane {
            batch: DecodedBatch::new(c.cache().geometry()),
            controller,
            sampler,
            warmup: warmup_ops as u64,
            index: 0,
        }
    }

    /// Replays the next `ops` of the stream.
    ///
    /// # Errors
    ///
    /// Returns the sampler writer's I/O error.
    pub(crate) fn feed(&mut self, ops: &[MemOp]) -> io::Result<()> {
        let controller: &mut (dyn Controller + 'c) = self.controller.borrow_mut();
        let mut sampler = self.sampler.as_mut().map(BorrowMut::<Sampler>::borrow_mut);
        let (batch, warmup) = (&mut self.batch, self.warmup);
        let mut index = self.index;
        let _span = Span::enter(controller.name());
        for sub in ops.chunks(REPLAY_BATCH_OPS) {
            batch.decode(sub);
            let sub_end = index + sub.len() as u64;
            let mut pos = 0;
            while pos < sub.len() {
                let at = index + pos as u64;
                if at == warmup {
                    controller.reset_counters();
                    if let Some(s) = sampler.as_deref_mut() {
                        s.rebaseline(controller.backend().obs().registry());
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
                controller.access_batch(batch, pos..end);
                if let Some(s) = sampler.as_deref_mut() {
                    if s.note_ops((end - pos) as u64) {
                        let occupancy = controller.occupancy().unwrap_or_default();
                        s.sample(controller.backend().obs().registry(), occupancy)?;
                    }
                }
                pos = end;
            }
            index = sub_end;
        }
        self.index = index;
        match sampler {
            Some(s) => s.flush_writer(),
            None => Ok(()),
        }
    }

    /// Flushes the controller and snapshots its statistics, telemetry
    /// and series.
    ///
    /// # Errors
    ///
    /// Returns the sampler writer's I/O error.
    pub(crate) fn finish(mut self) -> io::Result<SchemeResult> {
        let controller: &mut (dyn Controller + 'c) = self.controller.borrow_mut();
        controller.flush();
        let obs = controller.backend().obs();
        let series = match self.sampler.as_mut().map(BorrowMut::<Sampler>::borrow_mut) {
            Some(s) => {
                s.finish(obs.registry(), controller.occupancy().unwrap_or_default())?;
                s.take_samples()
            }
            None => Vec::new(),
        };
        Ok(SchemeResult {
            scheme: controller.name(),
            array_accesses: controller.array_accesses(),
            traffic: *controller.traffic(),
            stats: *controller.stats(),
            metrics: obs.registry().clone(),
            events: obs.tracer().events().copied().collect(),
            series,
        })
    }
}

/// The Figure-3/4/5 stream statistics of one geometry's measured region,
/// folded slice by slice — a sweep job keeps one per geometry beside its
/// scheme lanes. The ops past the warm-up fold through the incremental
/// accumulator, normalized by the `warmup_split` pro-rating of the whole
/// stream, so a chunk stream measures bit-identically to its
/// materialized trace.
pub(crate) struct StreamFold {
    acc: StreamStatsAccumulator,
    warmup_ops: usize,
    total_ops: u64,
    total_instructions: u64,
}

impl StreamFold {
    /// A fold at `config`'s geometry and warm-up.
    pub(crate) fn new(config: RunConfig) -> Self {
        StreamFold {
            acc: StreamStatsAccumulator::new(config.geometry),
            warmup_ops: config.warmup_ops,
            total_ops: 0,
            total_instructions: 0,
        }
    }

    /// Folds the next `ops` of the stream, which represent
    /// `instructions` instructions.
    pub(crate) fn feed(&mut self, ops: &[MemOp], instructions: u64) {
        let _span = Span::enter("bench.stream_stats");
        let skip = (self.warmup_ops as u64)
            .saturating_sub(self.total_ops)
            .min(ops.len() as u64);
        self.acc.feed(&ops[skip as usize..]);
        self.total_ops += ops.len() as u64;
        self.total_instructions += instructions;
    }

    /// The statistics of the measured region.
    pub(crate) fn finish(self) -> StreamStats {
        let split = warmup_split(
            self.total_ops as usize,
            self.total_instructions,
            self.warmup_ops,
        );
        self.acc.finish(split.measured_instructions)
    }
}

/// Arithmetic mean of a per-benchmark metric over owned or borrowed
/// results.
pub fn average<R: Borrow<BenchmarkResult>>(results: &[R], f: fn(&BenchmarkResult) -> f64) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(|r| f(r.borrow())).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_obs::SamplerConfig;
    use cache8t_trace::{
        profiles, ChunkedGenerator, ProfiledGenerator, TraceGenerator, WorkloadProfile,
    };

    fn small_config() -> RunConfig {
        RunConfig::new(CacheGeometry::paper_baseline(), 20_000, 7)
    }

    /// The benchmark's trace as the trace store generates it: shaped at
    /// the reference geometry, warm-up included.
    fn trace_for(p: &WorkloadProfile, config: RunConfig) -> Trace {
        ProfiledGenerator::new(p.clone(), CacheGeometry::paper_baseline(), config.seed)
            .collect(config.total_ops())
    }

    /// The stream statistics of `ops`, folded as a sweep job folds them.
    fn measure_stream(ops: Ops<'_>, config: RunConfig) -> StreamStats {
        let mut fold = StreamFold::new(config);
        let Ok(()) = ops.try_for_each(|slice, instructions| {
            fold.feed(slice, instructions);
            Ok::<(), std::convert::Infallible>(())
        });
        fold.finish()
    }

    /// One unsampled scheme lane.
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
    fn sampling_does_not_perturb_the_measurement() -> io::Result<()> {
        // A sampled run must report byte-identical results to the plain
        // runner — telemetry observes the replay, it never changes it.
        let p = profiles::by_name("gcc").unwrap();
        let config = small_config();
        let trace = trace_for(&p, config);
        let plain = run(SchemeKind::Wg, Ops::Trace(&trace), config)?;
        let mut sampler = Sampler::new(
            "gcc",
            SchemeKind::Wg.name(),
            SamplerConfig::with_cadence(1_024),
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
        let trace = trace_for(&p, config);
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

    /// A writer whose bytes stay readable after the sampler owning it
    /// is gone.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

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
    fn streamed_sampled_series_is_byte_identical_to_materialized() -> io::Result<()> {
        // Chunk seams fall mid-window (cadence 1024, chunk 1000): the
        // streamed sampler must emit the same windows and the same JSONL
        // bytes as the materialized sampled replay.
        let p = profiles::by_name("mcf").unwrap();
        let config = small_config();
        let trace = trace_for(&p, config);
        let sampler_config = SamplerConfig::with_cadence(1_024);

        let run = |ops: Ops<'_>| -> io::Result<(SchemeResult, Vec<u8>)> {
            let buf = SharedBuf::default();
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
        let trace = trace_for(&p, base);
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
    fn a_writer_backed_sampler_streams_every_window_and_keeps_none() -> io::Result<()> {
        // Memory for an arbitrarily long streamed replay does not grow
        // with its windows: every one is written, none is kept.
        let p = profiles::by_name("mcf").unwrap();
        let config = RunConfig::new(CacheGeometry::paper_baseline(), 200_000, 7);
        let trace = trace_for(&p, config);
        let buf = SharedBuf::default();
        let mut sampler = Sampler::new("mcf", "WG", SamplerConfig::with_cadence(64))
            .with_writer(Box::new(buf.clone()));
        let mut controller = SchemeKind::Wg.build(config.geometry);
        let result = replay(
            controller.as_mut(),
            Ops::Trace(&trace),
            config.warmup_ops,
            Some(&mut sampler),
        )?;
        let windows = (config.total_ops() as u64).div_ceil(64);
        assert!(sampler.emitted() >= windows, "{}", sampler.emitted());
        assert!(result.series.is_empty(), "streamed windows are not kept");
        assert!(sampler.samples().is_empty());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let rows: Vec<SeriesSample> = text
            .lines()
            .map(|line| cache8t_obs::sampler::parse_series_line(line).expect("series row"))
            .collect();
        assert_eq!(rows.len() as u64, sampler.emitted(), "one line per window");
        assert!(rows.iter().enumerate().all(|(i, r)| r.window == i as u64));
        assert_eq!(rows.last().unwrap().op_end, config.total_ops() as u64);
        Ok(())
    }
}
