//! Declarative sweep plans and their parallel execution.
//!
//! A [`SweepPlan`] is the cross product of workloads × geometries ×
//! schemes at one (ops, seed) point. [`run_sweep`] expands it into
//! fine-grained unit jobs — one per (geometry, benchmark, scheme) plus
//! one stream-statistics unit per (geometry, benchmark) — and executes
//! them on the work-stealing pool over a shared, generate-once
//! [`TraceStore`].
//!
//! ## Determinism guarantee
//!
//! Every unit job is a pure function of the plan (generators are
//! seeded, controllers are deterministic), and the merge layer
//! reassembles outcomes by *plan position*, never by completion order.
//! The serialized sweep document is therefore byte-identical for any
//! `--jobs` value and any schedule; the scheduler only decides *when*
//! work happens, never *what* the answer is. Scheduler telemetry that
//! does vary (wall-clock, steal counts, cache-hit split) is kept in the
//! separate [`SweepOutcome::metrics`] registry, which deliberately
//! never enters the document.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value;

use cache8t_obs::{MetricRegistry, Sampler, SamplerConfig, SeriesSample, SpanStat, TimelineSpan};
use cache8t_sim::CacheGeometry;
use cache8t_trace::analyze::StreamStats;
use cache8t_trace::{profiles, WorkloadProfile};

use crate::experiment::{
    measure_stream, replay, BenchmarkResult, Ops, RunConfig, SchemeKind, SchemeResult,
};
use crate::pool::{run_jobs_cancellable, CancelToken, ExecOptions, JobOutcome, JobProgress};
use crate::store::TraceStore;
use crate::stream::PrefetchedChunks;

/// One cache configuration of a sweep, with a stable display label.
#[derive(Debug, Clone)]
pub struct GeometryPoint {
    /// Short stable label (`"baseline"`, `"blocks64"`, ...).
    pub label: String,
    /// The cache geometry simulated at this point.
    pub geometry: CacheGeometry,
}

impl GeometryPoint {
    /// A labelled geometry point.
    pub fn new(label: impl Into<String>, geometry: CacheGeometry) -> Self {
        GeometryPoint {
            label: label.into(),
            geometry,
        }
    }

    /// The four named paper configurations, in report-card order:
    /// `baseline` (64 KB/4w/32 B), `blocks64` (32 KB/4w/64 B),
    /// `small` (32 KB/4w/32 B), `large` (128 KB/4w/32 B).
    pub fn named(label: &str) -> Option<GeometryPoint> {
        let geometry = match label {
            "baseline" => CacheGeometry::paper_baseline(),
            "blocks64" => CacheGeometry::paper_large_blocks(),
            "small" => CacheGeometry::paper_small(),
            "large" => CacheGeometry::paper_large(),
            _ => return None,
        };
        Some(GeometryPoint::new(label, geometry))
    }
}

/// The declarative input of a sweep: workloads × geometries × schemes
/// at one (ops, seed) point.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Workload profiles, in output order.
    pub profiles: Vec<WorkloadProfile>,
    /// Cache configurations, in output order.
    pub geometries: Vec<GeometryPoint>,
    /// Measured operations per benchmark (warm-up is the standard 10 %).
    pub ops: usize,
    /// Generator seed.
    pub seed: u64,
}

impl SweepPlan {
    /// The full 25-benchmark SPEC-like suite over `geometries`.
    pub fn suite(geometries: Vec<GeometryPoint>, ops: usize, seed: u64) -> Self {
        SweepPlan {
            profiles: profiles::spec2006(),
            geometries,
            ops,
            seed,
        }
    }

    /// The run configuration at geometry index `g`.
    pub fn config(&self, g: usize) -> RunConfig {
        RunConfig::new(self.geometries[g].geometry, self.ops, self.seed)
    }

    /// Benchmarks in the full plan (geometries × profiles).
    pub fn benchmark_count(&self) -> usize {
        self.geometries.len() * self.profiles.len()
    }
}

/// A `--shard i/n` selection: this process runs benchmark slots
/// `index, index + count, ...` of the plan's flattened
/// (geometry, profile) grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index.
    pub index: usize,
    /// Total shards.
    pub count: usize,
}

impl Shard {
    /// Parses the CLI form `i/n` with 1-based `i`.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed specs, `n == 0`, or `i` outside
    /// `1..=n`.
    pub fn parse(spec: &str) -> Result<Shard, String> {
        let (i, n) = spec
            .split_once('/')
            .ok_or_else(|| format!("--shard expects i/n, got `{spec}`"))?;
        let index: usize = i
            .parse()
            .map_err(|_| format!("invalid shard index `{i}`"))?;
        let count: usize = n
            .parse()
            .map_err(|_| format!("invalid shard count `{n}`"))?;
        if count == 0 || index == 0 || index > count {
            return Err(format!("shard `{spec}` out of range (need 1 <= i <= n)"));
        }
        Ok(Shard {
            index: index - 1,
            count,
        })
    }

    fn selects(&self, slot: usize) -> bool {
        slot % self.count == self.index
    }
}

/// A benchmark-completion event, fired live from whichever worker
/// thread finishes a benchmark's last unit job.
#[derive(Debug)]
pub struct BenchmarkEvent<'a> {
    /// Geometry index in the plan.
    pub geometry: usize,
    /// Profile (benchmark) index in the plan.
    pub benchmark: usize,
    /// Flattened benchmark slot: `geometry * n_profiles + benchmark` —
    /// the same numbering `--shard` and [`SweepOptions::slots`] use.
    pub slot: usize,
    /// Benchmarks finished so far in this sweep, this one included —
    /// completion order, so consumers (checkpoint logs, dashboards)
    /// get `completed/total` progress without tracking it themselves.
    pub completed: usize,
    /// Benchmarks this sweep will run in total (after shard/slot
    /// selection).
    pub total: usize,
    /// The assembled result.
    pub result: &'a BenchmarkResult,
}

/// Signature of a live benchmark-completion observer.
pub type BenchmarkHookFn = dyn Fn(BenchmarkEvent<'_>) + Send + Sync;

/// A shareable [`BenchmarkHookFn`], newtyped so [`SweepOptions`] can
/// keep deriving `Debug`/`Clone`.
///
/// The hook runs on worker threads, once per benchmark, as soon as the
/// benchmark's fifth unit job lands (completion order, *not* plan
/// order). It is the checkpoint-journal attachment point: persisting
/// each event makes every completed benchmark durable the moment it
/// finishes, independent of whether the sweep itself survives.
#[derive(Clone)]
pub struct BenchmarkHook(pub Arc<BenchmarkHookFn>);

impl BenchmarkHook {
    /// Wraps a closure as a hook.
    pub fn new(hook: impl Fn(BenchmarkEvent<'_>) + Send + Sync + 'static) -> Self {
        BenchmarkHook(Arc::new(hook))
    }
}

impl fmt::Debug for BenchmarkHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BenchmarkHook(..)")
    }
}

/// A shareable [`JobProgress`] observer, for callers that want the
/// pool's live progress as data (the serve daemon ships it over the
/// wire) instead of — or in addition to — the stderr progress line.
/// Runs on worker threads after every finished unit job.
#[derive(Clone)]
pub struct ProgressHook(pub Arc<dyn Fn(JobProgress) + Send + Sync>);

impl ProgressHook {
    /// Wraps a closure as a hook.
    pub fn new(hook: impl Fn(JobProgress) + Send + Sync + 'static) -> Self {
        ProgressHook(Arc::new(hook))
    }
}

impl fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// How a sweep should be executed.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Scheduler configuration (worker count, retry budget).
    pub exec: ExecOptions,
    /// Restrict to one shard of the benchmark grid.
    pub shard: Option<Shard>,
    /// Restrict to an explicit set of benchmark slots (flattened
    /// `geometry * n_profiles + benchmark` indices). Takes precedence
    /// over `shard`; the resume path uses this to re-run exactly the
    /// benchmarks a checkpoint journal is missing.
    pub slots: Option<Vec<usize>>,
    /// Emit a live progress line on stderr while running.
    pub progress: bool,
    /// The trace store jobs draw from.
    pub store: Arc<TraceStore>,
    /// Attach a continuous-telemetry sampler to every scheme unit.
    /// The recorded windows land in each [`SchemeResult`]'s `series`
    /// and are retrievable in plan order via [`SweepOutcome::series`];
    /// they depend only on the trace and cadence, never on schedule, so
    /// the resulting JSONL is byte-identical for any `--jobs`.
    pub series: Option<SamplerConfig>,
    /// Cooperative cancellation: once the token fires, queued unit jobs
    /// drain without executing and the sweep returns with the finished
    /// prefix (see [`SweepOutcome::cancelled`]).
    pub cancel: Option<CancelToken>,
    /// Live per-benchmark completion observer (see [`BenchmarkHook`]).
    pub on_benchmark: Option<BenchmarkHook>,
    /// Live per-unit-job progress observer (see [`ProgressHook`]).
    pub on_progress: Option<ProgressHook>,
    /// Replay traces as bounded-memory chunk streams of this many ops
    /// instead of materializing them (see [`TraceStore::stream`]). The
    /// sweep document is byte-identical either way — streaming changes
    /// the memory footprint, never the answer — so large-`ops` sweeps
    /// can run with RSS bounded by the chunk size.
    pub stream_chunk_ops: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            exec: ExecOptions::default(),
            shard: None,
            slots: None,
            progress: false,
            store: Arc::new(TraceStore::in_memory()),
            series: None,
            cancel: None,
            on_benchmark: None,
            on_progress: None,
            stream_chunk_ops: None,
        }
    }
}

/// One benchmark whose jobs did not all complete.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// Geometry label of the failed benchmark.
    pub geometry: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Which unit failed (`"stream"` or a scheme name).
    pub unit: String,
    /// The panic payload or the returned error, stringified.
    pub message: String,
    /// Attempts made before giving up.
    pub attempts: u32,
}

/// One geometry's slice of a sweep outcome.
#[derive(Debug)]
pub struct GeometrySweep {
    /// The geometry point this slice belongs to.
    pub point: GeometryPoint,
    /// One slot per plan profile: `None` when outside this shard or
    /// when any of the benchmark's unit jobs failed.
    pub results: Vec<Option<BenchmarkResult>>,
}

/// Everything a sweep run produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-geometry results, in plan order.
    pub geometries: Vec<GeometrySweep>,
    /// Benchmarks lost to job failures (panics), with their payloads.
    pub failures: Vec<SweepFailure>,
    /// Unit jobs drained without executing after the cancel token fired
    /// (0 for an uncancelled run).
    pub cancelled: usize,
    /// The `sweep.*` metric family: job/steal/retry/park counts,
    /// trace-store hit split, per-job duration and queue-depth
    /// histograms, per-worker busy fractions, worker count, wall-clock.
    /// Never part of the sweep document (it varies with schedule and
    /// machine).
    pub metrics: MetricRegistry,
    /// Span-profiler stats merged across every worker thread (workers'
    /// thread-local profilers die with their threads; the pool hands
    /// their reports here).
    pub spans: Vec<SpanStat>,
    /// Wall-clock of the scheduled region.
    pub elapsed: Duration,
}

impl SweepOutcome {
    /// All telemetry windows recorded by a sampled sweep (see
    /// [`SweepOptions::series`]), in deterministic plan order:
    /// geometry-major, then benchmark, then scheme, then window.
    /// Empty when the sweep ran unsampled.
    pub fn series(&self) -> impl Iterator<Item = &SeriesSample> {
        self.geometries
            .iter()
            .flat_map(|g| g.results.iter().flatten())
            .flat_map(|r| r.schemes())
            .flat_map(|s| s.series.iter())
    }

    /// All benchmark results, expecting a complete, failure-free run
    /// (no shard): one `Vec<BenchmarkResult>` per plan geometry.
    ///
    /// # Errors
    ///
    /// Describes the missing/failed benchmarks otherwise.
    pub fn into_complete(self) -> Result<Vec<Vec<BenchmarkResult>>, String> {
        if !self.failures.is_empty() {
            let mut msg = String::from("sweep jobs failed:");
            for f in &self.failures {
                msg.push_str(&format!(
                    "\n  {}/{} [{}]: {} ({} attempts)",
                    f.geometry, f.benchmark, f.unit, f.message, f.attempts
                ));
            }
            return Err(msg);
        }
        self.geometries
            .into_iter()
            .map(|g| {
                let label = g.point.label;
                g.results
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| {
                        r.ok_or_else(|| {
                            format!("geometry {label}: benchmark #{i} not run (sharded sweep?)")
                        })
                    })
                    .collect()
            })
            .collect()
    }
}

/// The unit jobs of one benchmark: its stream statistics and the four
/// controller schemes.
const UNITS_PER_BENCHMARK: usize = 1 + SchemeKind::ALL.len();

#[derive(Debug, Clone, Copy)]
enum Unit {
    Stream,
    Scheme(SchemeKind),
}

impl Unit {
    fn of(index: usize) -> Unit {
        match index {
            0 => Unit::Stream,
            i => Unit::Scheme(SchemeKind::ALL[i - 1]),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Unit::Stream => "stream",
            Unit::Scheme(kind) => kind.name(),
        }
    }
}

#[derive(Debug)]
enum UnitResult {
    Stream(StreamStats),
    Scheme(Box<SchemeResult>),
}

/// Per-benchmark staging area for the live completion hook: unit jobs
/// clone their result in as they finish, and the insert that completes
/// the set hands the pieces back so the inserting worker can assemble
/// the `BenchmarkResult` and fire the hook exactly once.
#[derive(Default)]
struct BenchAccum {
    stream: Option<StreamStats>,
    /// One slot per scheme, in [`SchemeKind::ALL`] order.
    schemes: Vec<Option<SchemeResult>>,
    fired: bool,
}

impl BenchAccum {
    /// Stages `result`; returns the full set when this insert completed
    /// it. First write wins per slot, so a retried unit job that
    /// partially ran before panicking cannot double-insert.
    fn insert(&mut self, result: &UnitResult) -> Option<BenchAccum> {
        if self.schemes.is_empty() {
            self.schemes = (0..SchemeKind::ALL.len()).map(|_| None).collect();
        }
        match result {
            UnitResult::Stream(stats) => {
                self.stream.get_or_insert(*stats);
            }
            UnitResult::Scheme(result) => {
                let index = SchemeKind::ALL
                    .iter()
                    .position(|k| k.name() == result.scheme)
                    .expect("scheme result names a known kind");
                self.schemes[index].get_or_insert_with(|| (**result).clone());
            }
        }
        let complete = self.stream.is_some() && self.schemes.iter().all(Option::is_some);
        if !complete || self.fired {
            return None;
        }
        let taken = std::mem::take(self);
        self.fired = true; // survives the take: the hook fires once
        Some(taken)
    }
}

/// Executes `plan` on the work-stealing pool and reassembles the
/// outcomes deterministically (see the module docs for the guarantee).
pub fn run_sweep(plan: &SweepPlan, options: &SweepOptions) -> SweepOutcome {
    let started = Instant::now();
    let n_profiles = plan.profiles.len();

    // Expand the plan: selection is per *benchmark* (never per unit),
    // so a shard or slot set always holds complete benchmarks and
    // partial outputs merge by simple union. An explicit slot set
    // (resume: "exactly the benchmarks the journal is missing") takes
    // precedence over modular sharding.
    let selected = |slot: usize| match &options.slots {
        Some(slots) => slots.contains(&slot),
        None => options.shard.is_none_or(|s| s.selects(slot)),
    };
    let mut specs: Vec<(usize, usize, Unit)> = Vec::new();
    for g in 0..plan.geometries.len() {
        for b in 0..n_profiles {
            let slot = g * n_profiles + b;
            if selected(slot) {
                for u in 0..UNITS_PER_BENCHMARK {
                    specs.push((g, b, Unit::of(u)));
                }
            }
        }
    }

    // Live per-benchmark assembly for the completion hook: the five
    // unit jobs of benchmark i occupy specs[i*5 .. i*5+5], so spec
    // index / 5 addresses the benchmark's accumulator. Jobs clone
    // their result in; whichever worker lands the fifth piece fires
    // the hook. Only paid when a hook is installed.
    let accumulators: Vec<Mutex<BenchAccum>> = if options.on_benchmark.is_some() {
        (0..specs.len() / UNITS_PER_BENCHMARK)
            .map(|_| Mutex::new(BenchAccum::default()))
            .collect()
    } else {
        Vec::new()
    };

    let store = &options.store;
    let series = options.series;
    let stream_chunk_ops = options.stream_chunk_ops;
    let hook = options.on_benchmark.as_ref();
    let accumulators = &accumulators;
    let completed_benchmarks = std::sync::atomic::AtomicUsize::new(0);
    let completed_benchmarks = &completed_benchmarks;
    let jobs: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(spec_index, &(g, b, unit))| {
            let store = Arc::clone(store);
            move || {
                let profile = &plan.profiles[b];
                let _slice = TimelineSpan::enter_lazy(
                    || {
                        format!(
                            "{}/{}/{}",
                            plan.geometries[g].label,
                            profile.name,
                            unit.name()
                        )
                    },
                    "job",
                );
                let config = plan.config(g);
                // Pick a source. A streamed unit never materializes the
                // trace: it takes its own cursor (deduplicated through
                // the stream's shared frontier) behind a double-buffered
                // prefetcher, so at most two chunks per unit are resident.
                let trace;
                let ops = match stream_chunk_ops {
                    Some(chunk_ops) => {
                        let stream =
                            store.stream(profile, plan.seed, config.total_ops(), chunk_ops);
                        Ops::Chunks(Box::new(PrefetchedChunks::spawn(stream.cursor())))
                    }
                    None => {
                        trace = store.get(profile, plan.seed, config.total_ops());
                        Ops::Trace(&trace)
                    }
                };
                let result = match unit {
                    Unit::Stream => Ok(UnitResult::Stream(measure_stream(ops, config))),
                    Unit::Scheme(kind) => {
                        let mut sampler = series.map(|sampler_config| {
                            let bench = format!("{}/{}", plan.geometries[g].label, profile.name);
                            Sampler::new(&bench, kind.name(), sampler_config)
                        });
                        let mut controller = kind.build(config.geometry);
                        replay(
                            controller.as_mut(),
                            ops,
                            config.warmup_ops,
                            sampler.as_mut(),
                        )
                        .map(|result| UnitResult::Scheme(Box::new(result)))
                        .map_err(|e| format!("series sampler failed: {e}"))
                    }
                };
                if let (Some(hook), Ok(result)) = (hook, &result) {
                    let accum = &accumulators[spec_index / UNITS_PER_BENCHMARK];
                    let assembled = accum
                        .lock()
                        .expect("benchmark accumulator poisoned")
                        .insert(result);
                    if let Some(mut schemes) = assembled {
                        let stream = schemes.stream.take().expect("stream present");
                        let mut take =
                            |i: usize| schemes.schemes[i].take().expect("scheme present");
                        let assembled = BenchmarkResult {
                            name: profile.name.clone(),
                            stream,
                            conventional: take(0),
                            rmw: take(1),
                            wg: take(2),
                            wgrb: take(3),
                        };
                        let completed = completed_benchmarks
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                            + 1;
                        hook.0(BenchmarkEvent {
                            geometry: g,
                            benchmark: b,
                            slot: g * n_profiles + b,
                            completed,
                            total: accumulators.len(),
                            result: &assembled,
                        });
                    }
                }
                result
            }
        })
        .collect();

    let progress = options.progress.then(|| {
        cache8t_obs::progress::ProgressLine::new(
            "sweep",
            jobs.len(),
            cache8t_obs::progress::ProgressMode::from_env(),
        )
    });
    // Live throughput for the progress line, from the *windowed*
    // recent-jobs mean rather than the all-time average: replayed ops
    // per microsecond across the workers is exactly Mops/s, and the
    // window makes the figure track the current benchmark mix.
    let ops_per_job = plan.config(0).total_ops() as f64;
    let observer = |p: JobProgress| {
        if let Some(line) = &progress {
            line.tick_rate(p.done, p.failed, p.eta(), p.mops(ops_per_job));
        }
        if let Some(hook) = &options.on_progress {
            hook.0(p);
        }
    };
    let report = run_jobs_cancellable(
        jobs,
        &options.exec,
        options.cancel.as_ref(),
        Some(&observer),
    );
    if let Some(line) = &progress {
        line.finish();
    }

    // Deterministic merge: outcomes land in spec order, and specs were
    // emitted in plan order.
    let mut geometries: Vec<GeometrySweep> = plan
        .geometries
        .iter()
        .map(|point| GeometrySweep {
            point: point.clone(),
            results: (0..n_profiles).map(|_| None).collect(),
        })
        .collect();
    let mut failures = Vec::new();
    let mut cancelled = 0usize;
    let mut pending: Option<(usize, usize, Vec<SchemeResult>, Option<StreamStats>)> = None;
    for (&(g, b, unit), outcome) in specs.iter().zip(report.outcomes) {
        let slot = match &mut pending {
            Some(p) if p.0 == g && p.1 == b => p,
            _ => {
                flush_benchmark(&mut geometries, plan, pending.take());
                pending = Some((g, b, Vec::new(), None));
                pending.as_mut().expect("just set")
            }
        };
        let failure = |message, attempts| SweepFailure {
            geometry: plan.geometries[g].label.clone(),
            benchmark: plan.profiles[b].name.clone(),
            unit: unit.name().to_string(),
            message,
            attempts,
        };
        match outcome {
            JobOutcome::Completed(Ok(UnitResult::Stream(stats))) => slot.3 = Some(stats),
            JobOutcome::Completed(Ok(UnitResult::Scheme(result))) => slot.2.push(*result),
            // A unit that returned an error ran once and was not retried.
            JobOutcome::Completed(Err(message)) => failures.push(failure(message, 1)),
            JobOutcome::Failed { message, attempts } => failures.push(failure(message, attempts)),
            // A drained unit leaves its benchmark incomplete; the
            // benchmark simply stays `None`, exactly like an
            // out-of-shard slot, and a resume re-runs it whole.
            JobOutcome::Cancelled => cancelled += 1,
        }
    }
    flush_benchmark(&mut geometries, plan, pending.take());

    let elapsed = started.elapsed();
    let mut metrics = MetricRegistry::new();
    let store_stats = options.store.stats();
    for (name, value) in [
        ("sweep.jobs", specs.len() as u64),
        ("sweep.jobs_failed", failures.len() as u64),
        ("sweep.jobs_cancelled", cancelled as u64),
        ("sweep.retries", report.retries),
        ("sweep.steals", report.steals),
        (
            "sweep.parks",
            report.worker_stats.iter().map(|w| w.parks).sum(),
        ),
        (
            "sweep.benchmarks",
            (specs.len() / UNITS_PER_BENCHMARK) as u64,
        ),
        ("sweep.trace.generated", store_stats.generated),
        ("sweep.trace.mem_hits", store_stats.mem_hits),
        ("sweep.trace.disk_hits", store_stats.disk_hits),
        ("sweep.trace.recovered", store_stats.recovered),
        (
            "sweep.trace.stream_chunks",
            store_stats.stream_chunks_generated,
        ),
        ("sweep.trace.stream_mem_hits", store_stats.stream_mem_hits),
        (
            "sweep.trace.stream_disk_chunks",
            store_stats.stream_disk_chunks,
        ),
        ("sweep.trace.stream_restarts", store_stats.stream_restarts),
    ] {
        let id = metrics.counter(name);
        metrics.add(id, value);
    }
    let workers = metrics.gauge("sweep.workers");
    metrics.set(workers, options.exec.effective_workers() as i64);
    let wall = metrics.gauge("sweep.elapsed_ms");
    metrics.set(wall, elapsed.as_millis() as i64);
    let job_us = metrics.histogram("sweep.job_us");
    metrics.merge_histogram(job_us, &report.job_durations_us);
    let depth = metrics.histogram("sweep.queue_depth");
    metrics.merge_histogram(depth, &report.queue_depths);
    for (i, stats) in report.worker_stats.iter().enumerate() {
        let busy = metrics.gauge(&format!("sweep.worker.{i}.busy_pct"));
        metrics.set(busy, stats.busy_pct().round() as i64);
        let jobs = metrics.counter(&format!("sweep.worker.{i}.jobs"));
        metrics.add(jobs, stats.jobs);
        let steals = metrics.counter(&format!("sweep.worker.{i}.steals"));
        metrics.add(steals, stats.steals);
    }
    // Per-worker throughput / queue-depth series, folded into the
    // scheduler-telemetry family (wall-clock quantities stay out of
    // deterministic documents; `perfdiff --ignore sweep.` skips them).
    for (i, samples) in report.worker_series.iter().enumerate() {
        let depth = metrics.histogram(&format!("sweep.worker.{i}.queue_depth"));
        let gap = metrics.histogram(&format!("sweep.worker.{i}.job_gap_ms"));
        let mut previous_ms = 0;
        for sample in samples {
            metrics.observe(depth, sample.queue_depth);
            metrics.observe(gap, sample.at_ms.saturating_sub(previous_ms));
            previous_ms = sample.at_ms;
        }
    }

    SweepOutcome {
        geometries,
        failures,
        cancelled,
        metrics,
        spans: report.spans,
        elapsed,
    }
}

/// Assembles one benchmark's five unit results into a
/// `BenchmarkResult`, dropping it (the failure is already recorded)
/// when any unit is missing.
fn flush_benchmark(
    geometries: &mut [GeometrySweep],
    plan: &SweepPlan,
    pending: Option<(usize, usize, Vec<SchemeResult>, Option<StreamStats>)>,
) {
    let Some((g, b, mut schemes, stream)) = pending else {
        return;
    };
    let (Some(stream), true) = (stream, schemes.len() == SchemeKind::ALL.len()) else {
        return;
    };
    let wgrb = schemes.pop().expect("four schemes");
    let wg = schemes.pop().expect("three schemes");
    let rmw = schemes.pop().expect("two schemes");
    let conventional = schemes.pop().expect("one scheme");
    geometries[g].results[b] = Some(BenchmarkResult {
        name: plan.profiles[b].name.clone(),
        stream,
        conventional,
        rmw,
        wg,
        wgrb,
    });
}

/// Convenience for the figure binaries: runs the full suite over
/// `geometries` on the engine and returns one result vector per
/// geometry, in order.
///
/// # Errors
///
/// Returns the failure summary when any unit job panicked through its
/// retry budget.
pub fn run_suites(
    geometries: Vec<GeometryPoint>,
    ops: usize,
    seed: u64,
    options: &SweepOptions,
) -> Result<Vec<Vec<BenchmarkResult>>, String> {
    let plan = SweepPlan::suite(geometries, ops, seed);
    run_sweep(&plan, options).into_complete()
}

/// Builds the `--metrics-out` document of `cache8t sweep`:
/// `{"schemes": {scheme: merged registry snapshot}, "sweep": {...}}`.
///
/// The `schemes` section merges every benchmark's per-scheme registry
/// across the whole sweep and is deterministic (same plan → same
/// numbers on any machine), so it can serve as a checked-in
/// `cache8t perfdiff` baseline; the `sweep` section is scheduler
/// telemetry and varies run to run (diff it with `--ignore sweep.`).
pub fn metrics_document(outcome: &SweepOutcome) -> Value {
    let mut schemes: Vec<(&'static str, MetricRegistry)> = Vec::new();
    for g in &outcome.geometries {
        for r in g.results.iter().flatten() {
            for s in r.schemes() {
                match schemes.iter_mut().find(|(name, _)| *name == s.scheme) {
                    Some((_, merged)) => merged.merge(&s.registry),
                    None => schemes.push((s.scheme, s.registry.clone())),
                }
            }
        }
    }
    Value::Object(vec![
        (
            "schemes".to_owned(),
            Value::Object(
                schemes
                    .into_iter()
                    .map(|(name, registry)| (name.to_owned(), registry.to_value()))
                    .collect(),
            ),
        ),
        ("sweep".to_owned(), outcome.metrics.to_value()),
    ])
}

/// Serializes the outcome as the canonical sweep document. Sharded runs
/// produce the same document restricted to their benchmarks; byte-level
/// identity across `--jobs` values (and across shard-merge) is a tested
/// invariant.
pub fn to_document(plan: &SweepPlan, outcome: &SweepOutcome) -> Value {
    let benchmarks: Vec<Vec<Value>> = outcome
        .geometries
        .iter()
        .map(|g| {
            g.results
                .iter()
                .flatten()
                .map(serde_json::to_value)
                .collect()
        })
        .collect();
    document_with_benchmarks(plan, &benchmarks)
}

/// The sweep-document skeleton around externally supplied benchmark
/// values: `benchmarks[g]` holds geometry `g`'s benchmark objects in
/// profile order (already filtered to the ones that ran).
///
/// [`to_document`] and the serve checkpoint-resume path both build
/// their documents through this one function, so a document assembled
/// from journalled benchmark values is byte-identical to the batch
/// path's as long as the values round-tripped losslessly (which the
/// vendored serializer guarantees and the service tests enforce).
pub fn document_with_benchmarks(plan: &SweepPlan, benchmarks: &[Vec<Value>]) -> Value {
    let profiles = plan
        .profiles
        .iter()
        .map(|p| Value::Str(p.name.clone()))
        .collect();
    let geometries = plan
        .geometries
        .iter()
        .zip(benchmarks)
        .map(|(point, benchmarks)| {
            Value::Object(vec![
                ("label".to_owned(), Value::Str(point.label.clone())),
                (
                    "cache_kb".to_owned(),
                    Value::U64(point.geometry.capacity_bytes() / 1024),
                ),
                ("ways".to_owned(), Value::U64(point.geometry.ways())),
                (
                    "block_bytes".to_owned(),
                    Value::U64(point.geometry.block_bytes()),
                ),
                ("benchmarks".to_owned(), Value::Array(benchmarks.clone())),
            ])
        })
        .collect();
    Value::Object(vec![
        ("ops".to_owned(), Value::U64(plan.ops as u64)),
        ("seed".to_owned(), Value::U64(plan.seed)),
        ("profiles".to_owned(), Value::Array(profiles)),
        ("geometries".to_owned(), Value::Array(geometries)),
    ])
}

/// Merges shard documents (the outputs of `--shard i/n` runs over the
/// *same* plan) into the document a single unsharded run would produce.
///
/// # Errors
///
/// Returns a message when the documents disagree on the plan header
/// (ops, seed, profiles, geometries) or are structurally malformed.
pub fn merge_documents(docs: &[Value]) -> Result<Value, String> {
    let first = docs.first().ok_or("nothing to merge")?;
    let header = |doc: &Value, key: &str| -> Result<Value, String> {
        doc.get(key)
            .cloned()
            .ok_or_else(|| format!("sweep document missing `{key}`"))
    };
    let ops = header(first, "ops")?;
    let seed = header(first, "seed")?;
    let profiles = header(first, "profiles")?;
    let profile_order: Vec<String> = profiles
        .as_array()
        .ok_or("`profiles` is not an array")?
        .iter()
        .map(|v| v.as_str().map(str::to_owned).ok_or("non-string profile"))
        .collect::<Result<_, _>>()?;

    let geometry_of = |doc: &Value| -> Result<Vec<Value>, String> {
        Ok(header(doc, "geometries")?
            .as_array()
            .ok_or("`geometries` is not an array")?
            .to_vec())
    };
    let first_geometries = geometry_of(first)?;

    // (geometry index, benchmark name) -> benchmark value, first wins.
    let mut collected: Vec<Vec<(String, Value)>> = vec![Vec::new(); first_geometries.len()];
    for doc in docs {
        for (key, reference) in [("ops", &ops), ("seed", &seed), ("profiles", &profiles)] {
            if &header(doc, key)? != reference {
                return Err(format!("sweep documents disagree on `{key}`"));
            }
        }
        let geometries = geometry_of(doc)?;
        if geometries.len() != first_geometries.len() {
            return Err("sweep documents disagree on geometry count".to_string());
        }
        for (gi, geometry) in geometries.iter().enumerate() {
            if geometry.get("label") != first_geometries[gi].get("label") {
                return Err("sweep documents disagree on geometry order".to_string());
            }
            let benchmarks = geometry
                .get("benchmarks")
                .and_then(Value::as_array)
                .ok_or("geometry missing `benchmarks`")?;
            for benchmark in benchmarks {
                let name = benchmark
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("benchmark missing `name`")?;
                if !collected[gi].iter().any(|(n, _)| n == name) {
                    collected[gi].push((name.to_owned(), benchmark.clone()));
                }
            }
        }
    }

    let geometries = first_geometries
        .into_iter()
        .zip(collected)
        .map(|(geometry, mut found)| {
            let ordered: Vec<Value> = profile_order
                .iter()
                .filter_map(|name| {
                    found
                        .iter()
                        .position(|(n, _)| n == name)
                        .map(|i| found.swap_remove(i).1)
                })
                .collect();
            let fields = geometry
                .as_object()
                .expect("validated above")
                .iter()
                .map(|(k, v)| {
                    if k == "benchmarks" {
                        (k.clone(), Value::Array(ordered.clone()))
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect();
            Value::Object(fields)
        })
        .collect();

    Ok(Value::Object(vec![
        ("ops".to_owned(), ops),
        ("seed".to_owned(), seed),
        ("profiles".to_owned(), profiles),
        ("geometries".to_owned(), Value::Array(geometries)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parsing() {
        assert_eq!(Shard::parse("1/2"), Ok(Shard { index: 0, count: 2 }));
        assert_eq!(Shard::parse("3/3"), Ok(Shard { index: 2, count: 3 }));
        for bad in ["", "3", "0/2", "3/2", "a/b", "1/0"] {
            assert!(Shard::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn shards_partition_the_grid() {
        let a = Shard { index: 0, count: 2 };
        let b = Shard { index: 1, count: 2 };
        for slot in 0..10 {
            assert_ne!(a.selects(slot), b.selects(slot));
        }
    }

    #[test]
    fn named_geometries_resolve() {
        for label in ["baseline", "blocks64", "small", "large"] {
            let point = GeometryPoint::named(label).expect(label);
            assert_eq!(point.label, label);
        }
        assert!(GeometryPoint::named("bogus").is_none());
    }
}
