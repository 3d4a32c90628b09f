//! Declarative sweep plans and their parallel execution.
//!
//! A [`SweepPlan`] is the cross product of workloads × geometries ×
//! schemes at one (ops, seed) point. [`run_sweep`] expands it into
//! fine-grained unit jobs — one per (geometry, benchmark, scheme) plus
//! one stream-statistics unit per (geometry, benchmark) — and executes
//! them on the job pool over a shared, generate-once [`TraceStore`].
//!
//! ## Determinism guarantee
//!
//! Every unit job is a pure function of the plan (generators are
//! seeded, controllers are deterministic), and the merge layer
//! reassembles outcomes by *plan position*, never by completion order.
//! The serialized sweep document is therefore byte-identical for any
//! `--jobs` value and any schedule; the scheduler only decides *when*
//! work happens, never *what* the answer is. Scheduler telemetry that
//! does vary (wall-clock, per-worker job counts, cache-hit split) is
//! kept in the separate [`SweepOutcome::metrics`] registry, which
//! deliberately never enters the document.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde_json::Value;

use cache8t_obs::{MetricRegistry, Sampler, SamplerConfig, SeriesSample, Span, SpanStat};
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
    /// Every recorded window lands in its [`SchemeResult`]'s `series`
    /// (each unit's ring is raised to the windows it can emit) and is
    /// retrievable in plan order via [`SweepOutcome::series`]. Windows
    /// depend only on the trace and cadence, never on schedule, so the
    /// resulting JSONL is byte-identical for any `--jobs`.
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
    /// The `sweep.*` metric family: job/retry counts, trace-store hit
    /// split, the per-job duration histogram, per-worker job counts and
    /// busy fractions, worker count, wall-clock.
    /// Never part of the sweep document (it varies with schedule and
    /// machine).
    pub metrics: MetricRegistry,
    /// Span profiles merged across every worker thread (workers'
    /// thread-local recorders die with their threads; the pool hands
    /// their reports here): `sweep.job` for each unit job,
    /// `store.generate` for each generated trace, and the replay and
    /// stream-statistics spans inside them.
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

/// One benchmark's unit results, gathered as its units finish. The
/// unit that lands the last piece assembles the `BenchmarkResult`: it
/// fires the live completion hook, and once the pool returns it fills
/// the sweep outcome.
#[derive(Default)]
struct BenchAccum {
    stream: Option<StreamStats>,
    /// One slot per scheme, in [`SchemeKind::ALL`] order.
    schemes: [Option<SchemeResult>; SchemeKind::ALL.len()],
    /// Shared with the completing unit only while its hook runs.
    result: Option<Arc<BenchmarkResult>>,
}

impl BenchAccum {
    /// Stages `unit`; returns the assembled benchmark when this insert
    /// completed it. A benchmark assembles once and first write wins
    /// per slot, so a retried unit job can neither replace a piece nor
    /// fire the hook twice.
    fn insert(&mut self, unit: UnitResult, name: &str) -> Option<Arc<BenchmarkResult>> {
        if self.result.is_some() {
            return None;
        }
        match unit {
            UnitResult::Stream(stats) => {
                self.stream.get_or_insert(stats);
            }
            UnitResult::Scheme(result) => {
                let index = SchemeKind::ALL
                    .iter()
                    .position(|k| k.name() == result.scheme)
                    .expect("scheme result names a known kind");
                self.schemes[index].get_or_insert(*result);
            }
        }
        if self.stream.is_none() || self.schemes.iter().any(Option::is_none) {
            return None;
        }
        let [conventional, rmw, wg, wgrb] =
            std::mem::take(&mut self.schemes).map(|s| s.expect("every scheme present"));
        let result = Arc::new(BenchmarkResult {
            name: name.to_owned(),
            stream: self.stream.take().expect("stream present"),
            conventional,
            rmw,
            wg,
            wgrb,
        });
        self.result = Some(Arc::clone(&result));
        Some(result)
    }
}

/// Executes `plan` on the job pool and reassembles the
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

    // The five unit jobs of benchmark i occupy specs[i*5 .. i*5+5], so
    // spec index / 5 addresses the benchmark's accumulator.
    let accumulators: Vec<Mutex<BenchAccum>> = (0..specs.len() / UNITS_PER_BENCHMARK)
        .map(|_| Mutex::new(BenchAccum::default()))
        .collect();

    let store = &options.store;
    let series = options.series;
    let stream_chunk_ops = options.stream_chunk_ops;
    let hook = options.on_benchmark.as_ref();
    let accumulators = &accumulators;
    let completed_benchmarks = AtomicUsize::new(0);
    let completed_benchmarks = &completed_benchmarks;
    let jobs: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(spec_index, &(g, b, unit))| {
            let store = Arc::clone(store);
            move || -> Result<(), String> {
                let profile = &plan.profiles[b];
                let _span = Span::labelled("sweep.job", "job", || {
                    format!(
                        "{}/{}/{}",
                        plan.geometries[g].label,
                        profile.name,
                        unit.name()
                    )
                });
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
                    Unit::Stream => UnitResult::Stream(measure_stream(ops, config)),
                    Unit::Scheme(kind) => {
                        let mut sampler = series.map(|sampler_config| {
                            let bench = format!("{}/{}", plan.geometries[g].label, profile.name);
                            // The ring keeps every window the unit emits:
                            // one per `cadence` ops plus a trailing partial
                            // or flush-only window.
                            let windows =
                                (config.total_ops() as u64).div_ceil(sampler_config.cadence) + 1;
                            let ring_capacity = sampler_config.ring_capacity.max(windows as usize);
                            let sampler_config = SamplerConfig {
                                ring_capacity,
                                ..sampler_config
                            };
                            Sampler::new(&bench, kind.name(), sampler_config)
                        });
                        let mut controller = kind.build(config.geometry);
                        let result = replay(
                            controller.as_mut(),
                            ops,
                            config.warmup_ops,
                            sampler.as_mut(),
                        )
                        .map_err(|e| format!("series sampler failed: {e}"))?;
                        UnitResult::Scheme(Box::new(result))
                    }
                };
                let assembled = accumulators[spec_index / UNITS_PER_BENCHMARK]
                    .lock()
                    .expect("benchmark accumulator poisoned")
                    .insert(result, &profile.name);
                if let (Some(hook), Some(result)) = (hook, assembled) {
                    let completed = completed_benchmarks.fetch_add(1, Ordering::Relaxed) + 1;
                    hook.0(BenchmarkEvent {
                        geometry: g,
                        benchmark: b,
                        slot: g * n_profiles + b,
                        completed,
                        total: accumulators.len(),
                        result: &result,
                    });
                }
                Ok(())
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
            line.tick(p.done, p.failed, p.eta(), p.mops(ops_per_job));
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

    // Deterministic merge: results land in their plan slots, never in
    // completion order. A benchmark with any failed or drained unit
    // stays `None`, exactly like an out-of-shard slot, and a resume
    // re-runs it whole.
    let mut failures = Vec::new();
    let mut cancelled = 0usize;
    let mut complete = vec![true; accumulators.len()];
    for (spec_index, (&(g, b, unit), outcome)) in specs.iter().zip(report.outcomes).enumerate() {
        complete[spec_index / UNITS_PER_BENCHMARK] &=
            matches!(outcome, JobOutcome::Completed(Ok(())));
        let (message, attempts) = match outcome {
            JobOutcome::Completed(Ok(())) => continue,
            // A unit that returned an error ran once and was not retried.
            JobOutcome::Completed(Err(message)) => (message, 1),
            JobOutcome::Failed { message, attempts } => (message, attempts),
            JobOutcome::Cancelled => {
                cancelled += 1;
                continue;
            }
        };
        failures.push(SweepFailure {
            geometry: plan.geometries[g].label.clone(),
            benchmark: plan.profiles[b].name.clone(),
            unit: unit.name().to_string(),
            message,
            attempts,
        });
    }
    let mut geometries: Vec<GeometrySweep> = plan
        .geometries
        .iter()
        .map(|point| GeometrySweep {
            point: point.clone(),
            results: (0..n_profiles).map(|_| None).collect(),
        })
        .collect();
    for (i, accum) in accumulators.iter().enumerate() {
        let (g, b, _) = specs[i * UNITS_PER_BENCHMARK];
        let result = accum
            .lock()
            .expect("benchmark accumulator poisoned")
            .result
            .take();
        if complete[i] {
            geometries[g].results[b] =
                result.map(|r| Arc::into_inner(r).expect("no unit job still holds its benchmark"));
        }
    }

    let elapsed = started.elapsed();
    let mut metrics = MetricRegistry::new();
    let store_stats = options.store.stats();
    for (name, value) in [
        ("sweep.jobs", specs.len() as u64),
        ("sweep.jobs_failed", failures.len() as u64),
        ("sweep.jobs_cancelled", cancelled as u64),
        ("sweep.retries", report.retries),
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
    for (i, stats) in report.worker_stats.iter().enumerate() {
        let busy = metrics.gauge(&format!("sweep.worker.{i}.busy_pct"));
        metrics.set(busy, stats.busy_pct().round() as i64);
        let jobs = metrics.counter(&format!("sweep.worker.{i}.jobs"));
        metrics.add(jobs, stats.jobs);
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
