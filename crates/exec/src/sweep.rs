//! Declarative sweep plans and their parallel execution.
//!
//! A [`SweepPlan`] is the cross product of workloads × geometries ×
//! schemes at one (ops, seed) point. [`run_sweep`] runs one job per
//! profile on the job pool: the job opens the profile's trace once from
//! the [`TraceStore`] and replays it in a single pass, feeding each chunk
//! to one stream-statistics fold per selected geometry and to that
//! geometry's four scheme lanes. The trace lives as long as its job.
//!
//! ## Determinism guarantee
//!
//! Every job is a pure function of the plan (generators are seeded,
//! controllers are deterministic, and a lane's result does not depend
//! on how its trace is chunked), and the merge layer reassembles
//! outcomes by *plan position*, never by completion order.
//! The serialized sweep document is therefore byte-identical for any
//! `--jobs` value and any schedule; the scheduler only decides *when*
//! work happens, never *what* the answer is. Scheduler telemetry that
//! does vary (wall-clock, per-worker job counts, cache-hit split) is
//! kept in the separate [`SweepOutcome::metrics`] registry, which
//! deliberately never enters the document.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::Value;

use cache8t_core::Controller;
use cache8t_obs::{
    MetricRegistry, ProgressSnapshot, Sampler, SamplerConfig, SeriesSample, Span, SpanStat,
};
use cache8t_sim::CacheGeometry;
use cache8t_trace::{profiles, WorkloadProfile};

use crate::experiment::{BenchmarkResult, Lane, RunConfig, SchemeKind, SchemeResult, StreamFold};
use crate::pool::{run_jobs, CancelToken, ExecOptions, JobOutcome, JobProgress};
use crate::store::TraceStore;
use crate::stream::ChunkSource;

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
/// (geometry, profile) grid (see [`slots`](Shard::slots)).
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

    /// The benchmark slots of this shard among `benchmarks` slots, the
    /// [`SweepOptions::slots`] selection that runs it.
    pub fn slots(&self, benchmarks: usize) -> Vec<usize> {
        (self.index..benchmarks).step_by(self.count).collect()
    }
}

/// A benchmark-completion event, fired live from the worker thread that
/// ran the benchmark's profile job.
#[derive(Debug)]
pub struct BenchmarkEvent<'a> {
    /// Geometry index in the plan.
    pub geometry: usize,
    /// Profile (benchmark) index in the plan.
    pub benchmark: usize,
    /// Flattened benchmark slot: `geometry * n_profiles + benchmark` —
    /// the numbering [`SweepOptions::slots`] uses.
    pub slot: usize,
    /// Benchmarks finished so far in this sweep, this one included —
    /// completion order, so consumers (checkpoint logs, dashboards)
    /// get `completed/total` progress without tracking it themselves.
    pub completed: usize,
    /// Benchmarks this sweep will run in total (after slot selection).
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
/// benchmark's profile job has finished every lane: a job's benchmarks
/// fire in plan order, jobs in completion order. It is the
/// checkpoint-journal attachment point: persisting each event makes
/// every completed benchmark durable the moment it finishes,
/// independent of whether the sweep itself survives.
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

/// A shareable progress observer, for callers that want the sweep's
/// live progress as data (the serve daemon ships it over the wire)
/// instead of — or in addition to — the stderr progress line. Runs on
/// worker threads after every finished job, with the same throughput
/// the progress line shows.
#[derive(Clone)]
pub struct ProgressHook(pub Arc<dyn Fn(ProgressSnapshot) + Send + Sync>);

impl ProgressHook {
    /// Wraps a closure as a hook.
    pub fn new(hook: impl Fn(ProgressSnapshot) + Send + Sync + 'static) -> Self {
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
    /// Scheduler configuration (worker count).
    pub exec: ExecOptions,
    /// Restrict to an explicit set of benchmark slots (flattened
    /// `geometry * n_profiles + benchmark` indices): a `--shard i/n`
    /// run passes [`Shard::slots`], and the resume path re-runs exactly
    /// the benchmarks a checkpoint journal is missing.
    pub slots: Option<Vec<usize>>,
    /// Emit a live progress line on stderr while running.
    pub progress: bool,
    /// The trace store jobs open their traces from.
    pub store: Arc<TraceStore>,
    /// Attach a continuous-telemetry sampler to every scheme lane.
    /// Every recorded window lands in its [`SchemeResult`]'s `series`
    /// (a sampler without a writer keeps every window it emits) and is
    /// retrievable in plan order via [`SweepOutcome::series`]. Windows
    /// depend only on the trace and cadence, never on schedule, so the
    /// resulting JSONL is byte-identical for any `--jobs`.
    pub series: Option<SamplerConfig>,
    /// Cooperative cancellation: once the token fires, queued jobs
    /// drain without executing and the sweep returns with the finished
    /// prefix (see [`SweepOutcome::cancelled`]).
    pub cancel: Option<CancelToken>,
    /// Live per-benchmark completion observer (see [`BenchmarkHook`]).
    pub on_benchmark: Option<BenchmarkHook>,
    /// Live per-job progress observer (see [`ProgressHook`]).
    pub on_progress: Option<ProgressHook>,
    /// Cut each trace into chunks of this many ops instead of producing
    /// it as one whole-trace chunk (see [`TraceStore::open`]). The sweep
    /// document is byte-identical either way — streaming changes the
    /// memory footprint, never the answer — so large-`ops` sweeps can
    /// run with RSS bounded by the chunk size.
    pub stream_chunk_ops: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            exec: ExecOptions::default(),
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

/// One benchmark whose job did not complete: a failed job reports one
/// failure per benchmark it covered.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    /// Geometry label of the failed benchmark.
    pub geometry: String,
    /// Benchmark name.
    pub benchmark: String,
    /// The panic payload or the returned error, stringified.
    pub message: String,
}

/// One geometry's slice of a sweep outcome.
#[derive(Debug)]
pub struct GeometrySweep {
    /// The geometry point this slice belongs to.
    pub point: GeometryPoint,
    /// One slot per plan profile: `None` when outside the selected
    /// slots or when the benchmark's job failed or was drained.
    pub results: Vec<Option<BenchmarkResult>>,
}

/// Everything a sweep run produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-geometry results, in plan order.
    pub geometries: Vec<GeometrySweep>,
    /// Benchmarks lost to job failures (panics), with their payloads.
    pub failures: Vec<SweepFailure>,
    /// Jobs drained without executing after the cancel token fired (0
    /// for an uncancelled run).
    pub cancelled: usize,
    /// The `sweep.*` metric family: job counts, trace-store hit
    /// split, the per-job duration histogram, per-worker job counts and
    /// busy fractions, worker count, wall-clock.
    /// Never part of the sweep document (it varies with schedule and
    /// machine).
    pub metrics: MetricRegistry,
    /// Span profiles merged across every worker thread (workers'
    /// thread-local recorders die with their threads; the pool hands
    /// their reports here): `sweep.job` for each job, `store.generate`
    /// for each generated chunk, and the per-chunk replay and
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
    /// (no slot selection): one `Vec<BenchmarkResult>` per plan geometry.
    ///
    /// # Errors
    ///
    /// Describes the missing/failed benchmarks otherwise.
    pub fn into_complete(self) -> Result<Vec<Vec<BenchmarkResult>>, String> {
        if !self.failures.is_empty() {
            let mut msg = String::from("sweep jobs failed:");
            for f in &self.failures {
                msg.push_str(&format!(
                    "\n  {}/{}: {}",
                    f.geometry, f.benchmark, f.message
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

/// Runs one sweep job: profile `b` over the plan geometries `geometries`
/// (ascending), in one pass over its trace. Each chunk goes to one
/// stream-statistics fold per geometry and to that geometry's four
/// scheme lanes; once every lane has finished, the job assembles one
/// result per geometry, fires the hook for each in plan order, and
/// drops the trace.
fn run_profile(
    plan: &SweepPlan,
    b: usize,
    geometries: &[usize],
    options: &SweepOptions,
    completed: &AtomicUsize,
    total: usize,
) -> Result<Vec<BenchmarkResult>, String> {
    let profile = &plan.profiles[b];
    let _span = Span::labelled("sweep.job", "job", || profile.name.clone());
    // Every geometry of a plan shares the trace and its warm-up.
    let config = plan.config(geometries[0]);
    let (total_ops, warmup_ops) = (config.total_ops(), config.warmup_ops);
    let open_lane = |lane: usize| {
        let g = geometries[lane / SchemeKind::ALL.len()];
        let kind = SchemeKind::ALL[lane % SchemeKind::ALL.len()];
        let bench = format!("{}/{}", plan.geometries[g].label, profile.name);
        let sampler = options.series.map(|c| Sampler::new(&bench, kind.name(), c));
        Lane::new(kind.build(plan.geometries[g].geometry), warmup_ops, sampler)
    };
    let sampler_failed = |e: std::io::Error| format!("series sampler failed: {e}");
    let mut folds: Vec<StreamFold> = geometries
        .iter()
        .map(|&g| StreamFold::new(plan.config(g)))
        .collect();
    // A lane opens at its first chunk and finishes right after its last,
    // so with the whole trace as one chunk each lane is built, fed,
    // finished and dropped before the next opens, and the lanes reuse
    // one working set instead of holding four per geometry.
    let lane_count = geometries.len() * SchemeKind::ALL.len();
    let mut lanes: Vec<Option<Lane<Box<dyn Controller>, Sampler>>> =
        (0..lane_count).map(|_| None).collect();
    let mut finished: Vec<Option<SchemeResult>> = (0..lane_count).map(|_| None).collect();
    let mut source = options
        .store
        .open(profile, plan.seed, total_ops, options.stream_chunk_ops);
    while let Some(chunk) = source.next_chunk() {
        let last = chunk.end_op() == total_ops as u64;
        for (k, fold) in folds.iter_mut().enumerate() {
            fold.feed(chunk.ops(), chunk.instructions());
            for i in k * SchemeKind::ALL.len()..(k + 1) * SchemeKind::ALL.len() {
                let mut lane = lanes[i].take().unwrap_or_else(|| open_lane(i));
                lane.feed(chunk.ops()).map_err(sampler_failed)?;
                if last {
                    finished[i] = Some(lane.finish().map_err(sampler_failed)?);
                } else {
                    lanes[i] = Some(lane);
                }
            }
        }
    }
    drop(source);

    // Lanes are in `SchemeKind::ALL` order, geometry by geometry. An
    // empty trace has no chunk, so its lanes finish unfed.
    let mut schemes = finished
        .into_iter()
        .enumerate()
        .map(|(i, done)| done.map_or_else(|| open_lane(i).finish(), Ok))
        .collect::<Result<Vec<_>, _>>()
        .map_err(sampler_failed)?
        .into_iter();
    let mut next = || schemes.next().expect("four lanes per geometry");
    let results: Vec<BenchmarkResult> = folds
        .into_iter()
        .map(|fold| BenchmarkResult {
            name: profile.name.clone(),
            stream: fold.finish(),
            conventional: next(),
            rmw: next(),
            wg: next(),
            wgrb: next(),
        })
        .collect();
    if let Some(hook) = &options.on_benchmark {
        for (&g, result) in geometries.iter().zip(&results) {
            hook.0(BenchmarkEvent {
                geometry: g,
                benchmark: b,
                slot: g * plan.profiles.len() + b,
                completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                total,
                result,
            });
        }
    }
    Ok(results)
}

/// Live throughput in Mops/s and time to completion of a batch, from its
/// wall time: `done` of `total` jobs finished `elapsed` after it started,
/// each credited with `ops_per_job` replayed ops. Both are unknown until
/// a job has finished and time has passed; the ETA is unknown once the
/// batch is done.
fn live_rate(
    done: usize,
    total: usize,
    elapsed: Duration,
    ops_per_job: f64,
) -> (Option<f64>, Option<Duration>) {
    if done == 0 || elapsed.is_zero() {
        return (None, None);
    }
    let mops = done as f64 * ops_per_job / (elapsed.as_secs_f64() * 1e6);
    let eta = (done < total).then(|| elapsed.mul_f64((total - done) as f64 / done as f64));
    ((mops.is_finite() && mops > 0.0).then_some(mops), eta)
}

/// Executes `plan` on the job pool, one job per profile, and reassembles
/// the outcomes deterministically (see the module docs for the
/// guarantee).
pub fn run_sweep(plan: &SweepPlan, options: &SweepOptions) -> SweepOutcome {
    let started = Instant::now();
    let n_profiles = plan.profiles.len();

    // Selection is per *benchmark*, so a slot set always holds complete
    // benchmarks and partial outputs merge by simple union. A profile's
    // job covers its selected geometries; a profile with none has no job.
    let selected = |slot: usize| options.slots.as_ref().is_none_or(|s| s.contains(&slot));
    let specs: Vec<(usize, Vec<usize>)> = (0..n_profiles)
        .filter_map(|b| {
            let geometries: Vec<usize> = (0..plan.geometries.len())
                .filter(|g| selected(g * n_profiles + b))
                .collect();
            (!geometries.is_empty()).then_some((b, geometries))
        })
        .collect();
    let benchmarks: usize = specs.iter().map(|(_, geometries)| geometries.len()).sum();

    let completed = AtomicUsize::new(0);
    let jobs: Vec<_> = specs
        .iter()
        .map(|(b, geometries)| {
            let completed = &completed;
            move || run_profile(plan, *b, geometries, options, completed, benchmarks)
        })
        .collect();

    let progress = options
        .progress
        .then(|| cache8t_obs::progress::ProgressLine::new("sweep", jobs.len()));
    // Live throughput: each finished job is credited with the mean
    // replayed ops per job (four scheme lanes per selected benchmark,
    // spread evenly over the jobs). Under a slot set profiles cover
    // different numbers of geometries, so the figure is an approximation;
    // it is display-only.
    let replayed_ops = SchemeKind::ALL.len() * benchmarks * plan.config(0).total_ops();
    let ops_per_job = replayed_ops as f64 / jobs.len().max(1) as f64;
    let observer = |p: JobProgress| {
        let (mops, eta) = live_rate(p.done, p.total, started.elapsed(), ops_per_job);
        let snapshot = ProgressSnapshot {
            done: p.done,
            total: p.total,
            failed: p.failed,
            eta_ms: eta.map(|d| d.as_millis() as u64),
            mops,
        };
        if let Some(line) = &progress {
            line.tick(p.done, p.failed, eta, mops);
        }
        if let Some(hook) = &options.on_progress {
            hook.0(snapshot);
        }
    };
    let report = run_jobs(
        jobs,
        &options.exec,
        options.cancel.as_ref(),
        Some(&observer),
    );
    if let Some(line) = &progress {
        line.finish();
    }

    // Deterministic merge: results land in their plan slots, never in
    // completion order. The benchmarks of a failed or drained job stay
    // `None`, exactly like unselected slots, and a resume re-runs them.
    let mut geometries: Vec<GeometrySweep> = plan
        .geometries
        .iter()
        .map(|point| GeometrySweep {
            point: point.clone(),
            results: (0..n_profiles).map(|_| None).collect(),
        })
        .collect();
    let mut failures = Vec::new();
    let (mut jobs_failed, mut cancelled) = (0u64, 0usize);
    for ((b, covered), outcome) in specs.iter().zip(report.outcomes) {
        let message = match outcome {
            JobOutcome::Completed(Ok(results)) => {
                for (&g, result) in covered.iter().zip(results) {
                    geometries[g].results[*b] = Some(result);
                }
                continue;
            }
            JobOutcome::Completed(Err(message)) | JobOutcome::Failed { message } => message,
            JobOutcome::Cancelled => {
                cancelled += 1;
                continue;
            }
        };
        jobs_failed += 1;
        for &g in covered {
            failures.push(SweepFailure {
                geometry: plan.geometries[g].label.clone(),
                benchmark: plan.profiles[*b].name.clone(),
                message: message.clone(),
            });
        }
    }

    let elapsed = started.elapsed();
    let mut metrics = MetricRegistry::new();
    let store_stats = options.store.stats();
    for (name, value) in [
        ("sweep.jobs", specs.len() as u64),
        ("sweep.jobs_failed", jobs_failed),
        ("sweep.jobs_cancelled", cancelled as u64),
        ("sweep.benchmarks", benchmarks as u64),
        ("sweep.trace.generated", store_stats.generated),
        ("sweep.trace.chunks_generated", store_stats.chunks_generated),
        ("sweep.trace.disk_hits", store_stats.disk_hits),
        ("sweep.trace.recovered", store_stats.recovered),
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
/// Returns the failure summary when any job panicked or returned an
/// error.
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
                    Some((_, merged)) => merged.merge(&s.metrics),
                    None => schemes.push((s.scheme, s.metrics.clone())),
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
        assert_eq!(a.slots(9), [0, 2, 4, 6, 8]);
        assert_eq!(b.slots(9), [1, 3, 5, 7]);
        assert!(Shard { index: 2, count: 3 }.slots(2).is_empty());
    }

    #[test]
    fn live_rate_comes_from_the_batch_wall_time() {
        // After the first of three jobs, 2 s in, at 1 M ops per job.
        let (mops, eta) = live_rate(1, 3, Duration::from_secs(2), 1e6);
        assert_eq!(mops, Some(0.5));
        assert_eq!(eta, Some(Duration::from_secs(4)));
        // No time has passed, or no job has finished: nothing to show.
        assert_eq!(live_rate(1, 3, Duration::ZERO, 1e6), (None, None));
        assert_eq!(live_rate(0, 3, Duration::from_secs(2), 1e6), (None, None));
        // A finished batch has a rate but nothing left to wait for.
        let (mops, eta) = live_rate(3, 3, Duration::from_secs(3), 1e6);
        assert_eq!(mops, Some(1.0));
        assert_eq!(eta, None);
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
