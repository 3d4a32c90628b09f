//! `cache8t-perfbench`: the traced half of the end-to-end benchmark.
//!
//! Each pass drives one workload through the same public calls the
//! `cache8t` CLI and daemon make, and times every call into a layer from
//! here; nothing inside the program is instrumented. A pass prints one
//! JSON object (`{"mops", "metrics", "exact"}`) on stdout and writes its
//! spans as JSON lines to `--spans`.
//!
//! ```text
//! cache8t-perfbench probe
//! cache8t-perfbench empty-trace  --out FILE
//! cache8t-perfbench stream-gen   --seed S --ops N --chunk-ops C --spans FILE
//! cache8t-perfbench replay-miss  --seed S --ops N --chunk-ops C --dir DIR --spans FILE
//! cache8t-perfbench serve-series --seeds S1,S2,.. --ops N --cadence K --spans FILE
//! ```

mod spans;

use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use cache8t_core::{
    ArrayTraffic, CacheBackend, CoalescingController, Controller, ConventionalController,
    RmwController, WgController, WgOptions, WgRbController,
};
use cache8t_exec::{
    ChunkSource, ExecOptions, GeometryPoint, PrefetchedChunks, RunConfig, SchemeKind, SweepOptions,
    SweepPlan, TraceStore,
};
use cache8t_obs::{timeline, Sampler, SamplerConfig, TimelinePhase};
use cache8t_sim::{CacheGeometry, CacheStats, ReplacementKind};
use cache8t_trace::analyze::StreamStats;
use cache8t_trace::{
    profiles, ChunkedGenerator, DecodedBatch, MemOp, ProfiledGenerator, Trace, TraceChunk,
    TraceFileReader, TraceGenerator,
};

use spans::{layer_totals, LayerTotals, Recorder, Site, MAIN, PREFETCH};

/// Ops per decoded sub-batch, as the batched replay path cuts them.
const REPLAY_BATCH_OPS: usize = 8192;

/// Profiles and geometries of every serve-series plan, as `workloads.py`
/// submits them.
const SERIES_PROFILES: [&str; 3] = ["bwaves", "lbm", "wrf"];
const SERIES_GEOMETRIES: [&str; 2] = ["baseline", "small"];

/// The five schemes `replay-miss` replays: CLI name, metric tag, and
/// the span name of its batch call.
const MISS_SCHEMES: [(&str, &str, &str); 5] = [
    ("6t", "6t", "core.6t.batch"),
    ("rmw", "rmw", "core.rmw.batch"),
    ("wg", "wg", "core.wg.batch"),
    ("wg+rb", "wgrb", "core.wgrb.batch"),
    ("coalesce:8", "coalesce8", "core.coalesce8.batch"),
];

/// Metric tag and access-span name of each sweep scheme, in
/// [`SchemeKind::ALL`] order.
const SWEEP_SCHEMES: [(&str, &str); 4] = [
    ("6t", "core.6t.access"),
    ("rmw", "core.rmw.access"),
    ("wg", "core.wg.access"),
    ("wgrb", "core.wgrb.access"),
];

/// Builds a controller the way `cache8t simulate` does (LRU, no L2).
fn build_controller(scheme: &str, geometry: CacheGeometry) -> Box<dyn Controller> {
    let backend = CacheBackend::new(geometry, ReplacementKind::Lru);
    match scheme {
        "6t" => Box::new(ConventionalController::from_backend(backend)),
        "rmw" => Box::new(RmwController::from_backend(backend)),
        "wg" => Box::new(WgController::from_backend(backend, WgOptions::wg())),
        "wg+rb" => Box::new(WgRbController::from_backend(backend)),
        "coalesce:8" => Box::new(CoalescingController::from_backend(backend, 8)),
        other => unreachable!("no scheme `{other}` in the benchmark tables"),
    }
}

fn profile(name: &str) -> Result<cache8t_trace::WorkloadProfile, String> {
    profiles::by_name(name).ok_or_else(|| format!("unknown profile `{name}`"))
}

/// Per-layer metrics of one pass; names in `exact` are deterministic
/// counts a second pass must reproduce bit for bit.
#[derive(Default)]
struct Report {
    mops: f64,
    metrics: BTreeMap<String, f64>,
    exact: Vec<String>,
}

impl Report {
    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Sets each `(span, metric)` pair's metric to the self time per op
    /// of the spans with that name.
    fn per_op(&mut self, totals: &BTreeMap<&str, LayerTotals>, pairs: &[(&str, &str)]) {
        for (span, metric) in pairs {
            self.set(*metric, totals[span].ns_per_op());
        }
    }

    fn set_exact(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        self.exact.push(name.clone());
        self.metrics.insert(name, value);
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json_number(*v)))
            .collect();
        let exact: Vec<String> = self.exact.iter().map(|k| format!("\"{k}\"")).collect();
        format!(
            "{{\"mops\":{},\"metrics\":{{{}}},\"exact\":[{}]}}",
            json_number(self.mops),
            metrics.join(","),
            exact.join(",")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The exact request- and array-level counts of one scheme.
fn scheme_counts(
    report: &mut Report,
    tag: &str,
    stats: &CacheStats,
    traffic: &ArrayTraffic,
    array_accesses: u64,
) {
    let ops = stats.accesses();
    report.set_exact(format!("core.{tag}.miss_ratio"), ratio(stats.misses(), ops));
    report.set_exact(
        format!("core.{tag}.array_accesses_per_op"),
        ratio(array_accesses, ops),
    );
    report.set_exact(
        format!("core.{tag}.line_fills_per_kop"),
        1000.0 * ratio(traffic.line_fills, ops),
    );
    match tag {
        "wg" => report.set_exact(
            "core.wg.grouped_write_ratio",
            ratio(traffic.grouped_writes, stats.writes()),
        ),
        "wgrb" => report.set_exact(
            "core.wgrb.bypassed_read_ratio",
            ratio(traffic.bypassed_reads, stats.reads()),
        ),
        _ => {}
    }
}

/// Wraps the source handed to [`PrefetchedChunks::spawn`]: each call is
/// a span on the prefetch thread, and so is the gap before the next
/// call, which is the time the producer spent handing the chunk over.
struct TracedSource<S> {
    inner: S,
    rec: Recorder,
    name: &'static str,
    pass: u64,
    previous: Option<(u64, u64)>,
}

impl<S: ChunkSource> ChunkSource for TracedSource<S> {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        let site = Site::under(self.pass, PREFETCH);
        let start = self.rec.now();
        if let Some((end, ops)) = self.previous {
            self.rec
                .push_between(site, "exec.prefetch.send_wait", end, start, ops);
        }
        let chunk = self.inner.next_chunk();
        let ops = chunk.as_ref().map_or(0, |c| c.len() as u64);
        self.rec.push(site, self.name, start, ops);
        self.previous = Some((self.rec.now(), ops));
        chunk
    }
}

/// Chunk-at-a-time reads of a `.c8tt` file, as `simulate --trace F
/// --stream-chunk-ops N` makes them: the header's instruction total is
/// pro-rated over chunks with telescoping floors.
struct FileChunks {
    reader: TraceFileReader<BufReader<File>>,
    chunk_ops: usize,
    error: Arc<std::sync::Mutex<Option<String>>>,
}

impl ChunkSource for FileChunks {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        if self.reader.remaining() == 0 {
            return None;
        }
        let start_op = self.reader.position();
        let mut ops = Vec::new();
        if let Err(e) = self.reader.read_ops(&mut ops, self.chunk_ops as u64) {
            *self.error.lock().expect("error slot poisoned") = Some(e.to_string());
            return None;
        }
        let end_op = self.reader.position();
        let total = self.reader.op_count() as u128;
        let instr = self.reader.instructions() as u128;
        let instructions =
            (instr * end_op as u128 / total - instr * start_op as u128 / total) as u64;
        Some(Arc::new(TraceChunk::new(ops, start_op, instructions)))
    }
}

/// Replays a prefetched stream the way the batched streamed runner
/// does, with warm-up 0: per chunk, per sub-batch, `decode` then
/// `access_batch`, the warm-up reset firing before the first op.
/// With `probe`, each decoded sub-batch is also probed with
/// `DataCache::find_in_set`. Returns the ops replayed.
fn replay_stream(
    chunks: &mut PrefetchedChunks,
    controller: &mut dyn Controller,
    rec: &Recorder,
    pass: u64,
    batch_span: &'static str,
    probe: bool,
) -> u64 {
    let site = Site::under(pass, MAIN);
    let mut batch = DecodedBatch::new(controller.cache().geometry());
    let warmup = 0u64;
    let mut index = 0u64;
    loop {
        let start = rec.now();
        let chunk = chunks.next_chunk();
        let ops = chunk.as_ref().map_or(0, |c| c.len() as u64);
        rec.push(site, "exec.prefetch.wait", start, ops);
        let Some(chunk) = chunk else { break };
        for sub in chunk.ops().chunks(REPLAY_BATCH_OPS) {
            let end = index + sub.len() as u64;
            let t0 = rec.now();
            batch.decode(sub);
            rec.push(site, "trace.decode", t0, sub.len() as u64);
            let t1 = rec.now();
            if index <= warmup && warmup < end {
                let split = (warmup - index) as usize;
                controller.access_batch(&batch, 0..split);
                controller.reset_counters();
                controller.access_batch(&batch, split..sub.len());
            } else {
                controller.access_batch(&batch, 0..sub.len());
            }
            rec.push(site, batch_span, t1, sub.len() as u64);
            if probe {
                let t2 = rec.now();
                let cache = controller.cache();
                for i in 0..batch.len() {
                    black_box(cache.find_in_set(black_box(batch.set(i)), black_box(batch.tag(i))));
                }
                rec.push(site, "sim.find_in_set", t2, sub.len() as u64);
            }
            index = end;
        }
    }
    index
}

/// `stream-gen`: streamed gcc replay through WG+RB at the CLI's default
/// 64 KB geometry, the generator on the prefetch thread.
fn pass_stream_gen(
    seed: u64,
    ops: u64,
    chunk_ops: usize,
    rec: &Recorder,
) -> Result<Report, String> {
    let generator = ProfiledGenerator::new(profile("gcc")?, CacheGeometry::paper_baseline(), seed);
    let pass = rec.reserve();
    let started = rec.now();
    let mut chunks = PrefetchedChunks::spawn(TracedSource {
        inner: ChunkedGenerator::new(generator, chunk_ops, ops),
        rec: rec.clone(),
        name: "trace.generate",
        pass,
        previous: None,
    });
    let mut controller = build_controller("wg+rb", CacheGeometry::paper_baseline());
    let replayed = replay_stream(
        &mut chunks,
        controller.as_mut(),
        rec,
        pass,
        "core.wgrb.batch",
        false,
    );
    controller.flush();
    drop(chunks);
    rec.close(pass, Site::root(pass), "pass.stream-gen", started, replayed);
    let wall_ns = rec.now() - started;

    let totals = layer_totals(&rec.spans());
    let mut report = Report {
        mops: ratio(replayed * 1000, wall_ns),
        ..Report::default()
    };
    report.per_op(
        &totals,
        &[
            ("trace.generate", "trace.generate.ns_per_op"),
            ("exec.prefetch.wait", "exec.prefetch.wait_ns_per_op"),
            (
                "exec.prefetch.send_wait",
                "exec.prefetch.send_wait_ns_per_op",
            ),
            ("trace.decode", "trace.decode.ns_per_op"),
            ("core.wgrb.batch", "core.wgrb.batch_ns_per_op"),
        ],
    );
    report.set_exact(
        "core.wgrb.miss_ratio",
        ratio(controller.stats().misses(), controller.stats().accesses()),
    );
    Ok(report)
}

/// `replay-miss`: generate and write an mcf trace, then replay the file
/// once per scheme at the paper's 32 KB geometry, streamed.
fn pass_replay_miss(
    seed: u64,
    ops: usize,
    chunk_ops: usize,
    dir: &Path,
    rec: &Recorder,
) -> Result<Report, String> {
    let geometry = CacheGeometry::new(32 * 1024, 4, 32).map_err(|e| e.to_string())?;
    let path = dir.join("traced-replay-miss.c8tt");

    let setup = rec.reserve();
    let setup_start = rec.now();
    let t = rec.now();
    let trace =
        ProfiledGenerator::new(profile("mcf")?, CacheGeometry::paper_baseline(), seed).collect(ops);
    rec.push(Site::under(setup, MAIN), "trace.generate", t, ops as u64);
    let t = rec.now();
    let file = File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut writer = BufWriter::new(file);
    trace
        .write_to(&mut writer)
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    rec.push(Site::under(setup, MAIN), "trace.write", t, ops as u64);
    drop(trace);
    rec.close(
        setup,
        Site::root(setup),
        "pass.replay-miss.setup",
        setup_start,
        ops as u64,
    );

    let mut report = Report::default();
    let mut replayed = 0u64;
    let mut replay_ns = 0u64;
    let mut resident_blocks = 0usize;
    for (scheme, tag, batch_span) in MISS_SCHEMES {
        let pass = rec.reserve();
        let started = rec.now();
        let file = File::open(&path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let reader = TraceFileReader::open(BufReader::new(file))
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let error = Arc::new(std::sync::Mutex::new(None));
        let mut chunks = PrefetchedChunks::spawn(TracedSource {
            inner: FileChunks {
                reader,
                chunk_ops,
                error: Arc::clone(&error),
            },
            rec: rec.clone(),
            name: "trace.read",
            pass,
            previous: None,
        });
        let mut controller = build_controller(scheme, geometry);
        let n = replay_stream(
            &mut chunks,
            controller.as_mut(),
            rec,
            pass,
            batch_span,
            true,
        );
        controller.flush();
        drop(chunks);
        if let Some(e) = error.lock().expect("error slot poisoned").take() {
            return Err(format!("cannot read {}: {e}", path.display()));
        }
        rec.close(pass, Site::root(pass), "pass.replay-miss", started, n);
        replay_ns += rec.now() - started;
        replayed += n;
        scheme_counts(
            &mut report,
            tag,
            controller.stats(),
            controller.traffic(),
            controller.array_accesses(),
        );
        resident_blocks = resident_blocks.max(controller.memory().resident_blocks());
    }
    std::fs::remove_file(&path).map_err(|e| format!("cannot remove {}: {e}", path.display()))?;

    let totals = layer_totals(&rec.spans());
    // The find_in_set probe is an extra measurement, not replay work.
    let probe_ns = totals["sim.find_in_set"].self_ns;
    report.mops = ratio(replayed * 1000, replay_ns.saturating_sub(probe_ns));
    report.per_op(
        &totals,
        &[
            ("trace.generate", "trace.generate.ns_per_op"),
            ("trace.write", "trace.write.ns_per_op"),
            ("trace.read", "trace.read.ns_per_op"),
            ("trace.decode", "trace.decode.ns_per_op"),
            ("exec.prefetch.wait", "exec.prefetch.wait_ns_per_op"),
            (
                "exec.prefetch.send_wait",
                "exec.prefetch.send_wait_ns_per_op",
            ),
            ("sim.find_in_set", "sim.find_in_set.ns_per_op"),
        ],
    );
    for (_, tag, batch_span) in MISS_SCHEMES {
        report.set(
            format!("core.{tag}.batch_ns_per_op"),
            totals[batch_span].ns_per_op(),
        );
    }
    report.set_exact("sim.memory.resident_blocks", resident_blocks as f64);
    Ok(report)
}

/// One scheme unit of a sampled sweep job, replayed as
/// `run_scheme_sampled` does it, with one span per sampler window.
fn sampled_unit(
    kind: SchemeKind,
    access_span: &'static str,
    trace: &Trace,
    config: RunConfig,
    mut sampler: Sampler,
    rec: &Recorder,
    job: u64,
) -> Result<(Box<dyn Controller>, u64), String> {
    let warmup_ops = config.warmup_ops;
    let mut controller = kind.build(config.geometry);
    let site = Site::under(job, MAIN);
    let io = |e: std::io::Error| format!("series sampler failed: {e}");
    if let Some(obs) = controller.obs() {
        sampler.rebaseline(obs.registry());
    }
    let mut window_start = rec.now();
    let mut window_ops = 0u64;
    for (i, op) in trace.iter().enumerate() {
        if i == warmup_ops {
            controller.reset_counters();
            if let Some(obs) = controller.obs() {
                sampler.rebaseline(obs.registry());
            }
        }
        controller.access(op);
        window_ops += 1;
        if sampler.note_op() {
            rec.push(site, access_span, window_start, window_ops);
            let t = rec.now();
            if let Some(obs) = controller.obs() {
                let occupancy = controller.occupancy().unwrap_or_default();
                sampler.sample(obs.registry(), occupancy).map_err(io)?;
            }
            rec.push(site, "obs.sampler.sample", t, 0);
            window_start = rec.now();
            window_ops = 0;
        }
    }
    controller.flush();
    rec.push(site, access_span, window_start, window_ops);
    let t = rec.now();
    if let Some(obs) = controller.obs() {
        let occupancy = controller.occupancy().unwrap_or_default();
        sampler.finish(obs.registry(), occupancy).map_err(io)?;
    }
    rec.push(site, "obs.sampler.sample", t, 0);
    if let Some(obs) = controller.obs() {
        let t = rec.now();
        black_box(obs.registry().to_value());
        rec.push(site, "obs.registry.snapshot", t, 0);
    }
    Ok((controller, sampler.emitted()))
}

/// Runs `plan` through `run_sweep` as the daemon's executor does (one
/// worker, series on) and returns its wall time minus the unit work it
/// ran, with the store's hit ratio.
fn sweep_overhead(
    plan: &SweepPlan,
    cadence: u64,
) -> Result<(f64, u64, u64, cache8t_exec::SweepOutcome), String> {
    let store = Arc::new(TraceStore::in_memory());
    let options = SweepOptions {
        exec: ExecOptions {
            workers: 1,
            retries: 0,
        },
        store: Arc::clone(&store),
        series: Some(SamplerConfig::with_cadence(cadence)),
        ..SweepOptions::default()
    };
    // The store marks each generation on the program's own timeline.
    timeline::enable();
    let outcome = cache8t_exec::run_sweep(plan, &options);
    timeline::disable();
    let mut generate_us = 0u64;
    for track in timeline::drain().tracks {
        let mut open = None;
        for event in track
            .events
            .iter()
            .filter(|e| e.cat == "store" && e.name.starts_with("generate "))
        {
            match event.phase {
                TimelinePhase::Begin => open = Some(event.ts_us),
                TimelinePhase::End => generate_us += open.take().map_or(0, |s| event.ts_us - s),
                TimelinePhase::Instant => {}
            }
        }
    }
    if !outcome.failures.is_empty() {
        return Err(format!("sweep failed: {:?}", outcome.failures));
    }
    let unit_names: Vec<&str> = SchemeKind::ALL
        .iter()
        .map(|k| k.name())
        .chain(["bench.stream_stats"])
        .collect();
    let unit_ns: u128 = outcome
        .spans
        .iter()
        .filter(|s| unit_names.contains(&s.name))
        .map(|s| s.total.as_nanos())
        .sum();
    let overhead_ns = outcome
        .elapsed
        .as_nanos()
        .saturating_sub(unit_ns + u128::from(generate_us) * 1000);
    let stats = store.stats();
    Ok((
        overhead_ns as f64 / 1e6,
        stats.mem_hits,
        stats.generated,
        outcome,
    ))
}

/// `serve-series`: the daemon's sampled sweep jobs, one per plan seed in
/// `seeds`, re-driven unit by unit; each job then runs once more through
/// `run_sweep` to cross-check the re-drive and to measure the sweep
/// engine's own overhead.
fn pass_serve_series(
    seeds: &[u64],
    ops: usize,
    cadence: u64,
    rec: &Recorder,
) -> Result<Report, String> {
    let profiles = SERIES_PROFILES
        .iter()
        .map(|n| profile(n))
        .collect::<Result<Vec<_>, _>>()?;
    let geometries: Vec<GeometryPoint> = SERIES_GEOMETRIES
        .iter()
        .map(|g| GeometryPoint::named(g).expect("named geometry"))
        .collect();
    let mut report = Report::default();
    let mut replayed = 0u64;
    let mut redrive_ns = 0u64;
    let mut windows = 0u64;
    let mut overhead_ms = 0.0;
    let (mut hits, mut generated) = (0u64, 0u64);
    let mut per_scheme = [(CacheStats::default(), ArrayTraffic::default(), 0u64); 4];
    for &seed in seeds {
        let plan = SweepPlan {
            profiles: profiles.clone(),
            geometries: geometries.clone(),
            ops,
            seed,
        };
        let job = rec.reserve();
        let started = rec.now();
        let replayed_before = replayed;
        // The store generates each profile's trace once per plan and
        // every geometry replays it.
        let total_ops = plan.config(0).total_ops();
        let mut traces = Vec::new();
        for p in &plan.profiles {
            let t = rec.now();
            let trace =
                ProfiledGenerator::new(p.clone(), CacheGeometry::paper_baseline(), plan.seed)
                    .collect(total_ops);
            rec.push(
                Site::under(job, MAIN),
                "trace.generate",
                t,
                total_ops as u64,
            );
            traces.push(trace);
        }
        let mut results = Vec::new();
        for (g, point) in plan.geometries.iter().enumerate() {
            let config = plan.config(g);
            for (p, trace) in plan.profiles.iter().zip(&traces) {
                let t = rec.now();
                let (measured, instructions) = trace.measured_region(config.warmup_ops);
                black_box(StreamStats::measure_ops(
                    measured,
                    instructions,
                    config.geometry,
                ));
                rec.push(
                    Site::under(job, MAIN),
                    "trace.analyze",
                    t,
                    measured.len() as u64,
                );
                let bench = format!("{}/{}", point.label, p.name);
                for (k, (kind, (_, span))) in SchemeKind::ALL.iter().zip(SWEEP_SCHEMES).enumerate()
                {
                    let sampler =
                        Sampler::new(&bench, kind.name(), SamplerConfig::with_cadence(cadence));
                    let (controller, emitted) =
                        sampled_unit(*kind, span, trace, config, sampler, rec, job)?;
                    windows += emitted;
                    replayed += trace.len() as u64;
                    let entry = &mut per_scheme[k];
                    entry.0 += *controller.stats();
                    entry.1 += *controller.traffic();
                    entry.2 += controller.array_accesses();
                    results.push((
                        g,
                        p.name.clone(),
                        k,
                        *controller.stats(),
                        *controller.traffic(),
                    ));
                }
            }
        }
        rec.close(
            job,
            Site::root(job),
            "job.serve-series",
            started,
            replayed - replayed_before,
        );
        redrive_ns += rec.now() - started;

        let sweep_start = rec.now();
        let (overhead, job_hits, job_generated, outcome) = sweep_overhead(&plan, cadence)?;
        rec.push(Site::root(job), "exec.sweep", sweep_start, 0);
        overhead_ms += overhead;
        hits += job_hits;
        generated += job_generated;
        for (g, name, k, stats, traffic) in results {
            let result = outcome.geometries[g]
                .results
                .iter()
                .flatten()
                .find(|r| r.name == name)
                .ok_or_else(|| format!("sweep lost benchmark {name}"))?;
            let swept = result.schemes()[k];
            if swept.stats != stats || swept.traffic != traffic {
                return Err(format!("re-driven {name} differs from run_sweep"));
            }
        }
    }

    let totals = layer_totals(&rec.spans());
    report.mops = ratio(replayed * 1000, redrive_ns);
    report.per_op(
        &totals,
        &[
            ("trace.generate", "trace.generate.ns_per_op"),
            ("trace.analyze", "trace.analyze.ns_per_op"),
        ],
    );
    let jobs = seeds.len() as f64;
    report.set("exec.sweep.overhead_ms_per_job", overhead_ms / jobs);
    report.set_exact("exec.store.hit_ratio", ratio(hits, hits + generated));
    for (k, (tag, span)) in SWEEP_SCHEMES.iter().enumerate() {
        report.set(
            format!("core.{tag}.access_ns_per_op"),
            totals[span].ns_per_op(),
        );
        let (stats, traffic, array_accesses) = &per_scheme[k];
        scheme_counts(&mut report, tag, stats, traffic, *array_accesses);
    }
    report.set(
        "obs.sampler.sample_us_per_window",
        totals["obs.sampler.sample"].ns_per_call() / 1000.0,
    );
    report.set_exact("obs.sampler.windows_per_job", windows as f64 / jobs);
    report.set(
        "obs.registry.snapshot_us",
        totals["obs.registry.snapshot"].ns_per_call() / 1000.0,
    );
    Ok(report)
}

/// Fixed reference loops whose wall times track the host's speed: an
/// integer loop that stays in registers, and a dependent walk over a
/// 32 MiB ring that waits on memory. Returns (alu, memory) seconds.
fn probe() -> (f64, f64) {
    let started = Instant::now();
    let mut x = 1u64;
    for i in 0..50_000_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i ^ (x >> 29));
    }
    black_box(x);
    let alu = started.elapsed().as_secs_f64();

    // Sattolo's shuffle makes one cycle through every slot, so the walk
    // visits the whole ring in an order the prefetchers cannot follow.
    const SLOTS: usize = 8 << 20;
    let mut ring: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..SLOTS).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = ((state >> 33) % i as u64) as usize;
        ring.swap(i, j);
    }
    let started = Instant::now();
    let mut at = 0u32;
    for _ in 0..2_000_000 {
        at = ring[at as usize];
    }
    black_box(at);
    (alu, started.elapsed().as_secs_f64())
}

/// A zero-op `.c8tt` file, for timing a bare `cache8t simulate` launch.
fn empty_trace(out: &Path) -> Result<(), String> {
    let file = File::create(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut writer = BufWriter::new(file);
    Trace::new(Vec::<MemOp>::new(), 0)
        .write_to(&mut writer)
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))
}

struct Args {
    command: String,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let (command, rest) = raw.split_first().ok_or("missing command")?;
        let mut flags = BTreeMap::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            flags.insert(name.to_owned(), value.clone());
        }
        Ok(Args {
            command: command.clone(),
            flags,
        })
    }

    fn text(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn number(&self, name: &str) -> Result<u64, String> {
        self.text(name)?
            .parse()
            .map_err(|_| format!("invalid --{name}"))
    }

    /// The non-empty comma-separated `--seeds` list.
    fn seeds(&self) -> Result<Vec<u64>, String> {
        self.text("seeds")?
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("invalid seed `{s}`")))
            .collect()
    }

    fn positive(&self, name: &str) -> Result<u64, String> {
        match self.number(name)? {
            0 => Err(format!("--{name} must be positive")),
            n => Ok(n),
        }
    }
}

fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let rec = Recorder::new();
    let report = match args.command.as_str() {
        "probe" => {
            let (alu, memory) = probe();
            println!("{{\"alu_s\":{alu},\"memory_s\":{memory}}}");
            return Ok(());
        }
        "empty-trace" => return empty_trace(Path::new(args.text("out")?)),
        "stream-gen" => pass_stream_gen(
            args.number("seed")?,
            args.positive("ops")?,
            args.positive("chunk-ops")? as usize,
            &rec,
        )?,
        "replay-miss" => pass_replay_miss(
            args.number("seed")?,
            args.positive("ops")? as usize,
            args.positive("chunk-ops")? as usize,
            &PathBuf::from(args.text("dir")?),
            &rec,
        )?,
        "serve-series" => pass_serve_series(
            &args.seeds()?,
            args.positive("ops")? as usize,
            args.positive("cadence")?,
            &rec,
        )?,
        other => return Err(format!("unknown command `{other}`")),
    };
    let spans_path = args.text("spans")?;
    std::fs::write(spans_path, spans::to_jsonl(&rec.spans()))
        .map_err(|e| format!("cannot write {spans_path}: {e}"))?;
    println!("{}", report.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cache8t-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
