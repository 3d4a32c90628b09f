//! Engine behaviour, end to end: crash isolation (one poisoned job must
//! surface as a structured failure while the rest of the sweep
//! completes) and scheduler telemetry (worker stats, merged span
//! profiles).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use cache8t_exec::{
    document_with_benchmarks, run_jobs, run_sweep, to_document, BenchmarkHook, CancelToken,
    ExecOptions, GeometryPoint, JobOutcome, SweepOptions, SweepPlan, TraceStore,
};
use cache8t_trace::profiles;

#[test]
fn panicking_job_fails_alone_while_the_batch_completes() {
    let jobs: Vec<Box<dyn Fn() -> u32 + Send + Sync>> = (0..20)
        .map(|i| -> Box<dyn Fn() -> u32 + Send + Sync> {
            if i == 7 {
                Box::new(|| panic!("benchmark 7 hit a poisoned input"))
            } else {
                Box::new(move || i * 10)
            }
        })
        .collect();
    let report = run_jobs(
        jobs,
        &ExecOptions {
            workers: 4,
            ..ExecOptions::default()
        },
        None,
        None,
    );

    assert_eq!(report.outcomes.len(), 20);
    assert_eq!(report.failed(), 1);
    for (i, outcome) in report.outcomes.iter().enumerate() {
        if i == 7 {
            let JobOutcome::Failed { message } = outcome else {
                panic!("job 7 should have failed, got {outcome:?}");
            };
            assert_eq!(message, "benchmark 7 hit a poisoned input");
        } else {
            assert_eq!(*outcome, JobOutcome::Completed(i as u32 * 10));
        }
    }
}

#[test]
fn sweep_reports_a_poisoned_benchmark_and_keeps_the_rest() {
    // A profile with an impossible read share makes its job panic
    // inside trace generation (`ProfiledGenerator::new` rejects it) —
    // the realistic "one experiment is poisoned" case.
    let mut poisoned = profiles::by_name("gcc").expect("suite profile");
    poisoned.name = "poisoned".to_string();
    poisoned.read_share = 2.0;
    let plan = SweepPlan {
        profiles: vec![
            profiles::by_name("gcc").expect("suite profile"),
            poisoned,
            profiles::by_name("mcf").expect("suite profile"),
        ],
        geometries: vec![
            GeometryPoint::named("baseline").expect("named geometry"),
            GeometryPoint::named("small").expect("named geometry"),
        ],
        ops: 4_000,
        seed: 3,
    };
    let outcome = run_sweep(
        &plan,
        &SweepOptions {
            exec: ExecOptions {
                workers: 2,
                ..ExecOptions::default()
            },
            progress: false,
            store: Arc::new(TraceStore::in_memory()),
            series: None,
            ..SweepOptions::default()
        },
    );

    // The poisoned profile's one job fails with the generator's message
    // and reports one failure per benchmark it covered, in plan order;
    // nothing else is affected.
    let failed: Vec<(&str, &str)> = outcome
        .failures
        .iter()
        .map(|f| (f.geometry.as_str(), f.benchmark.as_str()))
        .collect();
    assert_eq!(
        failed,
        [("baseline", "poisoned"), ("small", "poisoned")],
        "one failure per covered benchmark"
    );
    for failure in &outcome.failures {
        assert!(
            failure.message.contains("invalid workload profile"),
            "panic payload lost: {}",
            failure.message
        );
    }
    for healthy in &outcome.geometries {
        assert!(healthy.results[0].is_some(), "gcc must complete");
        assert!(healthy.results[1].is_none(), "poisoned must be dropped");
        assert!(healthy.results[2].is_some(), "mcf must complete");
        assert_eq!(healthy.results[0].as_ref().unwrap().name, "gcc");
        assert_eq!(healthy.results[2].as_ref().unwrap().name, "mcf");
    }
    let counter = |name: &str| outcome.metrics.counter_by_name(name).expect(name);
    assert_eq!(counter("sweep.jobs_failed"), 1, "one job failed");

    // And into_complete refuses, naming the culprit.
    let err = outcome
        .into_complete()
        .expect_err("failures must propagate");
    assert!(err.contains("poisoned"), "unhelpful error: {err}");
}

fn sweep_options(workers: usize) -> SweepOptions {
    SweepOptions {
        exec: ExecOptions {
            workers,
            ..ExecOptions::default()
        },
        progress: false,
        store: Arc::new(TraceStore::in_memory()),
        series: None,
        ..SweepOptions::default()
    }
}

/// A one-geometry plan over the named suite profiles.
fn plan_of(names: &[&str]) -> SweepPlan {
    SweepPlan {
        profiles: names
            .iter()
            .map(|name| profiles::by_name(name).expect("suite profile"))
            .collect(),
        geometries: vec![GeometryPoint::named("baseline").expect("named geometry")],
        ops: 4_000,
        seed: 3,
    }
}

fn small_plan() -> SweepPlan {
    plan_of(&["gcc", "mcf"])
}

/// The span-profiler data-loss regression test: worker threads own
/// thread-local span recorders that die with the pool, so a parallel
/// sweep used to report an empty span profile. The pool now hands every
/// worker's report to the outcome, and the merged result must not
/// depend on the worker count, materialized or streamed. At every
/// worker count the profile also agrees with the scheduler counters:
/// one `sweep.job` span per job and one `store.generate` span per
/// generated chunk (a materialized trace is one chunk).
#[test]
fn parallel_sweep_reports_the_same_span_set_as_serial() {
    let summarize = |workers: usize, stream_chunk_ops: Option<usize>| {
        let options = SweepOptions {
            stream_chunk_ops,
            ..sweep_options(workers)
        };
        let outcome = run_sweep(&small_plan(), &options);
        assert!(outcome.failures.is_empty());
        assert!(
            !outcome.spans.is_empty(),
            "{workers}-worker sweep lost its span profile"
        );
        let spans: BTreeMap<&'static str, u64> =
            outcome.spans.iter().map(|s| (s.name, s.calls)).collect();
        let counter = |name: &str| outcome.metrics.counter_by_name(name).expect(name);
        assert_eq!(
            spans.get("sweep.job").copied(),
            Some(counter("sweep.jobs")),
            "{workers} workers: one sweep.job span per job"
        );
        assert_eq!(counter("sweep.trace.generated"), 2, "one trace per job");
        assert_eq!(
            spans.get("store.generate").copied(),
            Some(counter("sweep.trace.chunks_generated")),
            "{workers} workers: one store.generate span per generated chunk"
        );
        spans
    };
    for stream_chunk_ops in [None, Some(700)] {
        let serial = summarize(1, stream_chunk_ops);
        let parallel = summarize(4, stream_chunk_ops);
        assert_eq!(
            serial, parallel,
            "span set must not depend on the worker count ({stream_chunk_ops:?})"
        );
    }
}

/// Resume building block: an explicit slot set must run exactly those
/// benchmarks, and a document assembled from hook-captured benchmark
/// values via `document_with_benchmarks` must be byte-identical to the
/// full run's `to_document` output.
#[test]
fn slot_selection_and_hook_reassemble_the_full_document() {
    let plan = small_plan();
    let full = run_sweep(&plan, &sweep_options(2));
    assert!(full.failures.is_empty());
    let expected = serde_json::to_string_pretty(&to_document(&plan, &full));

    // Run each benchmark slot in its own sweep, capturing results
    // through the live hook (as the checkpoint journal does).
    let captured: Arc<Mutex<Vec<(usize, usize, serde_json::Value)>>> =
        Arc::new(Mutex::new(Vec::new()));
    for slot in 0..plan.benchmark_count() {
        let sink = Arc::clone(&captured);
        let options = SweepOptions {
            slots: Some(vec![slot]),
            on_benchmark: Some(BenchmarkHook::new(move |event| {
                sink.lock().unwrap().push((
                    event.geometry,
                    event.slot,
                    serde_json::to_value(event.result),
                ));
            })),
            ..sweep_options(2)
        };
        let outcome = run_sweep(&plan, &options);
        assert!(outcome.failures.is_empty());
        // Exactly one benchmark completed in this slice.
        let done: usize = outcome
            .geometries
            .iter()
            .map(|g| g.results.iter().flatten().count())
            .sum();
        assert_eq!(done, 1, "slot {slot} must run exactly one benchmark");
    }

    let mut captured = captured.lock().unwrap().clone();
    captured.sort_by_key(|&(_, slot, _)| slot);
    let mut benchmarks: Vec<Vec<serde_json::Value>> = vec![Vec::new(); plan.geometries.len()];
    for (g, _, value) in captured {
        benchmarks[g].push(value);
    }
    let rebuilt = serde_json::to_string_pretty(&document_with_benchmarks(&plan, &benchmarks));
    assert_eq!(rebuilt, expected, "journalled reassembly must match batch");
}

/// Cancelling mid-sweep drains the queued jobs and reports them; the
/// finished prefix stays usable.
#[test]
fn cancelled_sweep_returns_partial_results() {
    let plan = small_plan();
    let token = CancelToken::new();
    token.cancel(); // fire before the first job: everything drains
    let outcome = run_sweep(
        &plan,
        &SweepOptions {
            cancel: Some(token),
            ..sweep_options(2)
        },
    );
    assert!(outcome.failures.is_empty());
    assert_eq!(outcome.cancelled, 2, "one job per profile drained");
    for g in &outcome.geometries {
        assert!(g.results.iter().all(Option::is_none));
    }
    let metrics = outcome.metrics.to_value();
    let cancelled = metrics
        .get("counters")
        .and_then(|c| c.get("sweep.jobs_cancelled"))
        .and_then(serde_json::Value::as_u64);
    assert_eq!(cancelled, Some(2));
}

#[test]
fn scheduler_telemetry_accounts_for_every_job() {
    let outcome = run_sweep(&plan_of(&["gcc", "mcf", "lbm"]), &sweep_options(3));
    assert!(outcome.failures.is_empty());
    let metrics = outcome.metrics.to_value();
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(serde_json::Value::as_u64)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    let jobs = counter("sweep.jobs");
    assert_eq!(jobs, 3, "one job per profile");
    // Per-worker job counts must add up to the batch total.
    let per_worker: u64 = (0..3)
        .map(|i| counter(&format!("sweep.worker.{i}.jobs")))
        .sum();
    assert_eq!(per_worker, jobs);
    // The per-job duration histogram saw exactly one sample per job.
    let job_us_count = metrics
        .get("histograms")
        .and_then(|h| h.get("sweep.job_us"))
        .and_then(|h| h.get("count"))
        .and_then(serde_json::Value::as_u64)
        .expect("sweep.job_us histogram");
    assert_eq!(job_us_count, jobs);
}

/// The streaming tentpole at the engine level: a streamed sweep — any
/// chunk size, any worker count, sampled or not — serializes to the
/// exact bytes of the materialized sweep. Streaming changes the memory
/// footprint, never the answer.
#[test]
fn streamed_sweeps_serialize_to_the_materialized_bytes() {
    let plan = small_plan();
    let document = |workers: usize, stream_chunk_ops: Option<usize>| {
        let options = SweepOptions {
            stream_chunk_ops,
            series: Some(cache8t_obs::SamplerConfig::with_cadence(512)),
            ..sweep_options(workers)
        };
        let outcome = run_sweep(&plan, &options);
        assert!(outcome.failures.is_empty());
        let series: Vec<_> = outcome.series().cloned().collect();
        (
            serde_json::to_string(&to_document(&plan, &outcome)).unwrap(),
            series,
        )
    };

    let (reference, reference_series) = document(1, None);
    for workers in [1usize, 4] {
        for chunk_ops in [700usize, 4_096] {
            let (streamed, series) = document(workers, Some(chunk_ops));
            assert_eq!(
                reference, streamed,
                "workers={workers} chunk_ops={chunk_ops}"
            );
            assert_eq!(
                reference_series, series,
                "series: workers={workers} chunk_ops={chunk_ops}"
            );
        }
    }
}

/// A sampled sweep keeps every window of every unit, not just the
/// last ring's worth: at cadence 1 a unit of 1 100 ops emits at least
/// 1 100 windows, more than the default 512-window ring, and each
/// scheme's series must still start at window 0 and tile the unit's ops.
#[test]
fn sampled_sweep_series_holds_every_window() {
    let plan = SweepPlan {
        profiles: vec![profiles::by_name("gcc").expect("suite profile")],
        geometries: vec![GeometryPoint::named("baseline").expect("named geometry")],
        ops: 1_000,
        seed: 42,
    };
    let total_ops = plan.config(0).total_ops() as u64;
    let options = SweepOptions {
        series: Some(cache8t_obs::SamplerConfig::with_cadence(1)),
        ..sweep_options(1)
    };
    let outcome = run_sweep(&plan, &options);
    assert!(outcome.failures.is_empty());
    let mut by_scheme: BTreeMap<&str, Vec<&cache8t_obs::SeriesSample>> = BTreeMap::new();
    for sample in outcome.series() {
        by_scheme.entry(&sample.scheme).or_default().push(sample);
    }
    assert_eq!(by_scheme.len(), 4, "one series per scheme");
    for (scheme, samples) in by_scheme {
        assert!(
            samples.len() as u64 >= total_ops,
            "{scheme}: {}",
            samples.len()
        );
        let mut op = 0;
        for (i, sample) in samples.iter().enumerate() {
            assert_eq!(sample.window, i as u64, "{scheme}: window numbering");
            assert_eq!(sample.op_start, op, "{scheme}: window {i} starts a gap");
            op = sample.op_end;
        }
        assert_eq!(op, total_ops, "{scheme}: windows must cover the unit");
    }
}

/// Each job generates its profile's trace once, however many chunks it
/// spans and however many geometries and schemes consume it: a streamed
/// sweep over two geometries generates exactly profiles × chunks per
/// trace, at any worker count.
#[test]
fn streamed_sweep_generates_each_trace_once() {
    let plan = SweepPlan {
        geometries: vec![
            GeometryPoint::named("baseline").expect("named geometry"),
            GeometryPoint::named("small").expect("named geometry"),
        ],
        ..small_plan()
    };
    let chunk_ops = 400;
    let chunks_per_trace = (plan.config(0).total_ops() as u64).div_ceil(chunk_ops);
    assert!(chunks_per_trace > 8, "the trace must span many chunks");
    for workers in [1, 2] {
        let options = SweepOptions {
            stream_chunk_ops: Some(chunk_ops as usize),
            ..sweep_options(workers)
        };
        let outcome = run_sweep(&plan, &options);
        assert!(outcome.failures.is_empty());
        let counter = |name: &str| outcome.metrics.counter_by_name(name).expect(name);
        assert_eq!(
            counter("sweep.trace.chunks_generated"),
            plan.profiles.len() as u64 * chunks_per_trace,
            "{workers} workers"
        );
        assert_eq!(counter("sweep.trace.generated"), plan.profiles.len() as u64);
        assert_eq!(counter("sweep.trace.disk_hits"), 0);
    }
}
