//! In-process service tests: a real `Server` on a loopback socket,
//! driven by the real `Client`, checked against the batch engine.
//!
//! The headline assertion, made three ways below: a document fetched
//! over the socket — fresh, resumed from a torn journal, or fully
//! restored — is byte-identical to a one-shot `run_sweep` of the plan.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use serde_json::Value;

use cache8t_exec::{run_sweep, to_document, ExecOptions, SweepOptions, TraceStore};
use cache8t_obs::{OpLog, SamplerConfig};
use cache8t_serve::{codes, journal_path, Client, ClientError, PlanSpec, ServeConfig, Server};

fn spec(ops: usize) -> PlanSpec {
    PlanSpec {
        profiles: vec!["gcc".to_owned(), "mcf".to_owned()],
        geometries: vec!["baseline".to_owned()],
        ops,
        seed: 7,
        series_cadence: Some(512),
    }
}

/// What a one-shot batch run of `spec` serializes to.
fn batch_document(spec: &PlanSpec, workers: usize) -> String {
    let plan = spec.resolve().expect("plan resolves");
    let options = SweepOptions {
        exec: ExecOptions {
            workers,
            ..ExecOptions::default()
        },
        store: Arc::new(TraceStore::in_memory()),
        series: spec.series_cadence.map(|cadence| SamplerConfig {
            cadence: cadence as u64,
        }),
        ..SweepOptions::default()
    };
    let outcome = run_sweep(&plan, &options);
    assert!(outcome.failures.is_empty(), "batch reference run failed");
    serde_json::to_string_pretty(&to_document(&plan, &outcome)).expect("document serializes")
}

fn start_server(
    listen: &str,
    checkpoint_dir: Option<PathBuf>,
    workers: usize,
) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    start_server_streamed(listen, checkpoint_dir, workers, None)
}

fn start_server_streamed(
    listen: &str,
    checkpoint_dir: Option<PathBuf>,
    workers: usize,
    stream_chunk_ops: Option<usize>,
) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeConfig {
        listen: listen.to_owned(),
        checkpoint_dir,
        exec: ExecOptions {
            workers,
            ..ExecOptions::default()
        },
        store: Arc::new(TraceStore::in_memory()),
        oplog: Arc::new(OpLog::disabled()),
        stream_chunk_ops,
    })
    .expect("bind");
    let addr = server.local_addr().to_owned();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

fn connect(addr: &str) -> Client {
    Client::connect_with_retry(addr, Duration::from_secs(5)).expect("connect")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("c8t-service-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn socket_submitted_sweep_matches_the_batch_document_and_streams_events() {
    let spec = spec(3_000);
    let expected = batch_document(&spec, 2);

    let (addr, server) = start_server("127.0.0.1:0", None, 2);
    let mut client = connect(&addr);
    let job = client.submit(&spec).expect("submit");

    // `watch` on a second connection streams to the terminal row.
    let mut watcher = connect(&addr);
    let mut events: Vec<Value> = Vec::new();
    let state = watcher
        .watch(&job, |row| events.push(row.clone()))
        .expect("watch");
    assert_eq!(state, "completed");

    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("event").and_then(Value::as_str))
        .collect();
    assert!(kinds.contains(&"resume"), "resume event missing: {kinds:?}");
    assert!(kinds.contains(&"state"), "state events missing: {kinds:?}");
    assert!(
        kinds.iter().filter(|k| **k == "benchmark").count() == 2,
        "one benchmark event per benchmark: {kinds:?}"
    );
    assert!(
        kinds.contains(&"series"),
        "cadence was set, series samples must stream: {kinds:?}"
    );
    assert!(
        kinds.contains(&"progress"),
        "pool progress must stream: {kinds:?}"
    );
    // Without a checkpoint dir nothing is restored.
    let resume = events
        .iter()
        .find(|e| e.get("event").and_then(Value::as_str) == Some("resume"))
        .expect("resume event");
    assert_eq!(resume.get("restored"), Some(&Value::U64(0)));
    assert_eq!(resume.get("total"), Some(&Value::U64(2)));

    let document = client.wait_for_results(&job).expect("results");
    let served = serde_json::to_string_pretty(&document).expect("serialize");
    assert_eq!(served, expected, "served document != batch document");

    // Status carries the job summary and the server counters.
    let status = client.status(Some(&job)).expect("status");
    let summary = status.get("job").expect("job summary");
    assert_eq!(summary.get("state"), Some(&Value::Str("completed".into())));
    assert!(summary.get("metrics").is_some(), "telemetry in status");
    let overview = client.status(None).expect("server status");
    let counters = overview
        .get("server")
        .and_then(|s| s.get("counters"))
        .expect("counters");
    assert!(
        counters.get("serve.jobs_completed").is_some(),
        "server counters missing: {counters:?}"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn waiting_on_a_job_cancelled_while_queued_answers_not_finished() {
    let (addr, server) = start_server("127.0.0.1:0", None, 1);
    let mut client = connect(&addr);
    // Job A holds the executor while job B is cancelled in the queue.
    client.submit(&spec(40_000)).expect("submit a");
    let job_b = client.submit(&spec(5_000)).expect("submit b");
    client.cancel(&job_b).expect("cancel");

    let (sent, waited) = std::sync::mpsc::channel();
    let waiter = {
        let addr = addr.clone();
        thread::spawn(move || {
            let _unused = sent.send(connect(&addr).wait_for_results(&job_b));
        })
    };
    match waited.recv_timeout(Duration::from_secs(60)) {
        Ok(Err(ClientError::Server { code, message })) => {
            assert_eq!(code, codes::NOT_FINISHED);
            assert!(message.contains("cancelled"), "{message}");
        }
        other => panic!("expected not-finished, got {other:?}"),
    }
    waiter.join().expect("waiter");

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip_and_queued_job_cancellation() {
    let sock = std::env::temp_dir().join(format!("c8t-service-{}.sock", std::process::id()));
    std::fs::remove_file(&sock).ok();
    let listen = format!("unix:{}", sock.display());
    let (addr, server) = start_server(&listen, None, 2);
    assert_eq!(addr, listen);

    let mut client = connect(&addr);
    // Job A occupies the single executor; job B is cancelled while it
    // is still queued behind A, so it must drain without running.
    let job_a = client.submit(&spec(40_000)).expect("submit a");
    let job_b = client.submit(&spec(5_000)).expect("submit b");
    let response = client.cancel(&job_b).expect("cancel");
    assert_eq!(response.get("job"), Some(&Value::Str(job_b.clone())));

    let deadline = Instant::now() + Duration::from_secs(120);
    let state_b = loop {
        let status = client.status(Some(&job_b)).expect("status");
        let state = status
            .get("job")
            .and_then(|j| j.get("state"))
            .and_then(Value::as_str)
            .expect("state")
            .to_owned();
        if state == "cancelled" || state == "completed" || Instant::now() >= deadline {
            break state;
        }
        thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(state_b, "cancelled");

    // Job A is unaffected by B's cancellation.
    let document = client.wait_for_results(&job_a).expect("results a");
    assert!(document.get("geometries").is_some() || document.get("benchmarks").is_some());

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
    assert!(!sock.exists(), "socket file cleaned up on shutdown");
}

#[test]
fn health_and_metrics_answer_on_an_idle_daemon() {
    let (addr, server) = start_server("127.0.0.1:0", None, 1);
    let mut client = connect(&addr);

    let health = client.health().expect("health");
    assert_eq!(health.get("state"), Some(&Value::Str("ok".to_owned())));
    assert_eq!(health.get("jobs_total"), Some(&Value::U64(0)));
    assert_eq!(health.get("jobs_active"), Some(&Value::U64(0)));
    assert_eq!(health.get("queue_depth"), Some(&Value::U64(0)));
    assert!(health.get("uptime_ms").and_then(Value::as_u64).is_some());

    let metrics = client.metrics().expect("metrics");
    let server_block = metrics.get("server").expect("server block");
    assert_eq!(server_block.get("queue_depth"), Some(&Value::U64(0)));
    let jobs = server_block.get("jobs").expect("jobs block");
    for phase in ["queued", "running", "completed", "failed", "cancelled"] {
        assert_eq!(jobs.get(phase), Some(&Value::U64(0)), "phase {phase}");
    }
    assert_eq!(
        server_block.get("journal").and_then(|j| j.get("enabled")),
        Some(&Value::Bool(false))
    );
    let registry = metrics.get("registry").expect("registry snapshot");
    assert!(
        registry
            .get("gauges")
            .and_then(|g| g.get("serve.uptime_ms"))
            .is_some(),
        "point-in-time gauges must be refreshed into the registry"
    );

    // The registry snapshot alone renders as a Prometheus scrape.
    let text = cache8t_serve::render_metrics_text(&metrics);
    assert!(
        text.contains("# TYPE cache8t_serve_uptime_ms gauge"),
        "prometheus text missing uptime gauge:\n{text}"
    );
    assert!(text.contains("# TYPE cache8t_serve_jobs_completed gauge"));

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn per_verb_latency_histograms_and_counters_reconcile_with_status() {
    let spec = spec(1_000);
    let (addr, server) = start_server("127.0.0.1:0", None, 2);
    let mut client = connect(&addr);
    let job = client.submit(&spec).expect("submit");
    client.wait_for_results(&job).expect("results");
    let status = client.status(None).expect("status");

    let metrics = client.metrics().expect("metrics");
    let registry = metrics.get("registry").expect("registry");
    let histograms = registry.get("histograms").expect("histograms");
    let counters = registry.get("counters").expect("counters");
    for verb in ["submit", "status", "results"] {
        let latency = format!("serve.verb.{verb}.latency_us");
        let count = histograms
            .get(latency.as_str())
            .and_then(|h| h.get("count"))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("missing histogram {latency}"));
        assert!(count >= 1, "{latency} must have observations");
        let requests = format!("serve.verb.{verb}.requests");
        let requests = counters
            .get(requests.as_str())
            .and_then(Value::as_u64)
            .expect("request counter");
        assert_eq!(requests, count, "{verb} counter and histogram agree");
    }
    assert_eq!(
        counters
            .get("serve.verb.submit.requests")
            .and_then(Value::as_u64),
        Some(1),
        "exactly one submit in this session"
    );

    // The metrics job counters reconcile with the status job list.
    let listed_completed = status
        .get("jobs")
        .and_then(Value::as_array)
        .expect("jobs list")
        .iter()
        .filter(|j| j.get("state").and_then(Value::as_str) == Some("completed"))
        .count() as u64;
    let reported_completed = metrics
        .get("server")
        .and_then(|s| s.get("jobs"))
        .and_then(|j| j.get("completed"))
        .and_then(Value::as_u64)
        .expect("completed gauge");
    assert_eq!(listed_completed, 1);
    assert_eq!(reported_completed, listed_completed);

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn watch_resumes_after_a_sequence_number_without_replaying() {
    let spec = spec(1_000);
    let (addr, server) = start_server("127.0.0.1:0", None, 2);
    let mut client = connect(&addr);
    let job = client.submit(&spec).expect("submit");
    client.wait_for_results(&job).expect("results");

    // Full replay of the terminal job's ring, noting every seq.
    let mut rows: Vec<Value> = Vec::new();
    let mut watcher = connect(&addr);
    let state = watcher
        .watch(&job, |row| rows.push(row.clone()))
        .expect("watch");
    assert_eq!(state, "completed");
    let seqs: Vec<u64> = rows
        .iter()
        .filter_map(|r| r.get("seq").and_then(Value::as_u64))
        .collect();
    assert!(seqs.len() >= 3, "expected several ring rows: {seqs:?}");
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seqs must be strictly increasing: {seqs:?}"
    );

    // Resuming mid-stream delivers exactly the rows after the cursor.
    let mid = seqs[seqs.len() / 2];
    let mut resumed: Vec<u64> = Vec::new();
    let mut watcher = connect(&addr);
    watcher
        .watch_from(&job, mid, |row| {
            if let Some(seq) = row.get("seq").and_then(Value::as_u64) {
                resumed.push(seq);
            }
        })
        .expect("watch_from");
    let expected: Vec<u64> = seqs.iter().copied().filter(|s| *s > mid).collect();
    assert_eq!(resumed, expected, "resume must skip delivered rows only");

    // The reconnecting wrapper sees the same stream and final state.
    let mut via_resumable = 0usize;
    let state = cache8t_serve::watch_resumable(&addr, &job, |_| via_resumable += 1)
        .expect("watch_resumable");
    assert_eq!(state, "completed");
    assert_eq!(via_resumable, rows.len());

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}

#[test]
fn resumed_and_fully_restored_jobs_reproduce_the_batch_document() {
    let spec = spec(3_000);
    let expected = batch_document(&spec, 1);
    let dir = temp_dir("resume");

    // First server: run the sweep to completion, journalling it.
    let (addr, server) = start_server("127.0.0.1:0", Some(dir.clone()), 2);
    let mut client = connect(&addr);
    let job = client.submit(&spec).expect("submit");
    let first = client.wait_for_results(&job).expect("results");
    assert_eq!(
        serde_json::to_string_pretty(&first).expect("serialize"),
        expected
    );
    let fingerprint = client
        .status(Some(&job))
        .expect("status")
        .get("job")
        .and_then(|j| j.get("fingerprint"))
        .and_then(Value::as_str)
        .expect("fingerprint")
        .to_owned();
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");

    // Wound the journal the way a crash would: keep the first entry,
    // leave a torn half-line behind it.
    let path = journal_path(&dir, &fingerprint);
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let mut lines = text.lines();
    let keep = lines.next().expect("journal has entries");
    assert!(lines.next().is_some(), "expected one line per benchmark");
    std::fs::write(&path, format!("{keep}\n{{\"v\":\"1\",\"pl")).expect("tear journal");

    // Second server, same checkpoint dir: one slot restores, the other
    // re-runs, and the merged document is still byte-identical.
    let (addr, server) = start_server("127.0.0.1:0", Some(dir.clone()), 2);
    let mut client = connect(&addr);
    let job = client.submit(&spec).expect("submit");
    let resumed = client.wait_for_results(&job).expect("results");
    assert_eq!(
        serde_json::to_string_pretty(&resumed).expect("serialize"),
        expected,
        "resumed document != batch document"
    );
    let restored = client
        .status(Some(&job))
        .expect("status")
        .get("job")
        .and_then(|j| j.get("restored"))
        .and_then(Value::as_u64)
        .expect("restored");
    assert_eq!(restored, 1, "exactly the surviving journal entry restores");

    // Third submit on the same server: the journal is whole again (the
    // resumed run re-appended the missing slot), so everything restores
    // and the sweep runs zero jobs — and the bytes still match.
    let job = client.submit(&spec).expect("submit");
    let restored_doc = client.wait_for_results(&job).expect("results");
    assert_eq!(
        serde_json::to_string_pretty(&restored_doc).expect("serialize"),
        expected,
        "fully-restored document != batch document"
    );
    let summary = client.status(Some(&job)).expect("status");
    assert_eq!(
        summary.get("job").and_then(|j| j.get("restored")),
        Some(&Value::U64(2)),
        "every benchmark restores from the repaired journal"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
    std::fs::remove_dir_all(&dir).ok();
}

/// A complete journal line that fails validation (here another journal
/// version) must not block later resumes: the resume that meets it cuts
/// the journal back to its valid prefix, so the slots the resumed run
/// re-appends replay on the next submit.
#[test]
fn a_foreign_journal_line_does_not_block_later_resumes() {
    let spec = PlanSpec {
        profiles: vec!["gcc".to_owned(), "mcf".to_owned(), "lbm".to_owned()],
        ..spec(1_000)
    };
    let expected = batch_document(&spec, 1);
    let dir = temp_dir("foreign-line");

    // Journal the whole plan, then splice a complete line of another
    // journal version in after its first entry.
    let (addr, server) = start_server("127.0.0.1:0", Some(dir.clone()), 1);
    let mut client = connect(&addr);
    let job = client.submit(&spec).expect("submit");
    client.wait_for_results(&job).expect("results");
    let fingerprint = client
        .status(Some(&job))
        .expect("status")
        .get("job")
        .and_then(|j| j.get("fingerprint"))
        .and_then(Value::as_str)
        .expect("fingerprint")
        .to_owned();
    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
    let path = journal_path(&dir, &fingerprint);
    let text = std::fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one line per benchmark");
    let foreign = lines[0].replacen("\"v\":\"1\"", "\"v\":\"0\"", 1);
    assert_ne!(foreign, lines[0], "the entry carries its version");
    std::fs::write(
        &path,
        format!("{}\n{foreign}\n{}\n{}\n", lines[0], lines[1], lines[2]),
    )
    .expect("splice journal");

    let (addr, server) = start_server("127.0.0.1:0", Some(dir.clone()), 1);
    let mut client = connect(&addr);
    let restored = |client: &mut Client, job: &str| {
        client
            .status(Some(job))
            .expect("status")
            .get("job")
            .and_then(|j| j.get("restored"))
            .and_then(Value::as_u64)
            .expect("restored")
    };
    // Replay stops at the foreign line: only the first entry restores,
    // and the resumed document is still byte-identical.
    let job = client.submit(&spec).expect("submit");
    let resumed = client.wait_for_results(&job).expect("results");
    assert_eq!(
        serde_json::to_string_pretty(&resumed).expect("serialize"),
        expected
    );
    assert_eq!(restored(&mut client, &job), 1);
    // The foreign line was cut, so the re-run slots appended after the
    // valid prefix and everything restores now.
    let job = client.submit(&spec).expect("submit");
    let restored_doc = client.wait_for_results(&job).expect("results");
    assert_eq!(
        serde_json::to_string_pretty(&restored_doc).expect("serialize"),
        expected
    );
    assert_eq!(
        restored(&mut client, &job),
        3,
        "every benchmark restores after the cut"
    );
    let counters = client
        .status(None)
        .expect("server status")
        .get("server")
        .and_then(|s| s.get("counters"))
        .cloned()
        .expect("counters");
    assert_eq!(
        counters.get("serve.journal.repairs"),
        Some(&Value::U64(1)),
        "the cut counts as one repair"
    );
    assert_eq!(
        std::fs::read_to_string(&path)
            .expect("journal readable")
            .lines()
            .count(),
        3,
        "the journal holds one valid line per benchmark"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon configured with `--stream-chunk-ops` serves the exact
/// bytes a materialized batch run produces: streaming is a memory
/// footprint decision, never a results decision.
#[test]
fn streamed_daemon_serves_the_materialized_batch_document() {
    let spec = spec(3_000);
    let expected = batch_document(&spec, 2);

    let (addr, server) = start_server_streamed("127.0.0.1:0", None, 2, Some(700));
    let mut client = connect(&addr);
    let job = client.submit(&spec).expect("submit");
    let document = client.wait_for_results(&job).expect("results");
    let served = serde_json::to_string_pretty(&document).expect("serialize");
    assert_eq!(served, expected, "streamed document != batch document");

    client.shutdown().expect("shutdown");
    server.join().expect("join").expect("server run");
}
