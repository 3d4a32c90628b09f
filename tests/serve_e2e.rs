//! End-to-end service test against the real `cache8t` binary: submit a
//! sweep over a unix socket, SIGKILL the daemon mid-run, restart it on
//! the same checkpoint journal, and assert the resumed document is
//! byte-identical to a one-shot `cache8t sweep` — for 1 and 4 workers.
//!
//! This is the acceptance test of the serve subsystem and the one
//! CI's `serve-smoke` job mirrors in shell.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PLAN_FLAGS: &[&str] = &[
    "--profiles",
    "gcc,mcf",
    "--geometries",
    "baseline",
    "--ops",
    "20000",
    "--seed",
    "7",
];

fn cache8t() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cache8t"))
}

fn run_ok(args: &[&str]) -> String {
    let output = cache8t()
        .args(args)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn cache8t");
    assert!(
        output.status.success(),
        "cache8t {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf8 stdout")
}

fn spawn_server(sock: &Path, ckpt: &Path, jobs: &str) -> Child {
    cache8t()
        .args([
            "serve",
            "--listen",
            &format!("unix:{}", sock.display()),
            "--checkpoint-dir",
            &ckpt.display().to_string(),
            "--jobs",
            jobs,
            "--trace-store",
            "off",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server")
}

/// Waits until the checkpoint dir holds a journal with at least one
/// *complete* (newline-terminated) entry, so the kill below lands after
/// some — ideally not all — benchmarks were checkpointed.
fn wait_for_journal_entry(ckpt: &Path, deadline: Duration) -> PathBuf {
    let start = Instant::now();
    loop {
        if let Ok(entries) = std::fs::read_dir(ckpt) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "jsonl") {
                    if let Ok(text) = std::fs::read_to_string(&path) {
                        if text.lines().count() >= 1 && text.contains('\n') {
                            return path;
                        }
                    }
                }
            }
        }
        assert!(
            start.elapsed() < deadline,
            "no journal entry appeared in {ckpt:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn kill_and_resume_round_trip(jobs: &str) {
    let dir = std::env::temp_dir().join(format!("c8t-serve-e2e-j{jobs}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sock = dir.join("serve.sock");
    let connect = format!("unix:{}", sock.display());
    let ckpt = dir.join("ckpt");
    let expected = dir.join("expected.json");
    let got = dir.join("got.json");

    // The reference: a one-shot batch sweep of the same plan.
    let mut sweep_args = vec!["sweep"];
    sweep_args.extend_from_slice(PLAN_FLAGS);
    sweep_args.extend_from_slice(&[
        "--jobs",
        jobs,
        "--trace-store",
        "off",
        "--out",
        expected.to_str().expect("utf8 path"),
    ]);
    run_ok(&sweep_args);

    // Start the daemon, submit, and SIGKILL it mid-sweep — after at
    // least one benchmark hit the journal, before a clean shutdown.
    let mut server = spawn_server(&sock, &ckpt, jobs);
    let mut submit_args = vec!["client", "--connect", &connect, "submit"];
    submit_args.extend_from_slice(PLAN_FLAGS);
    let job = run_ok(&submit_args);
    assert!(job.trim().starts_with("job-"), "submit echoed `{job}`");
    wait_for_journal_entry(&ckpt, Duration::from_secs(60));
    server.kill().expect("SIGKILL server");
    let _ = server.wait();

    // A fresh daemon on the same journal: resubmitting the plan must
    // resume from the checkpointed benchmarks and finish the rest.
    let mut server = spawn_server(&sock, &ckpt, jobs);
    let mut resume_args = vec!["client", "--connect", &connect, "submit", "--wait"];
    resume_args.extend_from_slice(PLAN_FLAGS);
    resume_args.extend_from_slice(&["--out", got.to_str().expect("utf8 path")]);
    run_ok(&resume_args);

    let expected_bytes = std::fs::read(&expected).expect("read expected");
    let got_bytes = std::fs::read(&got).expect("read got");
    assert!(!expected_bytes.is_empty());
    assert_eq!(
        got_bytes, expected_bytes,
        "resumed document differs from the one-shot sweep (jobs={jobs})"
    );

    run_ok(&["client", "--connect", &connect, "shutdown"]);
    let status = server.wait().expect("server exit");
    assert!(status.success(), "server exited with {status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The observability acceptance run: one daemon with a JSONL oplog and
/// a timeline, two submitted plans. The oplog must be schema-valid and
/// cover every job state transition, `metrics` must reconcile with
/// `status`, the timeline must carry both jobs' lifecycle marks, and
/// both served documents must stay byte-identical to batch sweeps.
#[test]
fn observability_run_emits_schema_valid_oplog_metrics_and_timeline() {
    use serde_json::Value;

    let dir = std::env::temp_dir().join(format!("c8t-serve-obs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sock = dir.join("serve.sock");
    let connect = format!("unix:{}", sock.display());
    let ckpt = dir.join("ckpt");
    let oplog_path = dir.join("ops.jsonl");
    let timeline_path = dir.join("daemon-timeline.json");

    let plan_a: &[&str] = &[
        "--profiles",
        "gcc",
        "--geometries",
        "baseline",
        "--ops",
        "20000",
        "--seed",
        "7",
    ];
    let plan_b: &[&str] = &[
        "--profiles",
        "mcf",
        "--geometries",
        "baseline",
        "--ops",
        "20000",
        "--seed",
        "9",
    ];

    // Batch references for both plans.
    let mut expected = Vec::new();
    for (tag, plan) in [("a", plan_a), ("b", plan_b)] {
        let out = dir.join(format!("expected-{tag}.json"));
        let mut args = vec!["sweep"];
        args.extend_from_slice(plan);
        args.extend_from_slice(&["--trace-store", "off", "--out", out.to_str().expect("utf8")]);
        run_ok(&args);
        expected.push(out);
    }

    let mut server = cache8t()
        .args([
            "serve",
            "--listen",
            &connect,
            "--checkpoint-dir",
            &ckpt.display().to_string(),
            "--trace-store",
            "off",
            "--log-out",
            oplog_path.to_str().expect("utf8"),
            "--timeline-out",
            timeline_path.to_str().expect("utf8"),
        ])
        .env("CACHE8T_LOG", "debug")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server");

    // Submit both plans, fetch both documents.
    let mut jobs = Vec::new();
    for (tag, plan) in [("a", plan_a), ("b", plan_b)] {
        let mut args = vec!["client", "--connect", &connect, "submit"];
        args.extend_from_slice(plan);
        let job = run_ok(&args).trim().to_owned();
        assert!(job.starts_with("job-"), "submit echoed `{job}`");
        let got = dir.join(format!("got-{tag}.json"));
        run_ok(&[
            "client",
            "--connect",
            &connect,
            "fetch",
            "--job",
            &job,
            "--wait",
            "--out",
            got.to_str().expect("utf8"),
        ]);
        jobs.push((job, got));
    }
    for ((_, got), want) in jobs.iter().zip(&expected) {
        assert_eq!(
            std::fs::read(got).expect("served document"),
            std::fs::read(want).expect("batch document"),
            "served document differs from the one-shot sweep"
        );
    }

    // `metrics` reconciles with `status`, and `top --once` renders.
    let metrics: Value =
        serde_json::from_str(&run_ok(&["client", "--connect", &connect, "metrics"]))
            .expect("metrics parses");
    let status: Value = serde_json::from_str(&run_ok(&["client", "--connect", &connect, "status"]))
        .expect("status parses");
    let completed_listed = status
        .get("jobs")
        .and_then(Value::as_array)
        .expect("status jobs")
        .iter()
        .filter(|j| j.get("state").and_then(Value::as_str) == Some("completed"))
        .count() as u64;
    assert_eq!(completed_listed, 2);
    let server_block = metrics.get("server").expect("metrics server block");
    assert_eq!(
        server_block.get("jobs").and_then(|j| j.get("completed")),
        Some(&Value::U64(2)),
        "metrics job counters must reconcile with status"
    );
    assert!(
        server_block
            .get("journal")
            .and_then(|j| j.get("bytes"))
            .and_then(Value::as_u64)
            .expect("journal bytes")
            > 0,
        "checkpointed jobs must report journal growth"
    );
    assert_eq!(
        metrics
            .get("registry")
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get("serve.verb.submit.requests")),
        Some(&Value::U64(2))
    );
    let prom = run_ok(&["client", "--connect", &connect, "metrics", "--text"]);
    assert!(
        prom.contains("# TYPE cache8t_serve_jobs_completed gauge"),
        "prometheus text missing job gauge:\n{prom}"
    );
    let top = run_ok(&["top", "--connect", &connect, "--once"]);
    assert!(top.contains("completed 2"), "top frame:\n{top}");

    run_ok(&["client", "--connect", &connect, "shutdown"]);
    let code = server.wait().expect("server exit");
    assert!(code.success(), "server exited with {code}");

    // Oplog: every line schema-valid, every transition covered.
    let oplog_text = std::fs::read_to_string(&oplog_path).expect("oplog written");
    let mut states: Vec<(String, String)> = Vec::new();
    let mut events: Vec<String> = Vec::new();
    for line in oplog_text.lines() {
        let record: Value = serde_json::from_str(line).expect("oplog line parses");
        assert_eq!(record.get("v").and_then(Value::as_str), Some("1"));
        assert!(record.get("ts_ms").and_then(Value::as_u64).is_some());
        assert!(record.get("uptime_ms").and_then(Value::as_u64).is_some());
        let level = record.get("level").and_then(Value::as_str).expect("level");
        assert!(["error", "warn", "info", "debug"].contains(&level));
        let event = record.get("event").and_then(Value::as_str).expect("event");
        events.push(event.to_owned());
        if event == "state" {
            states.push((
                record
                    .get("job")
                    .and_then(Value::as_str)
                    .expect("job")
                    .to_owned(),
                record
                    .get("state")
                    .and_then(Value::as_str)
                    .expect("state")
                    .to_owned(),
            ));
        }
    }
    for (job, _) in &jobs {
        for want in ["queued", "running", "completed"] {
            assert!(
                states.contains(&(job.clone(), want.to_owned())),
                "oplog missing state `{want}` for {job}; states: {states:?}"
            );
        }
    }
    assert_eq!(events.iter().filter(|e| *e == "submit").count(), 2);
    assert!(events.contains(&"accept".to_owned()));
    assert!(events.contains(&"shutdown".to_owned()));

    // Timeline: Perfetto-loadable JSON with both jobs' lifecycle marks.
    let timeline: Value = serde_json::from_str(
        std::fs::read_to_string(&timeline_path)
            .expect("timeline written")
            .trim(),
    )
    .expect("timeline parses");
    let trace_events = timeline
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert_eq!(
        timeline.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let names: Vec<&str> = trace_events
        .iter()
        .filter(|e| e.get("cat").and_then(Value::as_str) == Some("job"))
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    for (job, _) in &jobs {
        for mark in ["queued", "running", "run", "completed"] {
            let want = format!("{job} {mark}");
            assert!(
                names.iter().any(|n| *n == want),
                "timeline missing `{want}`; job marks: {names:?}"
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_and_resumed_sweep_is_byte_identical_single_worker() {
    kill_and_resume_round_trip("1");
}

#[test]
fn killed_and_resumed_sweep_is_byte_identical_four_workers() {
    kill_and_resume_round_trip("4");
}
