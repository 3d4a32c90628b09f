//! End-to-end test of the `cache8t` CLI binary: generate → analyze →
//! simulate through real process invocations.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cache8t"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cache8t-e2e");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = cli().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn list_profiles_shows_all_25() {
    let out = cli().arg("list-profiles").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bwaves"));
    assert!(stdout.contains("cactusADM"));
    // Header + 25 rows.
    assert_eq!(stdout.lines().count(), 26, "{stdout}");
}

#[test]
fn gen_analyze_simulate_pipeline() {
    let trace_path = temp_path("pipeline.c8tt");
    let trace_arg = trace_path.to_string_lossy().to_string();

    let out = cli()
        .args([
            "gen",
            "--profile",
            "bwaves",
            "--ops",
            "20000",
            "--out",
            &trace_arg,
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote 20000 ops"));

    let out = cli()
        .args(["analyze", "--trace", &trace_arg])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("reads/instr"), "{stdout}");

    // The same trace through two schemes: WG+RB must issue fewer array
    // accesses than RMW.
    let accesses = |scheme: &str| -> u64 {
        let out = cli()
            .args(["simulate", "--scheme", scheme, "--trace", &trace_arg])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.contains("array accesses"))
            .expect("traffic line present");
        line.split("array accesses ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unparseable traffic line: {line}"))
    };
    let rmw = accesses("rmw");
    let wgrb = accesses("wg+rb");
    assert!(wgrb < rmw, "WG+RB {wgrb} should be below RMW {rmw}");
    // Scheme names are case-insensitive, as `check --schemes` takes them.
    assert_eq!(accesses("WG+RB"), wgrb);

    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn simulate_accepts_custom_geometry() {
    let out = cli()
        .args([
            "simulate",
            "--scheme",
            "wg",
            "--profile",
            "gcc",
            "--ops",
            "5000",
            "--cache",
            "32,4,64",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("32KB/4-way/64B"));
}

#[test]
fn bad_inputs_fail_cleanly() {
    for args in [
        vec!["simulate", "--scheme", "bogus", "--profile", "gcc"],
        vec!["simulate", "--scheme", "wg", "--profile", "not-a-benchmark"],
        vec!["analyze", "--trace", "/nonexistent/path.c8tt"],
        vec!["gen", "--profile", "gcc"], // missing --out
        vec!["frobnicate"],
    ] {
        let out = cli().args(&args).output().expect("binary runs");
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(!out.stderr.is_empty(), "args {args:?} should explain");
    }

    // A flag the subcommand would ignore fails, naming the flag.
    let out_file = temp_path("ignored.out").to_string_lossy().to_string();
    let series = temp_path("ignored.jsonl").to_string_lossy().to_string();
    let simulate = [
        "simulate",
        "--scheme",
        "wg",
        "--profile",
        "gcc",
        "--ops",
        "1000",
    ];
    for (args, flag) in [
        (
            vec![
                "gen",
                "--profile",
                "gcc",
                "--ops",
                "1000",
                "--out",
                &out_file,
                "--series-out",
                &series,
            ],
            "--series-out",
        ),
        ([&simulate[..], &["--shard", "1/2"]].concat(), "--shard"),
        (
            [&simulate[..], &["--profiles", "mcf"]].concat(),
            "--profiles",
        ),
        (
            vec![
                "sweep",
                "--profiles",
                "gcc",
                "--geometries",
                "baseline",
                "--ops",
                "2000",
                "--series-cadence",
                "7",
                "--out",
                &out_file,
            ],
            "--series-cadence",
        ),
    ] {
        let out = cli().args(&args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "args {args:?} should fail");
        assert!(stderr.contains(flag), "args {args:?}: {stderr}");
    }

    // So does a flag the selected mode would ignore, naming the mode.
    // Parsing rejects these before any file is read or any daemon is
    // contacted.
    let shard = temp_path("ignored-shard.json")
        .to_string_lossy()
        .to_string();
    let trace = temp_path("ignored.c8tt").to_string_lossy().to_string();
    let mut cases = vec![
        (
            vec![
                "sweep", "--merge", &shard, "--out", &out_file, "--ops", "2000",
            ],
            "sweep --merge does not take --ops".to_string(),
        ),
        (
            vec!["sweep", "--merge", &shard, "--json", "--jobs", "2"],
            "sweep --merge does not take --jobs".to_string(),
        ),
        (
            vec!["check", "--trace", &trace, "--profiles", "gcc"],
            "check --trace does not take --profiles".to_string(),
        ),
    ];
    for (action, flag, value) in [
        ("status", "--profiles", Some("gcc")),
        ("status", "--wait", None),
        ("fetch", "--ops", Some("2000")),
        ("watch", "--json", None),
        ("cancel", "--out", Some(out_file.as_str())),
        ("health", "--job", Some("job-1")),
        ("metrics", "--wait", None),
        ("shutdown", "--text", None),
        ("submit", "--job", Some("job-1")),
        ("submit", "--text", None),
    ] {
        let mut args = vec!["client", "--connect", "127.0.0.1:9", action, flag];
        args.extend(value);
        cases.push((args, format!("client {action} does not take {flag}")));
    }
    for (args, message) in cases {
        let out = cli().args(&args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {stderr}");
        assert!(stderr.contains(&message), "args {args:?}: {stderr}");
    }
}

/// Runs `cache8t args..` with its stdout a pipe whose reader is
/// already gone, so its first report write fails with `BrokenPipe`.
fn output_with_stdout_closed(args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    cli()
        .args(args)
        .stdout(writer)
        .output()
        .expect("binary runs")
}

#[test]
fn closed_stdout_ends_list_profiles_quietly() {
    let out = output_with_stdout_closed(&["list-profiles"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}

/// A closed stdout drops the report but not the files: `simulate`
/// prints before it writes `--metrics-out`.
#[test]
fn closed_stdout_still_writes_the_metrics_file() {
    let simulate = |path: &PathBuf, closed: bool| {
        let path = path.to_string_lossy().to_string();
        let args = [
            "simulate",
            "--profile",
            "gcc",
            "--scheme",
            "wg",
            "--ops",
            "2000",
            "--metrics-out",
            &path,
        ];
        if closed {
            output_with_stdout_closed(&args)
        } else {
            cli().args(args).output().expect("binary runs")
        }
    };
    let open_path = temp_path("stdout-open-metrics.json");
    let closed_path = temp_path("stdout-closed-metrics.json");
    let open = simulate(&open_path, false);
    assert!(open.status.success());
    let closed = simulate(&closed_path, true);
    let stderr = String::from_utf8_lossy(&closed.stderr);
    assert_eq!(closed.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    let read = |path: &PathBuf| std::fs::read(path).expect("metrics written");
    assert_eq!(read(&closed_path), read(&open_path));
    std::fs::remove_file(&open_path).ok();
    std::fs::remove_file(&closed_path).ok();
}

/// `bench-core --json` carries every row of the checked-in baseline,
/// so CI's perfdiff never compares against a row that is gone. Key
/// names only: speeds vary by host and build.
#[test]
fn bench_core_document_has_every_baseline_row() {
    use serde_json::Value;

    fn leaves(value: &Value, path: &mut Vec<String>, into: &mut Vec<Vec<String>>) {
        match value.as_object() {
            Some(fields) => {
                for (key, field) in fields {
                    path.push(key.clone());
                    leaves(field, path, into);
                    path.pop();
                }
            }
            None => into.push(path.clone()),
        }
    }

    let baseline_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/bench_core_baseline.json"
    );
    let baseline_text = std::fs::read_to_string(baseline_path).expect("baseline readable");
    let baseline: Value = serde_json::from_str(&baseline_text).expect("baseline parses");
    let out = cli()
        .args(["bench-core", "--ops", "4000", "--reps", "1", "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The document follows the human-readable table on stdout.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let start = stdout.find("\n{").expect("a JSON document on stdout") + 1;
    let doc: Value = serde_json::from_str(&stdout[start..]).expect("document parses");

    let mut keys = Vec::new();
    leaves(&baseline, &mut Vec::new(), &mut keys);
    assert!(keys.len() > 10, "{keys:?}");
    for key in &keys {
        let found = key.iter().try_fold(&doc, |value, name| value.get(name));
        assert!(found.is_some(), "bench-core --json lacks {}", key.join("."));
    }
}

#[cfg(target_os = "linux")]
#[test]
fn writers_report_a_full_disk_instead_of_success() {
    // /dev/full opens fine and fails every write with ENOSPC: a writer
    // that drops its buffer unflushed would claim success here.
    let simulate = "simulate --scheme wg+rb --profile gcc --ops 3000";
    let series = "--series-cadence 256 --series-out /dev/full";
    for args in [
        // Small enough to fit in the write buffer.
        "gen --profile gcc --ops 100 --out /dev/full".to_string(),
        format!("{simulate} --metrics-out /dev/full"),
        format!("{simulate} --trace-out /dev/full"),
        format!("{simulate} --timeline-out /dev/full"),
        format!("{simulate} {series}"),
        format!("{simulate} {series} --stream-chunk-ops 512"),
    ] {
        let out = cli()
            .args(args.split(' '))
            .env("CACHE8T_TRACE", "event")
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert_ne!(out.status.code(), Some(101), "{args:?} panicked: {stderr}");
        assert!(
            stderr.contains("cannot write /dev/full"),
            "{args:?}: {stderr}"
        );
        assert!(
            !stdout.contains("/dev/full") && !stderr.contains("written to /dev/full"),
            "{args:?} claimed success: {stdout}{stderr}"
        );
    }
}

/// A streamed `simulate` draws the prefetch handoff on two tracks: the
/// producer's `chunk-prefetch` track holds one `prefetch.produce` slice
/// per chunk plus the call that finds the end of the stream and one
/// `prefetch.send` per chunk; the consumer's `main` track holds one
/// `prefetch.wait` per chunk plus the end-of-stream `recv`.
#[test]
fn streamed_simulate_times_the_prefetch_handoff() {
    use std::collections::HashMap;

    use serde_json::Value;

    let path = temp_path("prefetch-timeline.json");
    let path_arg = path.to_string_lossy().to_string();
    let out = cli()
        .args([
            "simulate",
            "--profile",
            "gcc",
            "--scheme",
            "wg+rb",
            "--ops",
            "20000",
            "--stream-chunk-ops",
            "4096",
            "--timeline-out",
            &path_arg,
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("timeline written");
    let doc: Value = serde_json::from_str(&text).expect("timeline parses");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let field = |e: &Value, key: &str| e.get(key).cloned().expect("event field");
    let str_of = |e: &Value, key: &str| field(e, key).as_str().expect("string").to_owned();

    let mut tracks = HashMap::new();
    for e in events.iter().filter(|e| str_of(e, "ph") == "M") {
        let name = field(e, "args")
            .get("name")
            .and_then(Value::as_str)
            .map(str::to_owned);
        tracks.insert(
            name.expect("track name"),
            field(e, "tid").as_u64().expect("tid"),
        );
    }
    let (main, prefetch) = (tracks["main"], tracks["chunk-prefetch"]);

    // ceil(20000 / 4096) = 5 chunks.
    let chunks = 5;
    let begins = |tid: u64, name: &str| {
        events
            .iter()
            .filter(|e| {
                str_of(e, "ph") == "B"
                    && field(e, "tid").as_u64() == Some(tid)
                    && str_of(e, "name") == name
            })
            .count()
    };
    assert_eq!(begins(prefetch, "prefetch.produce"), chunks + 1);
    assert_eq!(begins(prefetch, "prefetch.send"), chunks);
    assert_eq!(begins(main, "prefetch.wait"), chunks + 1);
    for (tid, name) in [
        (main, "prefetch.produce"),
        (main, "prefetch.send"),
        (prefetch, "prefetch.wait"),
    ] {
        assert_eq!(begins(tid, name), 0, "{name} on the wrong track");
    }

    // Every `E` closes the most recent open `B` on its track.
    let mut open: HashMap<u64, Vec<String>> = HashMap::new();
    for e in events {
        let tid = field(e, "tid").as_u64().expect("tid");
        match str_of(e, "ph").as_str() {
            "B" => open.entry(tid).or_default().push(str_of(e, "name")),
            "E" => {
                let top = open.entry(tid).or_default().pop();
                assert_eq!(top, Some(str_of(e, "name")), "unbalanced slice");
            }
            _ => {}
        }
    }
    assert!(
        open.values().all(Vec::is_empty),
        "unclosed slices: {open:?}"
    );
}
