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
