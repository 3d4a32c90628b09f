//! The sweep's memory follows its running jobs, not its plan.
//!
//! A sweep job opens its profile's trace, replays it through every
//! geometry and scheme, and drops it, so a materialized sweep on one
//! worker holds one trace at a time however many profiles the plan has.
//! `VmHWM` from `/proc/self/status` is the process-wide high-water mark,
//! so this test lives in its own test binary (as `stream_rss.rs` does):
//! no other test shares the process whose peak it reads.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use cache8t::exec::{run_sweep, ExecOptions, GeometryPoint, SweepOptions, SweepPlan, TraceStore};
use cache8t::trace::{profiles, MemOp};

/// `VmHWM` (peak resident set) in kibibytes, from `/proc/self/status`.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmHWM line present")
}

const PROFILES: [&str; 8] = [
    "perlbench",
    "bzip2",
    "gcc",
    "mcf",
    "milc",
    "lbm",
    "bwaves",
    "wrf",
];

#[test]
fn materialized_sweep_holds_one_trace_per_running_job() {
    // Small working sets keep each controller's backing memory and the
    // stream statistics' state far below a trace, so the measurement
    // isolates the traces.
    let profiles = PROFILES
        .iter()
        .map(|name| {
            let mut profile = profiles::by_name(name).expect("suite profile");
            profile.working_set_blocks = 4_096;
            profile.validate().expect("shrunk profile stays valid");
            profile
        })
        .collect();
    let plan = SweepPlan {
        profiles,
        geometries: vec![GeometryPoint::named("baseline").expect("named geometry")],
        ops: 200_000,
        seed: 5,
    };
    let options = SweepOptions {
        exec: ExecOptions {
            workers: 1,
            ..ExecOptions::default()
        },
        store: Arc::new(TraceStore::in_memory()),
        ..SweepOptions::default()
    };
    let trace_kib = (plan.config(0).total_ops() * std::mem::size_of::<MemOp>()) as u64 / 1024;

    let before = peak_rss_kib();
    let outcome = run_sweep(&plan, &options);
    let growth_kib = peak_rss_kib() - before;

    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    assert_eq!(outcome.geometries[0].results.iter().flatten().count(), 8);
    // Holding every trace would cost 8 traces; one job at a time costs
    // one trace plus its controllers, decode buffers and results.
    assert!(
        growth_kib < 3 * trace_kib,
        "peak RSS grew {growth_kib} KiB over {} profiles; one trace is {trace_kib} KiB",
        PROFILES.len()
    );
}
