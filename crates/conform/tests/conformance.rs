//! End-to-end conformance: every checked-in workload profile replays
//! cleanly through all five schemes, and an injected Dirty-bit fault is
//! both caught and shrunk to a tiny reproducer.

use cache8t_conform::{
    fuzz::{fuzz_round, shrink, write_repro},
    replay, ConformConfig, DivergenceKind,
};
use cache8t_core::{SchemeKind, WgFault};
use cache8t_exec::{run_jobs, ExecOptions};
use cache8t_obs::{Component, EventKind, TraceEvent, TraceLevel, Tracer};
use cache8t_sim::CacheGeometry;
use cache8t_trace::{profiles, ProfiledGenerator, Trace, TraceGenerator};

/// Small enough for constant conflicts, fast tier-1 runtime.
fn tiny() -> CacheGeometry {
    CacheGeometry::new(1024, 2, 32).expect("valid test geometry")
}

/// Satellite: `flush()` + `peek_word()` equivalence across all five
/// backends on every checked-in workload profile. The golden-memory
/// sweep inside `replay` compares each scheme's post-flush `peek_word`
/// against the architectural value for every touched address, so a
/// clean report *is* the equivalence statement.
#[test]
fn all_profiles_replay_cleanly_through_every_scheme() {
    let names = profiles::names();
    assert_eq!(names.len(), 25, "the checked-in profile set moved");
    let jobs: Vec<_> = names
        .iter()
        .map(|&name| {
            move || {
                let profile = profiles::by_name(name).expect("profile exists");
                let trace = ProfiledGenerator::new(profile, tiny(), 0xC8).collect(1200);
                let report = replay(&trace, &ConformConfig::new(tiny()));
                (name, report)
            }
        })
        .collect();
    let exec = ExecOptions {
        workers: 0,
        ..ExecOptions::default()
    };
    let report = run_jobs(jobs, &exec, None, None);
    let mut checked = 0;
    for outcome in report.outcomes {
        let (name, r) = outcome.completed().expect("replay job must not panic");
        assert!(
            r.pass(),
            "profile {name} diverged: {}",
            r.divergences
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
        assert_eq!(r.ops_replayed, 1200);
        assert_eq!(r.schemes.len(), 5);
        checked += 1;
    }
    assert_eq!(checked, 25);
}

/// A subset of schemes can be checked in isolation and still agrees
/// with the golden memory (exercises the `--schemes` path of the CLI).
#[test]
fn scheme_subsets_are_checkable() {
    let profile = profiles::by_name("mcf").expect("profile exists");
    let trace = ProfiledGenerator::new(profile, tiny(), 7).collect(800);
    let mut config = ConformConfig::new(tiny());
    config.schemes = vec![SchemeKind::Wg, SchemeKind::WgRb, SchemeKind::Coalesce(8)];
    let report = replay(&trace, &config);
    assert!(report.pass(), "{}", report.summary());
    assert_eq!(report.schemes, vec!["WG", "WG+RB", "CoalesceWB(8)"]);
}

/// Acceptance check: arming `WgFault::SkipDirtyBit` makes the WG
/// controller drop grouped writes on eviction; the harness must catch
/// the divergence on a fuzzed trace and shrink it to a reproducer of
/// at most 64 ops that still fails and survives a C8TT round trip.
#[test]
fn injected_dirty_bit_fault_is_caught_and_shrunk() {
    let mut config = ConformConfig::new(tiny());
    config.wg_fault = Some(WgFault::SkipDirtyBit);

    let (trace, report) = fuzz_round(0xBAD, 1500, &config);
    assert!(!report.pass(), "the fault must be observable");
    assert!(
        report.divergences.iter().any(|d| matches!(
            d.kind,
            DivergenceKind::ValueMismatch | DivergenceKind::FinalValue
        )),
        "a dropped dirty bit must surface as lost data, got {:?}",
        report.divergences
    );

    let repro = shrink(&trace, &config).expect("failing trace shrinks");
    assert!(
        repro.len() <= 64,
        "reproducer must be minimal, got {} ops",
        repro.len()
    );
    assert!(!replay(&repro, &config).pass(), "reproducer still fails");

    // The reproducer must not implicate the healthy implementation.
    let healthy = ConformConfig::new(tiny());
    assert!(
        replay(&repro, &healthy).pass(),
        "healthy schemes stay clean"
    );

    // Round-trip through the on-disk C8TT format used by `cache8t check`.
    let dir = std::env::temp_dir().join(format!("cache8t-conform-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = write_repro(&dir, "wg-skip-dirty-seed-0xBAD", &repro).expect("write repro");
    let back =
        Trace::read_from(std::fs::File::open(&path).expect("open repro")).expect("parse repro");
    assert_eq!(back, repro);
    assert!(!replay(&back, &config).pass(), "reloaded repro still fails");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cache8t check --trace-out` writes a fault-injected replay's
/// divergences as the same JSONL a tracer holding one
/// `Conform`/`Divergence` event per divergence writes: stamped with the
/// op index, carrying the address and the kind's discriminant, in order.
#[test]
fn trace_out_writes_one_divergence_event_per_divergence() {
    let mut config = ConformConfig::new(tiny());
    config.wg_fault = Some(WgFault::SkipDirtyBit);
    let (_, report) = fuzz_round(0xBAD, 1500, &config);
    assert!(!report.pass(), "the fault must be observable");

    let mut tracer = Tracer::new(TraceLevel::Event, report.divergences.len());
    for d in &report.divergences {
        tracer.emit(TraceEvent::new(
            d.op_index,
            Component::Conform,
            EventKind::Divergence,
            d.addr,
            d.kind.discriminant(),
        ));
    }
    assert_eq!(tracer.dropped(), 0);
    let mut expected = Vec::new();
    tracer.write_jsonl(&mut expected).expect("in-memory write");

    let mut written = Vec::new();
    report
        .write_trace_jsonl(&mut written)
        .expect("in-memory write");
    assert_eq!(
        String::from_utf8(written).expect("utf-8"),
        String::from_utf8(expected).expect("utf-8")
    );
}
