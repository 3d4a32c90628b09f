//! Calibration tests: the generated streams and the simulated techniques
//! land on the paper's reported numbers.
//!
//! These assert the *text-anchored* values of the paper (averages and the
//! named outliers) within tolerances that cover the statistical noise of
//! the shortened streams used in CI-sized runs. `EXPERIMENTS.md` records
//! full-length results.

use cache8t::exec::{run_suites, run_sweep, GeometryPoint, SweepOptions, SweepPlan};
use cache8t::sim::CacheGeometry;
use cache8t::trace::analyze::StreamStats;
use cache8t::trace::{profiles, ProfiledGenerator, TraceGenerator};
use cache8t_bench::experiment::{average, BenchmarkResult};

const OPS: usize = 40_000;
const SEED: u64 = 42;

fn baseline() -> GeometryPoint {
    GeometryPoint::named("baseline").expect("named geometry")
}

/// The 25-benchmark suite on the baseline cache, run by the sweep engine.
fn baseline_suite() -> Vec<BenchmarkResult> {
    run_suites(vec![baseline()], OPS, SEED, &SweepOptions::default())
        .expect("sweep completes")
        .remove(0)
}

fn suite_stats() -> Vec<(String, StreamStats)> {
    let geometry = CacheGeometry::paper_baseline();
    profiles::spec2006()
        .into_iter()
        .map(|p| {
            let name = p.name.clone();
            let trace = ProfiledGenerator::new(p, geometry, SEED).collect(OPS);
            (name, StreamStats::measure(&trace, geometry))
        })
        .collect()
}

#[test]
fn figure3_read_write_frequency_matches_paper() {
    let stats = suite_stats();
    let n = stats.len() as f64;
    let avg_reads = stats.iter().map(|(_, s)| s.read_per_instr).sum::<f64>() / n;
    let avg_writes = stats.iter().map(|(_, s)| s.write_per_instr).sum::<f64>() / n;
    // Paper §3: "on average ... 26% reads and 14% writes".
    assert!(
        (avg_reads - 0.26).abs() < 0.02,
        "avg reads/instr {avg_reads}"
    );
    assert!(
        (avg_writes - 0.14).abs() < 0.02,
        "avg writes/instr {avg_writes}"
    );
    // Paper §3: "Write frequency increases to more than 22% for
    // write-intensive applications (e.g., bwaves)".
    let bwaves = &stats
        .iter()
        .find(|(n, _)| n == "bwaves")
        .expect("bwaves present")
        .1;
    assert!(
        bwaves.write_per_instr > 0.22,
        "bwaves writes {}",
        bwaves.write_per_instr
    );
}

#[test]
fn figure4_consecutive_scenarios_match_paper() {
    let stats = suite_stats();
    let n = stats.len() as f64;
    let avg_same_set = stats
        .iter()
        .map(|(_, s)| s.consecutive.total())
        .sum::<f64>()
        / n;
    // Paper §3: "a considerable share of cache accesses (on average 27%)
    // are made to the same cache set".
    assert!(
        (avg_same_set - 0.27).abs() < 0.03,
        "avg same-set {avg_same_set}"
    );
    // Paper §5.2: "the WW share is highest (24%) for bwaves".
    let bwaves = &stats
        .iter()
        .find(|(n, _)| n == "bwaves")
        .expect("bwaves present")
        .1;
    assert!(
        (bwaves.consecutive.ww - 0.24).abs() < 0.02,
        "bwaves ww {}",
        bwaves.consecutive.ww
    );
    let max_ww = stats
        .iter()
        .map(|(_, s)| s.consecutive.ww)
        .fold(0.0f64, f64::max);
    assert!(
        bwaves.consecutive.ww >= max_ww - 1e-9,
        "bwaves has the largest WW share"
    );
}

#[test]
fn figure5_silent_writes_match_paper() {
    let stats = suite_stats();
    let n = stats.len() as f64;
    let avg = stats
        .iter()
        .map(|(_, s)| s.silent_write_fraction)
        .sum::<f64>()
        / n;
    // Paper §3: "on average more than 42% of writes are silent".
    assert!(avg > 0.42, "avg silent {avg}");
    // Paper §5.2: "silent write frequency is high (77%) in bwaves".
    let bwaves = &stats
        .iter()
        .find(|(n, _)| n == "bwaves")
        .expect("bwaves present")
        .1;
    assert!(
        (bwaves.silent_write_fraction - 0.77).abs() < 0.03,
        "bwaves silent {}",
        bwaves.silent_write_fraction
    );
}

#[test]
fn motivation_rmw_traffic_increase_matches_paper() {
    let results = baseline_suite();
    let avg = average(&results, BenchmarkResult::rmw_increase);
    let max = results
        .iter()
        .map(BenchmarkResult::rmw_increase)
        .fold(0.0f64, f64::max);
    // Paper §1: "RMW increases cache access frequency by more than 32% on
    // average (max 47%)".
    assert!(avg > 0.30, "avg RMW increase {avg}");
    assert!((max - 0.47).abs() < 0.04, "max RMW increase {max}");
}

#[test]
fn figure9_reductions_match_paper() {
    let results = baseline_suite();
    let wg = average(&results, BenchmarkResult::wg_reduction);
    let wgrb = average(&results, BenchmarkResult::wgrb_reduction);
    // Paper §5.2: "cache access frequency is reduced by 27% and 33%".
    assert!((wg - 0.27).abs() < 0.03, "avg WG reduction {wg}");
    assert!((wgrb - 0.33).abs() < 0.03, "avg WG+RB reduction {wgrb}");
    // "WG+RB outperforms WG in all benchmarks."
    for r in &results {
        assert!(r.wgrb_reduction() > r.wg_reduction(), "{}", r.name);
    }
    // "We achieve a significant cache access frequency reduction (47%) in
    // bwaves by employing WG" — and it is the maximum.
    let bwaves = results
        .iter()
        .find(|r| r.name == "bwaves")
        .expect("bwaves present");
    assert!(
        (bwaves.wg_reduction() - 0.47).abs() < 0.04,
        "bwaves WG {}",
        bwaves.wg_reduction()
    );
    let max_wg = results
        .iter()
        .map(BenchmarkResult::wg_reduction)
        .fold(0.0f64, f64::max);
    assert!(bwaves.wg_reduction() >= max_wg - 1e-9);
}

#[test]
fn figure9_beneficiaries_match_paper_narrative() {
    let results = baseline_suite();
    let avg_delta = average(&results, |r| r.wgrb_reduction() - r.wg_reduction());
    // Paper §5.2: gamess and cactusADM benefit more from read bypassing.
    for name in ["gamess", "cactusADM"] {
        let r = results
            .iter()
            .find(|r| r.name == name)
            .expect("benchmark present");
        let delta = r.wgrb_reduction() - r.wg_reduction();
        assert!(
            delta > avg_delta,
            "{name}: delta {delta} <= avg {avg_delta}"
        );
    }
    // Paper §5.2: wrf and lbm behave like bwaves (well above average WG).
    let avg_wg = average(&results, BenchmarkResult::wg_reduction);
    for name in ["wrf", "lbm"] {
        let r = results
            .iter()
            .find(|r| r.name == name)
            .expect("benchmark present");
        assert!(
            r.wg_reduction() > avg_wg + 0.05,
            "{name} {}",
            r.wg_reduction()
        );
    }
}

#[test]
fn single_benchmark_runner_matches_suite_entry() {
    let plan = SweepPlan {
        profiles: vec![profiles::by_name("gcc").expect("gcc present")],
        geometries: vec![baseline()],
        ops: OPS,
        seed: SEED,
    };
    let gcc_direct = run_sweep(&plan, &SweepOptions::default())
        .into_complete()
        .expect("sweep completes")
        .remove(0)
        .remove(0);
    let suite = baseline_suite();
    let gcc_in_suite = suite.iter().find(|r| r.name == "gcc").expect("gcc present");
    assert_eq!(
        gcc_direct.rmw.array_accesses,
        gcc_in_suite.rmw.array_accesses
    );
    assert_eq!(
        gcc_direct.wgrb.array_accesses,
        gcc_in_suite.wgrb.array_accesses
    );
    assert_eq!(
        serde_json::to_string(&gcc_direct).unwrap(),
        serde_json::to_string(gcc_in_suite).unwrap()
    );
}
