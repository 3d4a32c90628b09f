//! Reproducibility guarantees claimed in `EXPERIMENTS.md`:
//! identical seeds give identical results, and the suite averages are
//! stable across seeds (the synthetic workloads are stationary).

use cache8t::exec::{run_suites, GeometryPoint, SweepOptions};
use cache8t_bench::experiment::{average, BenchmarkResult};

const OPS: usize = 30_000;

/// The 25-benchmark suite on the baseline cache, run by the sweep engine.
fn suite(ops: usize, seed: u64) -> Vec<BenchmarkResult> {
    let baseline = GeometryPoint::named("baseline").expect("named geometry");
    run_suites(vec![baseline], ops, seed, &SweepOptions::default())
        .expect("sweep completes")
        .remove(0)
}

fn averages(seed: u64) -> (f64, f64) {
    let results = suite(OPS, seed);
    (
        average(&results, BenchmarkResult::wg_reduction),
        average(&results, BenchmarkResult::wgrb_reduction),
    )
}

#[test]
fn identical_seeds_give_identical_results() {
    let a = suite(5_000, 9);
    let b = suite(5_000, 9);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.rmw.array_accesses, y.rmw.array_accesses, "{}", x.name);
        assert_eq!(x.wg.traffic, y.wg.traffic, "{}", x.name);
        assert_eq!(x.wgrb.traffic, y.wgrb.traffic, "{}", x.name);
        assert_eq!(x.stream, y.stream, "{}", x.name);
    }
}

#[test]
fn suite_averages_are_stable_across_seeds() {
    let (wg_a, wgrb_a) = averages(42);
    let (wg_b, wgrb_b) = averages(1234);
    assert!(
        (wg_a - wg_b).abs() < 0.015,
        "WG averages drift across seeds: {wg_a} vs {wg_b}"
    );
    assert!(
        (wgrb_a - wgrb_b).abs() < 0.015,
        "WG+RB averages drift across seeds: {wgrb_a} vs {wgrb_b}"
    );
}
