//! Geometry-sensitivity shape tests (the paper's Figures 10 and 11).
//!
//! One fixed trace per benchmark (shaped at the reference geometry, as the
//! paper's Pin traces were) is replayed against different cache shapes:
//!
//! - **Figure 10**: 64 B blocks *raise* both reductions (spatial locality
//!   makes more accesses land in the buffered set);
//! - **Figure 11**: reductions are essentially insensitive to cache
//!   capacity, with a slight decrease at larger sizes.

use cache8t::exec::{run_suites, GeometryPoint, SweepOptions};
use cache8t_bench::experiment::{average, BenchmarkResult};

const OPS: usize = 40_000;
const SEED: u64 = 42;

/// Suite-average (WG, WG+RB) reductions at two named geometries, run by
/// the sweep engine over one shared set of traces.
fn averages(a: &str, b: &str) -> [(f64, f64); 2] {
    let points = [a, b].map(|label| GeometryPoint::named(label).expect("named geometry"));
    let results =
        run_suites(points.to_vec(), OPS, SEED, &SweepOptions::default()).expect("sweep completes");
    [0, 1].map(|g| {
        (
            average(&results[g], BenchmarkResult::wg_reduction),
            average(&results[g], BenchmarkResult::wgrb_reduction),
        )
    })
}

#[test]
fn figure10_larger_blocks_raise_reductions() {
    let [(wg_base, wgrb_base), (wg_64b, wgrb_64b)] = averages("baseline", "blocks64");
    // Paper §5.3: 29% / 37% at 64 B blocks vs 27% / 33% at 32 B.
    assert!(
        wg_64b > wg_base + 0.01,
        "WG should gain from 64B blocks: {wg_64b} vs {wg_base}"
    );
    assert!(
        wgrb_64b > wgrb_base + 0.02,
        "WG+RB should gain more: {wgrb_64b} vs {wgrb_base}"
    );
    assert!((wg_64b - 0.29).abs() < 0.04, "WG at 64B blocks: {wg_64b}");
    assert!(
        (wgrb_64b - 0.37).abs() < 0.04,
        "WG+RB at 64B blocks: {wgrb_64b}"
    );
}

#[test]
fn figure11_cache_size_is_second_order() {
    let [(wg_32k, wgrb_32k), (wg_128k, wgrb_128k)] = averages("small", "large");
    // Paper §5.3: 26.9%/26.6% (WG) and 32.6%/32.1% (WG+RB) — within a
    // point of each other across a 4x capacity change.
    assert!(
        (wg_32k - wg_128k).abs() < 0.02,
        "WG across sizes: {wg_32k} vs {wg_128k}"
    );
    assert!(
        (wgrb_32k - wgrb_128k).abs() < 0.02,
        "WG+RB across sizes: {wgrb_32k} vs {wgrb_128k}"
    );
    // The paper's slight ordering: smaller cache is marginally better.
    assert!(wg_32k >= wg_128k - 0.005);
    assert!(wgrb_32k >= wgrb_128k - 0.005);
    // Levels in the paper's neighbourhood.
    assert!((wg_32k - 0.269).abs() < 0.04, "WG at 32KB: {wg_32k}");
    assert!((wgrb_32k - 0.326).abs() < 0.04, "WG+RB at 32KB: {wgrb_32k}");
}
