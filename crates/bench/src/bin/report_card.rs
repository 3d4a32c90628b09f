//! The reproduction report card: runs the core experiments and scores
//! every text-anchored claim of the paper against this build, in one
//! table.
//!
//! This is the machine-checkable form of `EXPERIMENTS.md` — the same
//! checks as `tests/calibration.rs`, but over a configurable run length
//! and printed as a PASS/FAIL report. Exit status is nonzero if any check
//! fails, so it can gate CI or a release.

use std::process::ExitCode;

use cache8t_bench::cli::{CommonArgs, ALL_FLAGS};
use cache8t_bench::experiment::{average, write_observability, BenchmarkResult};
use cache8t_bench::table::Table;
use cache8t_exec::{run_sweep, GeometryPoint, SweepPlan};
use cache8t_obs::MetricRegistry;

/// One scored claim.
struct Check {
    claim: &'static str,
    paper: String,
    measured: String,
    pass: bool,
}

impl Check {
    fn value(claim: &'static str, paper: f64, measured: f64, tolerance: f64) -> Self {
        Check {
            claim,
            paper: format!("{:.1}%", paper * 100.0),
            measured: format!("{:.1}%", measured * 100.0),
            pass: (measured - paper).abs() <= tolerance,
        }
    }

    fn bound(claim: &'static str, paper: String, measured: String, pass: bool) -> Self {
        Check {
            claim,
            paper,
            measured,
            pass,
        }
    }
}

fn main() -> ExitCode {
    let args = CommonArgs::from_env(ALL_FLAGS);
    println!(
        "cache8t report card — {} ops/benchmark, seed {}\n",
        args.ops, args.seed
    );

    // One declarative plan over all four paper geometries, executed on
    // the sweep engine: every geometry replays the same 25 shared traces
    // (generated once through the trace store), and the merged results
    // are identical to four one-geometry sweeps.
    let plan = SweepPlan::suite(
        ["baseline", "blocks64", "small", "large"]
            .iter()
            .map(|label| GeometryPoint::named(label).expect("paper geometry"))
            .collect(),
        args.ops,
        args.seed,
    );
    let outcome = run_sweep(&plan, &args.sweep_options());
    let sweep_metrics = outcome.metrics.clone();
    let worker_spans = outcome.spans.clone();
    let mut suites = match outcome.into_complete() {
        Ok(suites) => suites,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let large = suites.pop().expect("four geometries");
    let small = suites.pop().expect("three geometries");
    let blocks64 = suites.pop().expect("two geometries");
    let baseline = suites.pop().expect("one geometry");

    let n = baseline.len() as f64;
    let stream_avg =
        |f: &dyn Fn(&BenchmarkResult) -> f64| -> f64 { baseline.iter().map(f).sum::<f64>() / n };
    let bwaves = baseline
        .iter()
        .find(|r| r.name == "bwaves")
        .expect("bwaves in suite");

    let avg_wg = average(&baseline, BenchmarkResult::wg_reduction);
    let avg_wgrb = average(&baseline, BenchmarkResult::wgrb_reduction);
    let max_rmw = baseline
        .iter()
        .map(BenchmarkResult::rmw_increase)
        .fold(0.0f64, f64::max);
    let wgrb_wins = baseline
        .iter()
        .filter(|r| r.wgrb_reduction() > r.wg_reduction())
        .count();

    let checks = vec![
        // Figure 3.
        Check::value(
            "Fig 3: avg reads/instr",
            0.26,
            stream_avg(&|r| r.stream.read_per_instr),
            0.02,
        ),
        Check::value(
            "Fig 3: avg writes/instr",
            0.14,
            stream_avg(&|r| r.stream.write_per_instr),
            0.02,
        ),
        Check::bound(
            "Fig 3: bwaves writes/instr > 22%",
            "> 22%".into(),
            format!("{:.1}%", bwaves.stream.write_per_instr * 100.0),
            bwaves.stream.write_per_instr > 0.22,
        ),
        // Figure 4.
        Check::value(
            "Fig 4: avg same-set pairs",
            0.27,
            stream_avg(&|r| r.stream.consecutive.total()),
            0.03,
        ),
        Check::value(
            "Fig 4: bwaves WW share",
            0.24,
            bwaves.stream.consecutive.ww,
            0.02,
        ),
        // Figure 5.
        Check::bound(
            "Fig 5: avg silent writes > 42%",
            "> 42%".into(),
            format!(
                "{:.1}%",
                stream_avg(&|r| r.stream.silent_write_fraction) * 100.0
            ),
            stream_avg(&|r| r.stream.silent_write_fraction) > 0.42,
        ),
        Check::value(
            "Fig 5: bwaves silent writes",
            0.77,
            bwaves.stream.silent_write_fraction,
            0.03,
        ),
        // Motivation.
        Check::bound(
            "S1: RMW increase avg > 32%",
            "> 32%".into(),
            format!(
                "{:.1}%",
                average(&baseline, BenchmarkResult::rmw_increase) * 100.0
            ),
            average(&baseline, BenchmarkResult::rmw_increase) > 0.30,
        ),
        Check::value("S1: RMW increase max", 0.47, max_rmw, 0.04),
        // Figure 9.
        Check::value("Fig 9: WG avg reduction", 0.27, avg_wg, 0.03),
        Check::value("Fig 9: WG+RB avg reduction", 0.33, avg_wgrb, 0.03),
        Check::value(
            "Fig 9: bwaves WG reduction",
            0.47,
            bwaves.wg_reduction(),
            0.04,
        ),
        Check::bound(
            "Fig 9: WG+RB > WG everywhere",
            "25/25".into(),
            format!("{wgrb_wins}/25"),
            wgrb_wins == baseline.len(),
        ),
        // Figure 10.
        Check::value(
            "Fig 10: WG avg @ 64B blocks",
            0.29,
            average(&blocks64, BenchmarkResult::wg_reduction),
            0.04,
        ),
        Check::value(
            "Fig 10: WG+RB avg @ 64B blocks",
            0.37,
            average(&blocks64, BenchmarkResult::wgrb_reduction),
            0.04,
        ),
        // Figure 11.
        Check::value(
            "Fig 11: WG avg @ 32KB",
            0.269,
            average(&small, BenchmarkResult::wg_reduction),
            0.04,
        ),
        Check::value(
            "Fig 11: WG+RB avg @ 128KB",
            0.321,
            average(&large, BenchmarkResult::wgrb_reduction),
            0.04,
        ),
        Check::bound(
            "Fig 11: capacity is second-order",
            "< 2 pts apart".into(),
            format!(
                "{:.1} pts",
                (average(&small, BenchmarkResult::wg_reduction)
                    - average(&large, BenchmarkResult::wg_reduction))
                .abs()
                    * 100.0
            ),
            (average(&small, BenchmarkResult::wg_reduction)
                - average(&large, BenchmarkResult::wg_reduction))
            .abs()
                < 0.02,
        ),
        // §5.4 is geometry-only and cannot drift; checked in unit tests.
    ];

    let mut table = Table::new(&["claim", "paper", "measured", "verdict"]);
    let mut failures = 0;
    for c in &checks {
        table.row(&[
            c.claim.to_string(),
            c.paper.clone(),
            c.measured.clone(),
            if c.pass { "PASS".into() } else { "FAIL".into() },
        ]);
        if !c.pass {
            failures += 1;
        }
    }
    table.summary(&[
        format!("{} checks", checks.len()),
        String::new(),
        String::new(),
        if failures == 0 {
            "ALL PASS".into()
        } else {
            format!("{failures} FAIL")
        },
    ]);
    table.print();

    // Metric-registry snapshots, summed over the baseline suite: the
    // telemetry behind the verdicts above (group sizes, silent elisions,
    // RMW bursts).
    println!(
        "\nMetric registry (baseline geometry, summed over {} benchmarks):",
        baseline.len()
    );
    for scheme in ["RMW", "WG", "WG+RB"] {
        let mut merged = MetricRegistry::new();
        for r in &baseline {
            for s in r.schemes() {
                if s.scheme == scheme {
                    merged.merge(&s.metrics);
                }
            }
        }
        println!("\n[{scheme}]");
        print!("{}", merged.render_table());
    }

    // Scheduler/trace-store telemetry: varies with machine and thread
    // count, so it is printed here but never part of the result JSON.
    println!("\n[sweep engine]");
    print!("{}", sweep_metrics.render_table());
    if !worker_spans.is_empty() {
        println!("\n[worker spans] (merged across {} ops jobs)", args.ops);
        print!("{}", cache8t_obs::timeline::render_stats(&worker_spans));
    }

    if args.json {
        let json: Vec<_> = checks
            .iter()
            .map(|c| {
                serde_json::json!({
                    "claim": c.claim, "paper": c.paper,
                    "measured": c.measured, "pass": c.pass,
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&json).expect("checks serialize")
        );
    }

    if let Err(e) = write_observability(&args, &baseline) {
        eprintln!("failed to write observability output: {e}");
        return ExitCode::FAILURE;
    }

    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
