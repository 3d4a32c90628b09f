//! **Extension E4** — the paper's §2 related work, quantified against WG
//! and WG+RB on equal terms:
//!
//! - **coalescing write buffer** (classic block-granularity store
//!   coalescing, the pre-existing alternative to the Set-Buffer), at
//!   several capacities;
//! - **Park et al. local RMW** (hierarchical read bit lines: the RMW only
//!   occupies its own sub-array) — same traffic as RMW, but the timing
//!   model with banked ports shows the latency benefit;
//! - **Chang et al. word-granularity writes** (non-interleaved arrays):
//!   functionally the conventional one-access-per-write scheme, but its
//!   price is paid in soft-error protection (see `ext_soft_errors`) and
//!   write word-line driver area, not in traffic.
//!
//! Traffic is the suite average reduction vs RMW; latency comes from the
//! port timing model.

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::experiment::replay_traffic;
use cache8t_bench::table::{pct, Table};
use cache8t_core::{
    CoalescingController, Controller, ConventionalController, RmwController, WgController,
    WgRbController,
};
use cache8t_cpu::{PortTimingModel, TimingConfig};
use cache8t_sim::{CacheGeometry, ReplacementKind};
use cache8t_trace::{profiles, ProfiledGenerator, TraceGenerator};

fn main() {
    let args = CommonArgs::from_env("--ops --seed --json");
    let ops = (args.ops / 4).max(10_000);
    let geometry = CacheGeometry::paper_baseline();
    let suite = profiles::spec2006();

    println!("Extension E4: alternatives from the paper's related work (suite averages)\n");

    // (label, controller factory, banks for the timing model)
    type Factory = Box<dyn Fn() -> Box<dyn Controller>>;
    let configs: Vec<(&str, Factory, usize)> = vec![
        (
            "RMW (baseline)",
            Box::new(move || Box::new(RmwController::new(geometry, ReplacementKind::Lru))),
            1,
        ),
        (
            "RMW + local sub-arrays (Park et al., 8 banks)",
            Box::new(move || Box::new(RmwController::new(geometry, ReplacementKind::Lru))),
            8,
        ),
        (
            "word-granularity writes (Chang et al.)",
            Box::new(move || Box::new(ConventionalController::new(geometry, ReplacementKind::Lru))),
            1,
        ),
        (
            "coalescing write buffer, 1 entry",
            Box::new(move || {
                Box::new(CoalescingController::new(geometry, ReplacementKind::Lru, 1))
            }),
            1,
        ),
        (
            "coalescing write buffer, 4 entries",
            Box::new(move || {
                Box::new(CoalescingController::new(geometry, ReplacementKind::Lru, 4))
            }),
            1,
        ),
        (
            "coalescing write buffer, 8 entries",
            Box::new(move || {
                Box::new(CoalescingController::new(geometry, ReplacementKind::Lru, 8))
            }),
            1,
        ),
        (
            "WG (paper)",
            Box::new(move || Box::new(WgController::new(geometry, ReplacementKind::Lru))),
            1,
        ),
        (
            "WG+RB (paper)",
            Box::new(move || Box::new(WgRbController::new(geometry, ReplacementKind::Lru))),
            1,
        ),
    ];

    let mut table = Table::new(&[
        "scheme",
        "traffic vs RMW",
        "avg read latency",
        "read-port avail.",
    ]);
    // One trace and one RMW reference per profile, shared by every
    // configuration; each configuration's sums accumulate in profile
    // order.
    let models: Vec<PortTimingModel> = configs
        .iter()
        .map(|&(_, _, banks)| PortTimingModel::new(TimingConfig::banked(banks)))
        .collect();
    // (traffic reduction, read latency, read-port availability) sums.
    let mut sums = vec![(0.0, 0.0, 0.0); configs.len()];
    for profile in &suite {
        let trace = ProfiledGenerator::new(profile.clone(), geometry, args.seed).collect(ops);
        let rmw = replay_traffic(
            &mut RmwController::new(geometry, ReplacementKind::Lru),
            &trace,
        );
        for (((_, build, _), model), sum) in configs.iter().zip(&models).zip(&mut sums) {
            let mut controller = build();
            let report = model.run(controller.as_mut(), &trace);
            controller.flush();
            sum.0 += controller.traffic().reduction_vs(&rmw);
            sum.1 += report.avg_read_latency();
            sum.2 += report.read_port_availability();
        }
    }

    let mut json_rows = Vec::new();
    for ((label, ..), (reduction_sum, latency_sum, avail_sum)) in configs.iter().zip(sums) {
        let n = suite.len() as f64;
        table.row(&[
            label.to_string(),
            pct(reduction_sum / n),
            format!("{:.2} cyc", latency_sum / n),
            pct(avail_sum / n),
        ]);
        json_rows.push(serde_json::json!({
            "scheme": label,
            "traffic_reduction": reduction_sum / n,
            "avg_read_latency": latency_sum / n,
            "read_port_availability": avail_sum / n,
        }));
    }
    table.print();

    println!("\nreading: sub-arraying (Park) fixes RMW's port problem but none of its");
    println!("traffic; block-granularity coalescing with one entry roughly ties plain WG,");
    println!("but even 8 block entries trail WG+RB — the Set-Buffer covers a whole array");
    println!("row (all four blocks of a set) and bypasses reads, at one entry's cost;");
    println!("word-granularity writes (Chang) beat RMW on traffic by construction but");
    println!("give up the interleaved soft-error protection (see ext_soft_errors) and");
    println!("need larger write word-line drivers (paper S2).");

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&json_rows).expect("rows serialize")
        );
    }
}
