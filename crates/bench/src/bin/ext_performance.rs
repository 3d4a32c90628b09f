//! **Extension E1** — quantifies the paper's §5.5 performance arguments
//! with the port-contention timing model:
//!
//! - RMW occupies the read port for every store, stalling loads;
//! - WG raises read-port availability (§4.1) and "its performance cost is
//!   negligible" because stores are off the critical path;
//! - WG+RB lowers average load latency by serving Tag-Buffer hits from the
//!   Set-Buffer.
//!
//! The paper does not report numbers for these effects ("part of our
//! ongoing research"); the values below are this reproduction's estimates.

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::table::{pct, Table};
use cache8t_core::{
    Controller, ConventionalController, RmwController, WgController, WgRbController,
};
use cache8t_cpu::{PortTimingModel, TimingConfig, TimingReport};
use cache8t_sim::{CacheGeometry, ReplacementKind};
use cache8t_trace::{profiles, ProfiledGenerator, TraceGenerator};

fn main() {
    let args = CommonArgs::from_env("--ops --seed --json");
    let geometry = CacheGeometry::paper_baseline();
    let model = PortTimingModel::new(TimingConfig::default());

    println!("Extension E1: timing estimates for the paper's S5.5 arguments");
    println!("(in-order issue, 2-cycle array ops, 1-cycle Set-Buffer; averages over the suite)\n");

    let mut totals: Vec<(&str, Vec<TimingReport>)> = vec![
        ("6T", Vec::new()),
        ("RMW", Vec::new()),
        ("WG", Vec::new()),
        ("WG+RB", Vec::new()),
    ];
    for profile in profiles::spec2006() {
        let trace = ProfiledGenerator::new(profile.clone(), geometry, args.seed).collect(args.ops);
        let mut controllers: Vec<Box<dyn Controller>> = vec![
            Box::new(ConventionalController::new(geometry, ReplacementKind::Lru)),
            Box::new(RmwController::new(geometry, ReplacementKind::Lru)),
            Box::new(WgController::new(geometry, ReplacementKind::Lru)),
            Box::new(WgRbController::new(geometry, ReplacementKind::Lru)),
        ];
        for (slot, controller) in totals.iter_mut().zip(controllers.iter_mut()) {
            slot.1.push(model.run(controller.as_mut(), &trace));
        }
    }

    let mut table = Table::new(&[
        "scheme",
        "avg read latency",
        "read-port stalls/req",
        "read-port availability",
        "buffer-served",
    ]);
    let mut json_rows = Vec::new();
    for (name, reports) in &totals {
        let lat = reports
            .iter()
            .map(TimingReport::avg_read_latency)
            .sum::<f64>()
            / reports.len() as f64;
        let avail = reports
            .iter()
            .map(TimingReport::read_port_availability)
            .sum::<f64>()
            / reports.len() as f64;
        let stalls: u64 = reports.iter().map(|r| r.read_port_stalls).sum();
        let served: u64 = reports.iter().map(|r| r.buffer_served).sum();
        let requests: u64 = reports.iter().map(|r| r.requests).sum();
        table.row(&[
            name.to_string(),
            format!("{lat:.2} cyc"),
            format!("{:.3}", stalls as f64 / requests as f64),
            pct(avail),
            pct(served as f64 / requests as f64),
        ]);
        json_rows.push(serde_json::json!({
            "scheme": name,
            "avg_read_latency": lat,
            "read_port_stalls_per_request": stalls as f64 / requests as f64,
            "read_port_availability": avail,
        }));
    }
    table.print();
    println!("\npaper S5.5 checkpoints: WG's cost is negligible and it cuts load");
    println!("latency vs RMW; WG+RB improves further (loads served from the buffer);");
    println!("S4.1: WG and WG+RB raise read-port availability over RMW.");

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&json_rows).expect("rows serialize")
        );
    }
}
