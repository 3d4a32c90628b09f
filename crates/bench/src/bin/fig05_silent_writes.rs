//! Regenerates the paper's **Figure 5**: the fraction of write operations
//! that are silent (store the value already present, per Lepak & Lipasti).
//!
//! Paper reference values: more than 42 % of writes are silent on average;
//! bwaves reaches 77 %.

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::table::{pct, Table};
use cache8t_sim::CacheGeometry;
use cache8t_trace::analyze::StreamStats;
use cache8t_trace::{profiles, ProfiledGenerator, TraceGenerator};

fn main() {
    let args = CommonArgs::from_env("--ops --seed --json");
    let geometry = CacheGeometry::paper_baseline();

    println!("Figure 5: silent write frequency");
    println!("paper: average > 42%; bwaves 77%\n");

    let mut table = Table::new(&["benchmark", "silent writes"]);
    let mut fractions = Vec::new();
    for profile in profiles::spec2006() {
        let trace = ProfiledGenerator::new(profile.clone(), geometry, args.seed).collect(args.ops);
        let stats = StreamStats::measure(&trace, geometry);
        table.row(&[profile.name.clone(), pct(stats.silent_write_fraction)]);
        fractions.push((profile.name.clone(), stats.silent_write_fraction));
    }
    let avg = fractions.iter().map(|(_, f)| f).sum::<f64>() / fractions.len() as f64;
    table.summary(&["average".to_string(), pct(avg)]);
    table.print();

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&fractions).expect("fractions serialize")
        );
    }
}
