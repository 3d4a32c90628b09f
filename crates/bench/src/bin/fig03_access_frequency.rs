//! Regenerates the paper's **Figure 3**: read and write accesses to the L1
//! data cache as a fraction of executed instructions, per benchmark.
//!
//! Paper reference values: 26 % reads + 14 % writes on average; writes
//! exceed 22 % for the most write-intensive benchmark (bwaves).

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::table::{pct, Table};
use cache8t_sim::CacheGeometry;
use cache8t_trace::analyze::StreamStats;
use cache8t_trace::{profiles, ProfiledGenerator, TraceGenerator};

fn main() {
    let args = CommonArgs::from_env("--ops --seed --json");
    let geometry = CacheGeometry::paper_baseline();

    println!("Figure 3: read/write access frequency (fraction of instructions)");
    println!("paper: average 26% reads + 14% writes; bwaves writes > 22%\n");

    let mut table = Table::new(&["benchmark", "reads/instr", "writes/instr", "mem/instr"]);
    let mut stats_all = Vec::new();
    for profile in profiles::spec2006() {
        let trace = ProfiledGenerator::new(profile.clone(), geometry, args.seed).collect(args.ops);
        let stats = StreamStats::measure(&trace, geometry);
        table.row(&[
            profile.name.clone(),
            pct(stats.read_per_instr),
            pct(stats.write_per_instr),
            pct(stats.read_per_instr + stats.write_per_instr),
        ]);
        stats_all.push(stats);
    }
    let n = stats_all.len() as f64;
    let avg_r = stats_all.iter().map(|s| s.read_per_instr).sum::<f64>() / n;
    let avg_w = stats_all.iter().map(|s| s.write_per_instr).sum::<f64>() / n;
    table.summary(&[
        "average".to_string(),
        pct(avg_r),
        pct(avg_w),
        pct(avg_r + avg_w),
    ]);
    table.print();

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&stats_all).expect("stats serialize")
        );
    }
}
