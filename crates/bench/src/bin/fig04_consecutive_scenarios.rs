//! Regenerates the paper's **Figure 4**: the breakdown of consecutive
//! accesses to the same cache set into the four scenarios RR, RW, WR, WW,
//! as fractions of all adjacent request pairs.
//!
//! Paper reference values: 27 % of accesses target the same set as their
//! predecessor on average, with RR and WW accounting for the largest
//! shares; bwaves has the largest WW share (24 %).

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::table::{pct, Table};
use cache8t_sim::CacheGeometry;
use cache8t_trace::analyze::StreamStats;
use cache8t_trace::{profiles, ProfiledGenerator, TraceGenerator};

fn main() {
    let args = CommonArgs::from_env("--ops --seed --json");
    let geometry = CacheGeometry::paper_baseline();

    println!("Figure 4: breakdown of consecutive same-set access scenarios");
    println!("paper: 27% same-set on average; RR and WW dominate; bwaves WW = 24%\n");

    let mut table = Table::new(&["benchmark", "RR", "RW", "WR", "WW", "total"]);
    let mut stats_all = Vec::new();
    for profile in profiles::spec2006() {
        let trace = ProfiledGenerator::new(profile.clone(), geometry, args.seed).collect(args.ops);
        let stats = StreamStats::measure(&trace, geometry);
        let c = stats.consecutive;
        table.row(&[
            profile.name.clone(),
            pct(c.rr),
            pct(c.rw),
            pct(c.wr),
            pct(c.ww),
            pct(c.total()),
        ]);
        stats_all.push(stats);
    }
    let n = stats_all.len() as f64;
    let avg = |f: &dyn Fn(&StreamStats) -> f64| stats_all.iter().map(f).sum::<f64>() / n;
    table.summary(&[
        "average".to_string(),
        pct(avg(&|s| s.consecutive.rr)),
        pct(avg(&|s| s.consecutive.rw)),
        pct(avg(&|s| s.consecutive.wr)),
        pct(avg(&|s| s.consecutive.ww)),
        pct(avg(&|s| s.consecutive.total())),
    ]);
    table.print();

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&stats_all).expect("stats serialize")
        );
    }
}
