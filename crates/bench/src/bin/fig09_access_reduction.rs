//! Regenerates the paper's **Figure 9**: cache-access-frequency reduction
//! of WG and WG+RB relative to the RMW baseline, on the baseline cache
//! (64 KB, 4-way, 32 B blocks, LRU), one bar pair per SPEC CPU2006
//! benchmark plus the average.
//!
//! Paper reference values: WG 27 % average (47 % max, bwaves); WG+RB 33 %
//! average, and WG+RB outperforms WG on every benchmark.

use cache8t_bench::cli::{CommonArgs, ALL_FLAGS};
use cache8t_bench::experiment::{average, write_observability, BenchmarkResult};
use cache8t_bench::table::{pct, Table};

fn main() {
    let args = CommonArgs::from_env(ALL_FLAGS);
    let results = args.run_suites(&["baseline"]).remove(0);

    println!("Figure 9: cache access frequency reduction vs RMW (64KB, 4-way, 32B, LRU)");
    println!("paper: WG avg 27% (max 47% on bwaves), WG+RB avg 33%, WG+RB > WG everywhere\n");

    let mut table = Table::new(&["benchmark", "RMW accesses", "WG", "WG+RB"]);
    for r in &results {
        table.row(&[
            r.name.clone(),
            r.rmw.array_accesses.to_string(),
            pct(r.wg_reduction()),
            pct(r.wgrb_reduction()),
        ]);
    }
    table.summary(&[
        "average".to_string(),
        String::new(),
        pct(average(&results, BenchmarkResult::wg_reduction)),
        pct(average(&results, BenchmarkResult::wgrb_reduction)),
    ]);
    table.print();

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&results).expect("results serialize")
        );
    }
    if let Err(e) = write_observability(&args, &results) {
        eprintln!("failed to write observability output: {e}");
        std::process::exit(1);
    }
}
