//! Regenerates the paper's **Figure 10**: cache-access-frequency reduction
//! for a 32 KB cache with 64 B blocks.
//!
//! Paper reference values: WG 29 % and WG+RB 37 % on average — both higher
//! than the baseline configuration because larger blocks raise the
//! Set-Buffer hit rate (more of a workload's footprint maps to the
//! buffered set).

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::experiment::{average, BenchmarkResult};
use cache8t_bench::table::{pct, Table};

fn main() {
    let args = CommonArgs::from_env("--ops --seed --jobs --json");
    let results = args.run_suites(&["blocks64"]).remove(0);

    println!("Figure 10: access reduction with block size = 64B (32KB, 4-way)");
    println!("paper: WG 29% avg, WG+RB 37% avg (up from 27%/33% at 32B blocks)\n");

    let mut table = Table::new(&["benchmark", "WG", "WG+RB"]);
    for r in &results {
        table.row(&[
            r.name.clone(),
            pct(r.wg_reduction()),
            pct(r.wgrb_reduction()),
        ]);
    }
    table.summary(&[
        "average".to_string(),
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
}
