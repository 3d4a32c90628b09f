//! Regenerates the paper's **motivation numbers** (§1, §3): the increase in
//! cache access frequency caused by adopting RMW, relative to a
//! conventional (6T-style, one-access-per-write) cache.
//!
//! Paper reference values: "RMW increases cache access frequency by more
//! than 32 % on average (max 47 %)".

use cache8t_bench::cli::{CommonArgs, ALL_FLAGS};
use cache8t_bench::experiment::{average, write_observability, BenchmarkResult};
use cache8t_bench::table::{pct, Table};

fn main() {
    let args = CommonArgs::from_env(ALL_FLAGS);
    let results = args.run_suites(&["baseline"]).remove(0);

    println!("Motivation: RMW traffic increase over a conventional cache");
    println!("paper: more than 32% on average, max 47%\n");

    let mut table = Table::new(&["benchmark", "6T accesses", "RMW accesses", "increase"]);
    for r in &results {
        table.row(&[
            r.name.clone(),
            r.conventional.array_accesses.to_string(),
            r.rmw.array_accesses.to_string(),
            pct(r.rmw_increase()),
        ]);
    }
    let max = results
        .iter()
        .map(BenchmarkResult::rmw_increase)
        .fold(0.0f64, f64::max);
    table.summary(&[
        format!("average (max {})", pct(max)),
        String::new(),
        String::new(),
        pct(average(&results, BenchmarkResult::rmw_increase)),
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
