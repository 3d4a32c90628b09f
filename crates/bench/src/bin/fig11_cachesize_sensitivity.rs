//! Regenerates the paper's **Figure 11**: cache-access-frequency reduction
//! for 32 KB and 128 KB caches (32 B blocks, 4-way).
//!
//! Paper reference values: WG 26.9 % (32 KB) and 26.6 % (128 KB); WG+RB
//! 32.6 % and 32.1 % — i.e. the techniques are essentially insensitive to
//! cache size, because grouping depends on *consecutive-access* locality,
//! not on capacity.

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::experiment::{average, BenchmarkResult};
use cache8t_bench::table::{pct, Table};

fn main() {
    let args = CommonArgs::from_env("--ops --seed --jobs --json");
    let mut suites = args.run_suites(&["small", "large"]);
    let large = suites.pop().expect("two geometries");
    let small = suites.pop().expect("one geometry");

    println!("Figure 11: access reduction for 32KB and 128KB caches (4-way, 32B)");
    println!("paper: WG 26.9%/26.6%, WG+RB 32.6%/32.1% -> insensitive to cache size\n");

    let mut table = Table::new(&[
        "benchmark",
        "WG (32KB)",
        "WG+RB (32KB)",
        "WG (128KB)",
        "WG+RB (128KB)",
    ]);
    for (s, l) in small.iter().zip(&large) {
        table.row(&[
            s.name.clone(),
            pct(s.wg_reduction()),
            pct(s.wgrb_reduction()),
            pct(l.wg_reduction()),
            pct(l.wgrb_reduction()),
        ]);
    }
    table.summary(&[
        "average".to_string(),
        pct(average(&small, BenchmarkResult::wg_reduction)),
        pct(average(&small, BenchmarkResult::wgrb_reduction)),
        pct(average(&large, BenchmarkResult::wg_reduction)),
        pct(average(&large, BenchmarkResult::wgrb_reduction)),
    ]);
    table.print();

    if args.json {
        let both: Vec<_> = small.iter().zip(&large).collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&both).expect("results serialize")
        );
    }
}
