//! **Extension E3** — ablations of the design choices `DESIGN.md` calls
//! out, all measured as suite-average access reduction vs RMW on the
//! baseline cache:
//!
//! - **silent-write detection off**: how much of WG's benefit comes from
//!   the Dirty bit (paper §4.1 credits silent stores for a large share);
//! - **read bypassing alone** vs grouping alone (decomposing WG+RB);
//! - **Set-Buffer depth**: the paper uses one buffer; deeper buffers are
//!   listed as the natural extension;
//! - **replacement policy**: LRU (the paper's) vs FIFO/Random/Tree-PLRU.

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::experiment::replay_traffic;
use cache8t_bench::table::{pct, Table};
use cache8t_core::{RmwController, WgController, WgOptions};
use cache8t_sim::{CacheGeometry, ReplacementKind};
use cache8t_trace::{profiles, ProfiledGenerator, TraceGenerator};

/// Average reduction vs RMW of every configuration over the whole
/// suite, in `configs` order. Each profile's trace is generated once,
/// and its RMW reference replayed once per replacement policy, for all
/// configurations; each sum still accumulates in profile order.
fn suite_reductions(
    configs: &[(String, WgOptions, ReplacementKind)],
    ops: usize,
    seed: u64,
) -> Vec<f64> {
    let geometry = CacheGeometry::paper_baseline();
    let mut totals = vec![0.0; configs.len()];
    let suite = profiles::spec2006();
    for profile in &suite {
        let trace = ProfiledGenerator::new(profile.clone(), geometry, seed).collect(ops);
        let mut references = Vec::new();
        for (total, &(_, options, replacement)) in totals.iter_mut().zip(configs) {
            let rmw = match references.iter().find(|(kind, _)| *kind == replacement) {
                Some(&(_, rmw)) => rmw,
                None => {
                    let rmw =
                        replay_traffic(&mut RmwController::new(geometry, replacement), &trace);
                    references.push((replacement, rmw));
                    rmw
                }
            };
            let mut wg = WgController::with_options(geometry, replacement, options);
            *total += replay_traffic(&mut wg, &trace).reduction_vs(&rmw);
        }
    }
    totals
        .into_iter()
        .map(|total| total / suite.len() as f64)
        .collect()
}

fn main() {
    let args = CommonArgs::from_env("--ops --seed --json");
    // Ablations sweep many configurations; use a fraction of the ops per
    // point so the default run stays tractable.
    let ops = (args.ops / 4).max(10_000);

    println!("Extension E3: ablations (suite-average access reduction vs RMW, 64KB baseline)\n");

    let mut table = Table::new(&["configuration", "reduction vs RMW"]);
    let lru = ReplacementKind::Lru;
    let configs: Vec<(String, WgOptions, ReplacementKind)> = vec![
        ("WG (paper)".into(), WgOptions::wg(), lru),
        ("WG+RB (paper)".into(), WgOptions::wg_rb(), lru),
        (
            "WG without silent detection".into(),
            WgOptions {
                silent_detection: false,
                ..WgOptions::wg()
            },
            lru,
        ),
        (
            "WG+RB without silent detection".into(),
            WgOptions {
                silent_detection: false,
                ..WgOptions::wg_rb()
            },
            lru,
        ),
        (
            "WG, 2 Set-Buffers".into(),
            WgOptions {
                buffer_depth: 2,
                ..WgOptions::wg()
            },
            lru,
        ),
        (
            "WG+RB, 2 Set-Buffers".into(),
            WgOptions {
                buffer_depth: 2,
                ..WgOptions::wg_rb()
            },
            lru,
        ),
        (
            "WG+RB, 4 Set-Buffers".into(),
            WgOptions {
                buffer_depth: 4,
                ..WgOptions::wg_rb()
            },
            lru,
        ),
        (
            "WG+RB, 8 Set-Buffers".into(),
            WgOptions {
                buffer_depth: 8,
                ..WgOptions::wg_rb()
            },
            lru,
        ),
        (
            "WG+RB, FIFO replacement".into(),
            WgOptions::wg_rb(),
            ReplacementKind::Fifo,
        ),
        (
            "WG+RB, random replacement".into(),
            WgOptions::wg_rb(),
            ReplacementKind::Random { seed: args.seed },
        ),
        (
            "WG+RB, tree-PLRU replacement".into(),
            WgOptions::wg_rb(),
            ReplacementKind::TreePlru,
        ),
    ];

    let reductions = suite_reductions(&configs, ops, args.seed);
    let mut json_rows = Vec::new();
    for ((label, ..), reduction) in configs.into_iter().zip(reductions) {
        table.row(&[label.clone(), pct(reduction)]);
        json_rows.push(serde_json::json!({ "config": label, "reduction": reduction }));
    }
    table.print();
    println!("\nreading: silent detection accounts for a large share of WG's benefit;");
    println!("deeper buffers keep helping (diminishing); replacement policy is second-order.");

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&json_rows).expect("rows serialize")
        );
    }
}
