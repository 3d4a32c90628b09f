//! **Extension E2** — quantifies the paper's power story:
//!
//! 1. §5.5: WG and WG+RB reduce dynamic access energy by replacing
//!    full-array accesses with Set-Buffer accesses (priced with the
//!    CACTI-style array model);
//! 2. §1: an 8T cache unblocks DVFS — the 6T Vmin wall forfeits most of
//!    the `V²` energy headroom that 8T cells reach.
//!
//! The paper reports no numbers for either ("part of our ongoing
//! research"); the values below are this reproduction's estimates.

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::table::{pct, Table};
use cache8t_energy::dvfs::DvfsLadder;
use cache8t_energy::power::SchemeEnergy;
use cache8t_energy::{ArrayModel, CellKind, TechnologyNode};
use cache8t_sim::CacheGeometry;

fn main() {
    let args = CommonArgs::from_env("--ops --seed --json");
    let geometry = CacheGeometry::paper_baseline();
    let node = TechnologyNode::nm32();
    let model = ArrayModel::for_cache(geometry, node, CellKind::EightT);
    let v = node.vdd_nominal();

    println!("Extension E2: dynamic access energy per scheme (32nm, nominal V)");
    println!("(pricing each scheme's array traffic with the CACTI-style model)\n");

    let results = args.run_suites(&["baseline"]).remove(0);
    let mut table = Table::new(&["benchmark", "RMW", "WG saving", "WG+RB saving"]);
    let mut wg_savings = Vec::new();
    let mut wgrb_savings = Vec::new();
    for r in &results {
        let rmw = SchemeEnergy::price(&r.rmw.traffic, &model, v);
        let wg = SchemeEnergy::price(&r.wg.traffic, &model, v);
        let wgrb = SchemeEnergy::price(&r.wgrb.traffic, &model, v);
        wg_savings.push(wg.saving_vs(&rmw));
        wgrb_savings.push(wgrb.saving_vs(&rmw));
        table.row(&[
            r.name.clone(),
            format!("{:.1} nJ", rmw.total().value() / 1000.0),
            pct(wg.saving_vs(&rmw)),
            pct(wgrb.saving_vs(&rmw)),
        ]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    table.summary(&[
        "average".to_string(),
        String::new(),
        pct(avg(&wg_savings)),
        pct(avg(&wgrb_savings)),
    ]);
    table.print();

    println!("\nDVFS headroom (paper S1: the cache bounds Vmin):");
    let mut dvfs_table = Table::new(&[
        "node",
        "6T Vmin",
        "8T Vmin",
        "energy/op floor (6T cache)",
        "energy/op floor (8T cache)",
    ]);
    for node in TechnologyNode::all() {
        let l6 = DvfsLadder::for_cache(node, CellKind::SixT, 8);
        let l8 = DvfsLadder::for_cache(node, CellKind::EightT, 8);
        dvfs_table.row(&[
            node.name().to_string(),
            format!("{:.2} V", node.vmin(CellKind::SixT).value()),
            format!("{:.2} V", node.vmin(CellKind::EightT).value()),
            pct(l6.lowest().relative_energy_per_op),
            pct(l8.lowest().relative_energy_per_op),
        ]);
    }
    dvfs_table.print();
    println!("\n(energy floors relative to nominal-voltage operation; lower is better)");

    if args.json {
        let json = serde_json::json!({
            "wg_saving_avg": avg(&wg_savings),
            "wgrb_saving_avg": avg(&wgrb_savings),
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&json).expect("json serialize")
        );
    }
}
