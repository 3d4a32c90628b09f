//! Regenerates the paper's **§5.4 area-overhead analysis**: the storage
//! cost of the Set-Buffer and Tag-Buffer relative to the cache.
//!
//! Paper reference values, for the baseline 64 KB / 4-way / 32 B cache and
//! 48-bit physical addresses:
//! - the Set-Buffer holds one cache set (128 B) → less than 0.2 % of the
//!   cache capacity;
//! - the Tag-Buffer needs fewer than 150 bits (4 tags + set index).

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::table::Table;
use cache8t_energy::{ArrayModel, CellKind, TechnologyNode};
use cache8t_sim::CacheGeometry;

/// Physical address width assumed by the paper's §5.4.
const PHYSICAL_ADDRESS_BITS: u32 = 48;

fn main() {
    let args = CommonArgs::from_env("--json");
    println!("Section 5.4: Set-Buffer / Tag-Buffer area overhead");
    println!("paper: Set-Buffer < 0.2% of cache capacity; Tag-Buffer < 150 bits\n");

    let mut table = Table::new(&[
        "cache",
        "set size",
        "set-buffer overhead",
        "tag-buffer bits",
        "latch-area estimate (32nm 8T)",
    ]);

    let node = TechnologyNode::nm32();
    let mut rows = Vec::new();
    for geometry in [
        CacheGeometry::paper_small(),
        CacheGeometry::paper_baseline(),
        CacheGeometry::paper_large(),
        CacheGeometry::paper_large_blocks(),
    ] {
        let model = ArrayModel::for_cache(geometry, node, CellKind::EightT);
        let set_bytes = geometry.set_bytes();
        let capacity_overhead = model.buffer_capacity_overhead(set_bytes);
        let tag_buffer_bits = geometry.ways() * u64::from(geometry.tag_bits(PHYSICAL_ADDRESS_BITS))
            + u64::from(geometry.index_bits());
        let area_overhead = model.buffer_area_overhead(set_bytes);
        table.row(&[
            format!(
                "{}KB/{}-way/{}B",
                geometry.capacity_bytes() / 1024,
                geometry.ways(),
                geometry.block_bytes()
            ),
            format!("{set_bytes}B"),
            format!("{:.3}%", capacity_overhead * 100.0),
            tag_buffer_bits.to_string(),
            format!("{:.3}%", area_overhead * 100.0),
        ]);
        rows.push((geometry, capacity_overhead, tag_buffer_bits));
    }
    table.print();

    let baseline = CacheGeometry::paper_baseline();
    let baseline_tag_bits = baseline.ways() * u64::from(baseline.tag_bits(PHYSICAL_ADDRESS_BITS))
        + u64::from(baseline.index_bits());
    println!(
        "\nbaseline check: Set-Buffer {}B = {:.3}% of {}KB (< 0.2%), Tag-Buffer {} bits (< 150)",
        baseline.set_bytes(),
        100.0 * baseline.set_bytes() as f64 / baseline.capacity_bytes() as f64,
        baseline.capacity_bytes() / 1024,
        baseline_tag_bits,
    );

    if args.json {
        let json: Vec<_> = rows
            .iter()
            .map(|(g, o, t)| {
                serde_json::json!({
                    "capacity_bytes": g.capacity_bytes(),
                    "set_bytes": g.set_bytes(),
                    "set_buffer_overhead": o,
                    "tag_buffer_bits": t,
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&json).expect("rows serialize")
        );
    }
}
