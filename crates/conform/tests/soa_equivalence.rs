//! Equivalence of the schemes at every replacement kind.
//!
//! The full conformance harness replays all five schemes at every
//! replacement kind and must report zero divergences — identical stats,
//! read values, and post-flush `peek_word` images. (The cache's flat
//! replacement state is checked against a per-set reference model in
//! `cache8t-sim`'s `tests/replacement_reference.rs`.)

use cache8t_conform::{replay, ConformConfig};
use cache8t_core::SchemeKind;
use cache8t_sim::{CacheGeometry, ReplacementKind};
use cache8t_trace::{profiles, ProfiledGenerator, TraceGenerator};

/// The replacement kinds every scheme must agree at.
fn all_kinds() -> [ReplacementKind; 4] {
    [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::Random { seed: 7 },
        ReplacementKind::TreePlru,
    ]
}

#[test]
fn all_schemes_agree_at_every_replacement_kind() {
    let profile = profiles::by_name("gcc").expect("gcc is in the suite");
    let geometry = CacheGeometry::new(2 * 1024, 2, 32).expect("small geometry");
    let trace = ProfiledGenerator::new(profile, geometry, 42).collect(8_000);
    for kind in all_kinds() {
        let mut config = ConformConfig::new(geometry);
        config.replacement = kind;
        config.schemes = SchemeKind::suite(4).to_vec();
        let report = replay(&trace, &config);
        assert!(
            report.pass(),
            "{kind}: conformance failed after the SoA rework:\n{}\n{}",
            report.summary(),
            report
                .divergences
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.ops_replayed, 8_000);
    }
}
