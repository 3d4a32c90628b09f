//! **Extension E5** — the soft-error story behind bit interleaving (paper
//! §2): Monte-Carlo burst strikes against interleaved and non-interleaved
//! 8T arrays with SEC-DED protection.
//!
//! The paper takes as given that "bit interleaving is used to reduce the
//! probability of upsetting two bits in one word making using simple and
//! low cost one bit correction techniques possible" — and accepts the
//! column-selection problem as the price. This harness demonstrates the
//! trade quantitatively: without interleaving, any burst of two or more
//! adjacent upsets defeats SEC-DED; with degree-16 interleaving (one cache
//! set per row), bursts up to 16 columns wide are always corrected.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cache8t_bench::cli::CommonArgs;
use cache8t_bench::table::{pct, Table};
use cache8t_sram::{ArrayConfig, EccArray};

/// Words per row in the interleaved layout (one baseline cache set).
const INTERLEAVED_WORDS: usize = 16;

/// One Monte-Carlo trial: write known data, strike a burst at a random
/// column, try to read everything back through SEC-DED.
fn trial(rng: &mut SmallRng, words_per_row: usize, burst: usize) -> bool {
    let config = ArrayConfig::new(1, words_per_row, 64).expect("valid config");
    let mut array = EccArray::new(config).expect("64-bit words");
    for w in 0..words_per_row {
        array
            .rmw_write_word(0, w, 0xABCD_0000 + w as u64)
            .expect("in range");
    }
    let columns = words_per_row * 64;
    let start = rng.gen_range(0..columns.saturating_sub(burst).max(1));
    array.strike_burst(0, start, burst).expect("in range");
    (0..words_per_row).all(|w| {
        let (value, status) = array.read_word_corrected(0, w).expect("in range");
        status.is_usable() && value == Some(0xABCD_0000 + w as u64)
    })
}

fn main() {
    let args = CommonArgs::from_env("--ops --seed --json");
    let trials = (args.ops / 1000).clamp(200, 5_000);
    let mut rng = SmallRng::seed_from_u64(args.seed);

    println!("Extension E5: burst soft errors vs SEC-DED, with and without interleaving");
    println!(
        "({trials} Monte-Carlo strikes per cell; rows of {INTERLEAVED_WORDS} x 64-bit words)\n"
    );

    let mut table = Table::new(&[
        "burst width (adjacent columns)",
        "non-interleaved recovery",
        "interleaved recovery",
    ]);
    let mut json_rows = Vec::new();
    for burst in [1usize, 2, 3, 4, 8, 16, 17, 24] {
        let flat_ok = (0..trials).filter(|_| trial(&mut rng, 1, burst)).count();
        let inter_ok = (0..trials)
            .filter(|_| trial(&mut rng, INTERLEAVED_WORDS, burst))
            .count();
        let flat = flat_ok as f64 / trials as f64;
        let inter = inter_ok as f64 / trials as f64;
        table.row(&[burst.to_string(), pct(flat), pct(inter)]);
        json_rows.push(serde_json::json!({
            "burst": burst, "flat_recovery": flat, "interleaved_recovery": inter,
        }));
    }
    table.print();

    println!("\nreading: one column per word is the guarantee — with degree-{INTERLEAVED_WORDS}");
    println!(
        "interleaving every burst up to {INTERLEAVED_WORDS} wide is fully correctable, while the"
    );
    println!("non-interleaved layout already fails at width 2. This is why the paper's");
    println!("caches interleave, why interleaving forces RMW writes, and therefore why");
    println!("WG/WG+RB have an RMW problem worth solving.");

    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&json_rows).expect("rows serialize")
        );
    }
}
