//! Golden op streams for the profiled generator.
//!
//! `ProfiledGenerator` is the stand-in for the paper's SPEC CPU2006 Pin
//! traces, so every figure in the repository depends on its exact op
//! stream. These tests pin that stream: an FNV-1a digest of every op
//! (kind, address, value) plus the instruction total, for profiles that
//! cover every `ZipfSampler` branch and the exponents of the built-in
//! suite (s = 1.2, 1.1, 1.0, 0.9, 0.8, 0.7 and 0) and both branches of
//! the silence chain, over two seeds and two block sizes.
//! Each stream is produced three ways — one `collect` and two
//! `ChunkedGenerator` chunk sizes — and all three must match the pinned
//! values. A change to the generator's internals that is meant to be a
//! pure speed-up must leave this table untouched.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use cache8t::sim::CacheGeometry;
use cache8t::trace::{
    profiles, ChunkedGenerator, MemOp, ProfiledGenerator, TraceGenerator, WorkloadProfile,
    ZipfSampler,
};

/// Ops generated per golden case.
const OPS: usize = 60_000;

/// Chunk sizes for the chunked re-generation: one power of two, one
/// that divides nothing in sight.
const CHUNK_SIZES: [usize; 2] = [4096, 7919];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one op into an FNV-1a digest: kind byte, then the address and
/// value as little-endian words.
fn fold(mut hash: u64, op: &MemOp) -> u64 {
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    };
    eat(&[u8::from(op.is_write())]);
    eat(&op.addr.raw().to_le_bytes());
    eat(&op.value.to_le_bytes());
    hash
}

/// A uniform-popularity profile (Zipf s = 0) with independent silent
/// writes (silence correlation 0), so the two degenerate branches run.
fn uniform_profile() -> WorkloadProfile {
    WorkloadProfile {
        name: "uniform".to_string(),
        mem_per_instr: 0.37,
        zipf_exponent: 0.0,
        silent_correlation: 0.0,
        working_set_blocks: 5_000,
        ..profiles::by_name("gcc").expect("gcc profile")
    }
}

fn profile(name: &str) -> WorkloadProfile {
    if name == "uniform" {
        uniform_profile()
    } else {
        profiles::by_name(name).expect("built-in profile")
    }
}

/// `(digest, instructions)` of `OPS` ops via one `collect`.
fn collected(profile: &WorkloadProfile, geometry: CacheGeometry, seed: u64) -> (u64, u64) {
    let trace = ProfiledGenerator::new(profile.clone(), geometry, seed).collect(OPS);
    let digest = trace.ops().iter().fold(FNV_OFFSET, fold);
    (digest, trace.instructions())
}

/// `(digest, instructions)` of `OPS` ops via `ChunkedGenerator`.
fn chunked(
    profile: &WorkloadProfile,
    geometry: CacheGeometry,
    seed: u64,
    chunk_ops: usize,
) -> (u64, u64) {
    let generator = ProfiledGenerator::new(profile.clone(), geometry, seed);
    let mut chunks = ChunkedGenerator::new(generator, chunk_ops, OPS as u64);
    let (mut digest, mut instructions, mut ops) = (FNV_OFFSET, 0, 0);
    while let Some(chunk) = chunks.next_chunk() {
        digest = chunk.ops().iter().fold(digest, fold);
        instructions += chunk.instructions();
        ops += chunk.len();
    }
    assert_eq!(ops, OPS, "chunks cover the stream");
    (digest, instructions)
}

/// `(profile, large blocks?, seed, digest, instructions)`, each computed
/// on the generator before a rewrite meant to keep it: the first ten
/// before the flat-state rewrite, the s = 0.9 (bwaves, lbm), 1.2
/// (gamess) and 0.7 (libquantum) rows before the table-driven Zipf
/// draws. Large blocks are the paper's 64 B geometry; the rest use the
/// 32 B baseline.
const GOLDEN: &[(&str, bool, u64, u64, u64)] = &[
    ("gcc", false, 42, 0x7c260c6e7cccf747, 150000),
    ("gcc", false, 7, 0x6021a892a2f78ca9, 150000),
    ("gcc", true, 42, 0xc81697c7e918b50f, 150000),
    ("gcc", true, 7, 0x21808b92ac3c4d9c, 150000),
    ("mcf", false, 42, 0x0434920b553c5ccb, 136363),
    ("mcf", false, 7, 0x05966bcfff51067f, 136363),
    ("bzip2", false, 42, 0x41f67d5decad9696, 157894),
    ("bzip2", false, 7, 0x0297625c4af11ab7, 157894),
    ("uniform", false, 42, 0xf83a921e55f6fcb5, 162162),
    ("uniform", false, 7, 0x27f0e4dabe6e91d9, 162162),
    ("bwaves", false, 42, 0x36a48a7dae58ab11, 125000),
    ("bwaves", false, 7, 0xe281b82c1c256485, 125000),
    ("lbm", false, 42, 0x8db704a23ab41ea8, 142857),
    ("lbm", false, 7, 0x47622b08d9ee570f, 142857),
    ("gamess", false, 42, 0x81a3210367b8ab1d, 150000),
    ("gamess", false, 7, 0x8acec528f35a16b9, 150000),
    ("libquantum", false, 42, 0x490220f34cd8d77a, 181818),
    ("libquantum", false, 7, 0x1f249c7e94ad13ec, 181818),
];

#[test]
fn generator_streams_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    for &(name, large_blocks, seed, digest, instructions) in GOLDEN {
        let geometry = if large_blocks {
            CacheGeometry::paper_large_blocks()
        } else {
            CacheGeometry::paper_baseline()
        };
        let profile = profile(name);
        let got = collected(&profile, geometry, seed);
        if got != (digest, instructions) {
            mismatches.push(format!(
                "    (\"{name}\", {large_blocks}, {seed}, {:#018x}, {}),",
                got.0, got.1
            ));
        }
        for chunk_ops in CHUNK_SIZES {
            assert_eq!(
                chunked(&profile, geometry, seed, chunk_ops),
                got,
                "{name} seed {seed}: chunks of {chunk_ops} diverge from collect"
            );
        }
    }
    assert!(
        mismatches.is_empty(),
        "generated streams differ from the golden table; got:\n{}",
        mismatches.join("\n")
    );
}

/// The sampler's original per-draw formula, with every invariant
/// recomputed inline. The hoisted sampler must agree with it bit for
/// bit.
fn reference_sample(n: u64, s: f64, rng: &mut SmallRng) -> u64 {
    if n == 1 {
        return 0;
    }
    let u: f64 = rng.gen::<f64>();
    let n_f = n as f64;
    let x = if s == 0.0 {
        u * n_f
    } else if (s - 1.0).abs() < 1e-9 {
        ((n_f + 1.0).ln() * u).exp()
    } else {
        let p = 1.0 - s;
        let hi = (n_f + 1.0).powf(p);
        (u * (hi - 1.0) + 1.0).powf(1.0 / p)
    };
    let rank = (x.floor() as u64).saturating_sub(if s == 0.0 { 0 } else { 1 });
    rank.min(n - 1)
}

proptest! {
    #[test]
    fn hoisted_zipf_matches_the_inline_formula(
        n in prop_oneof![Just(1u64), 2u64..64, 1u64..1_000_000, 1u64..(1 << 40)],
        s in prop_oneof![
            Just(0.0),
            Just(1.0),
            Just(1.0 + 5e-10),
            Just(1.0 - 5e-10),
            0.0f64..3.0,
            0.9f64..1.1,
        ],
        seed in any::<u64>(),
    ) {
        let zipf = ZipfSampler::new(n, s);
        let mut a = SmallRng::seed_from_u64(seed);
        let mut b = SmallRng::seed_from_u64(seed);
        for draw in 0..256 {
            let got = zipf.sample(&mut a);
            let want = reference_sample(n, s, &mut b);
            prop_assert_eq!(got, want, "n {} s {} seed {} draw {}", n, s, seed, draw);
        }
    }
}
