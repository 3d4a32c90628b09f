//! Approximate Zipf sampling for working-set skew.

use std::fmt;

use rand::Rng;

/// A sampler of approximately Zipf-distributed ranks in `0..n`.
///
/// Workload locality in the profiled generator comes from two mechanisms:
/// the explicit same-set Markov transitions (short-range, calibrated to the
/// paper's Figure 4) and a skewed choice of blocks from the working set
/// (long-range reuse, which sets the cache miss rate and the incidental
/// Tag-Buffer hit rate). The skew follows a power law with exponent `s`:
/// rank `k` is drawn with probability roughly proportional to
/// `1 / (k+1)^s`.
///
/// The implementation inverts the CDF of the *continuous* bounded power
/// law and floors the result — an approximation of a true Zipf
/// distribution that is amply accurate for workload modelling (the
/// calibration tests measure the resulting stream statistics rather than
/// assuming them). That formula is the definition of a rank. Every
/// quantity that depends only on `n` and `s` is computed once, in
/// [`new`](ZipfSampler::new).
///
/// # Exact table lookup
///
/// A draw is the 53-bit word `k = next_u64() >> 11` that
/// `gen::<f64>()` scales to `u = k / 2^53`. For universes of at most
/// 2^16 ranks, `new` also stores where the formula steps: rank `r >= 1`
/// starts at the closed-form threshold
/// `t_r = ((r+1)^(1-s) - 1) / ((n+1)^(1-s) - 1) · 2^53`
/// (`ln(r+1) / ln(n+1) · 2^53` at `s = 1`), and a guide table indexed by
/// the top bits of `k` holds the rank at the start of each bucket. A
/// draw's rank lies between the ranks at the start of its bucket and of
/// the next, and is the last threshold at or below `k` in that range
/// (usually the only one).
///
/// The floating-point formula rounds its result by a few ulps, which moves
/// its actual step by a few units of `k` away from `t_r` (the tests bisect
/// every step of the built-in profiles). So a draw that lies at least
/// `WINDOW` = 2^20 units from both neighbouring thresholds gets the
/// formula's rank from the table, and a draw inside the window evaluates
/// the formula. The formula also answers every draw when `n > 2^16`, when
/// `s = 0` (uniform, one multiply), and when `s` is so close to 1, outside
/// the `s = 1` branch, that the formula's own rounding spans more than
/// 2^10 units of `k`. Either way a draw consumes the same RNG word and
/// returns the same rank as the formula alone.
///
/// # Example
///
/// ```
/// use cache8t_trace::ZipfSampler;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let zipf = ZipfSampler::new(1000, 0.9);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut low = 0;
/// for _ in 0..1000 {
///     let rank = zipf.sample(&mut rng);
///     assert!(rank < 1000);
///     if rank < 10 { low += 1; }
/// }
/// assert!(low > 100, "a skewed sampler concentrates on low ranks, got {low}");
/// ```
#[derive(Clone)]
pub struct ZipfSampler {
    n: u64,
    s: f64,
    /// The per-draw inverse CDF, with its invariants.
    shape: Shape,
    /// Where the inverse CDF steps, when it is tabulated.
    table: Option<Table>,
}

/// The inverse-CDF branch for a sampler's exponent.
#[derive(Clone, Copy)]
enum Shape {
    /// `n == 1`: every draw is rank 0 and consumes no randomness.
    Single,
    /// `s = 0`: uniform, `x = u n`; holds `n` as a float.
    Uniform { n: f64 },
    /// `s = 1`: `x = exp(u ln(n+1))`; holds `ln(n+1)`.
    Log { ln_hi: f64 },
    /// General `s`: `x = (u ((n+1)^(1-s) - 1) + 1)^(1/(1-s))`; holds
    /// `(n+1)^(1-s) - 1` and `1/(1-s)`.
    Power { span: f64, inv_p: f64 },
}

/// Largest universe a sampler tabulates, which keeps every rank in the
/// `u16` guide.
const TABLE_MAX_RANKS: u64 = 1 << 16;

/// Draws closer than this to a threshold, in units of `k`, evaluate the
/// formula.
const WINDOW: u64 = 1 << 20;

/// Largest `max(1, (n+1)^(1-s)) / |span|` a table is built for. The
/// formula's rounding, in units of `k`, is a small multiple of this
/// ratio, which grows without bound as `s` approaches 1.
const MAX_ROUNDING_SPREAD: f64 = (WINDOW >> 10) as f64;

/// `2^53`: the number of distinct draws `k`.
const DRAWS: f64 = (1u64 << 53) as f64;

/// The steps of a sampler's inverse CDF over its draws `k`.
#[derive(Clone)]
struct Table {
    /// `thresholds[r]` is the first draw of rank `r` by the closed form,
    /// non-decreasing from `thresholds[0] = 0`; `thresholds[n]` is
    /// `u64::MAX`, which no draw reaches.
    thresholds: Box<[u64]>,
    /// `guide[b]` is the rank of the draw `b << guide_shift`, and the
    /// last entry is rank `n - 1`, so a draw in bucket `b` has a rank in
    /// `guide[b]..=guide[b + 1]`.
    guide: Box<[u16]>,
    guide_shift: u32,
}

impl Table {
    /// Tabulates `n <= TABLE_MAX_RANKS` ranks whose rank `r` starts at
    /// the fraction `start(r)` of the draws.
    fn new(n: u64, start: impl Fn(f64) -> f64) -> Table {
        let mut thresholds = Vec::with_capacity(n as usize + 1);
        thresholds.push(0);
        let mut last = 0;
        for r in 1..n {
            // The cast saturates, so rounding below 0 or above 1 stays
            // in range; the running max keeps the list sorted.
            last = ((start(r as f64) * DRAWS) as u64).clamp(last, 1 << 53);
            thresholds.push(last);
        }
        thresholds.push(u64::MAX);
        let buckets = n.next_power_of_two();
        let guide_shift = 53 - buckets.trailing_zeros();
        let mut rank = 0;
        let guide = (0..buckets)
            .map(|b| {
                while thresholds[rank + 1] <= b << guide_shift {
                    rank += 1;
                }
                rank as u16
            })
            .chain([(n - 1) as u16])
            .collect();
        Table {
            thresholds: thresholds.into_boxed_slice(),
            guide,
            guide_shift,
        }
    }

    /// The rank of draw `k`, or `None` when `k` lies within `WINDOW` of
    /// a threshold.
    #[inline]
    fn rank(&self, k: u64) -> Option<u64> {
        let t = &self.thresholds;
        let bucket = (k >> self.guide_shift) as usize;
        let first = usize::from(self.guide[bucket]);
        let last = usize::from(self.guide[bucket + 1]);
        // Most buckets lie inside one rank, so this range is usually
        // empty; a bisection bounds the crowded ones.
        let rank = first + t[first + 1..=last].partition_point(|&start| start <= k);
        (k - t[rank] >= WINDOW && t[rank + 1] - k > WINDOW).then_some(rank as u64)
    }
}

impl ZipfSampler {
    /// Creates a sampler over ranks `0..n` with exponent `s >= 0`.
    ///
    /// `s = 0` degenerates to the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `s < 0`, or `s` is not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "rank universe must be nonempty");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and nonnegative"
        );
        let n_f = n as f64;
        let tabulate = n <= TABLE_MAX_RANKS;
        let (shape, table) = if n == 1 {
            (Shape::Single, None)
        } else if s == 0.0 {
            (Shape::Uniform { n: n_f }, None)
        } else if (s - 1.0).abs() < 1e-9 {
            // CDF over [1, n+1) is ln(x)/ln(n+1).
            let ln_hi = (n_f + 1.0).ln();
            let table = tabulate.then(|| Table::new(n, |r| (r + 1.0).ln() / ln_hi));
            (Shape::Log { ln_hi }, table)
        } else {
            // Inverse CDF of the bounded continuous power law on [1, n+1).
            let p = 1.0 - s;
            let hi = (n_f + 1.0).powf(p);
            let span = hi - 1.0;
            let resolved = hi.max(1.0) <= span.abs() * MAX_ROUNDING_SPREAD;
            let table =
                (tabulate && resolved).then(|| Table::new(n, |r| ((r + 1.0).powf(p) - 1.0) / span));
            let shape = Shape::Power {
                span,
                inv_p: 1.0 / p,
            };
            (shape, table)
        };
        ZipfSampler { n, s, shape, table }
    }

    /// Size of the rank universe.
    #[inline]
    pub fn universe(&self) -> u64 {
        self.n
    }

    /// The skew exponent.
    #[inline]
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Draws one rank in `0..n`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if let Shape::Single = self.shape {
            return 0;
        }
        // The 53 bits `rng.gen::<f64>()` scales to [0, 1).
        self.rank_of(rng.next_u64() >> 11)
    }

    /// The rank of draw `k`: the table's answer where it is exact, the
    /// formula's elsewhere.
    #[inline]
    fn rank_of(&self, k: u64) -> u64 {
        self.table
            .as_ref()
            .and_then(|table| table.rank(k))
            .unwrap_or_else(|| self.formula(k))
    }

    /// The inverse CDF at `u = k / 2^53`, floored to a rank: the
    /// definition of the rank of draw `k`.
    fn formula(&self, k: u64) -> u64 {
        let u = k as f64 * (1.0 / DRAWS);
        let (x, shift) = match self.shape {
            Shape::Single => return 0,
            Shape::Uniform { n } => (u * n, 0),
            Shape::Log { ln_hi } => ((ln_hi * u).exp(), 1),
            Shape::Power { span, inv_p } => ((u * span + 1.0).powf(inv_p), 1),
        };
        // Continuous support is [1, n+1) (or [0, n) when uniform); shift to
        // 0-based ranks and clamp against floating-point edge cases. The
        // cast truncates, which is `floor` for the non-negative `x`.
        let rank = (x as u64).saturating_sub(shift);
        rank.min(self.n - 1)
    }
}

/// Two samplers are equal when they draw the same ranks: same universe
/// and exponent (the table is a function of both).
impl PartialEq for ZipfSampler {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.s == other.s
    }
}

impl fmt::Debug for ZipfSampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ZipfSampler")
            .field("n", &self.n)
            .field("s", &self.s)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn histogram(zipf: &ZipfSampler, samples: usize, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut hist = vec![0u64; zipf.universe() as usize];
        for _ in 0..samples {
            hist[zipf.sample(&mut rng) as usize] += 1;
        }
        hist
    }

    #[test]
    fn samples_stay_in_range() {
        let zipf = ZipfSampler::new(17, 1.3);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 17);
        }
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let zipf = ZipfSampler::new(10, 0.0);
        let hist = histogram(&zipf, 100_000, 7);
        for &count in &hist {
            let frac = count as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.02, "uniform bucket off: {frac}");
        }
    }

    #[test]
    fn higher_exponent_concentrates_more() {
        let mild = histogram(&ZipfSampler::new(1000, 0.5), 50_000, 11);
        let steep = histogram(&ZipfSampler::new(1000, 1.5), 50_000, 11);
        let mild_top: u64 = mild[..10].iter().sum();
        let steep_top: u64 = steep[..10].iter().sum();
        assert!(
            steep_top > 2 * mild_top,
            "steeper skew should hit top ranks more: {steep_top} vs {mild_top}"
        );
    }

    #[test]
    fn exponent_one_is_supported() {
        let zipf = ZipfSampler::new(100, 1.0);
        let hist = histogram(&zipf, 50_000, 13);
        assert!(hist[0] > hist[50], "rank 0 should dominate rank 50");
        assert!(hist.iter().sum::<u64>() == 50_000);
    }

    #[test]
    fn monotone_decreasing_on_average() {
        let hist = histogram(&ZipfSampler::new(50, 0.9), 200_000, 17);
        // Compare coarse halves rather than individual buckets.
        let first: u64 = hist[..25].iter().sum();
        let second: u64 = hist[25..].iter().sum();
        assert!(first > second);
    }

    #[test]
    fn single_rank_universe() {
        let zipf = ZipfSampler::new(1, 2.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(zipf.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn zero_universe_rejected() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_exponent_rejected() {
        let _ = ZipfSampler::new(10, -1.0);
    }

    #[test]
    fn accessors() {
        let z = ZipfSampler::new(42, 0.7);
        assert_eq!(z.universe(), 42);
        assert!((z.exponent() - 0.7).abs() < 1e-12);
    }
    /// Every `(n, s)` of the built-in profiles.
    fn builtin_shapes() -> Vec<(u64, f64)> {
        crate::profiles::spec2006()
            .iter()
            .map(|p| (p.working_set_blocks, p.zipf_exponent))
            .collect()
    }

    /// Both sides of the table cap, the `s = 1` branch's tolerance,
    /// exponents far from 1 and ones near 1 on both sides of the
    /// rounding-spread guard.
    fn edge_shapes() -> Vec<(u64, f64)> {
        let exponents = [
            0.5,
            1.0 - 5e-10,
            1.0 + 5e-10,
            1.5,
            2.0,
            2.9,
            0.999,
            1.001,
            1.0 - 1e-6,
            1.0 + 1e-6,
        ];
        [2, 3, TABLE_MAX_RANKS, TABLE_MAX_RANKS + 1]
            .into_iter()
            .flat_map(|n| exponents.map(|s| (n, s)))
            .collect()
    }

    /// The first draw in `lo..=hi` whose formula rank is at least
    /// `rank`, given `formula(lo) < rank <= formula(hi)`.
    fn formula_step(zipf: &ZipfSampler, rank: u64, mut lo: u64, mut hi: u64) -> u64 {
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if zipf.formula(mid) >= rank {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    #[test]
    fn formula_steps_lie_far_inside_the_window() {
        for (n, s) in builtin_shapes().into_iter().chain(edge_shapes()) {
            let zipf = ZipfSampler::new(n, s);
            let Some(table) = &zipf.table else { continue };
            let mut worst = 0;
            for rank in 1..n {
                let t = table.thresholds[rank as usize];
                let (lo, hi) = (t.saturating_sub(WINDOW), (t + WINDOW).min((1 << 53) - 1));
                assert!(
                    zipf.formula(lo) < rank && rank <= zipf.formula(hi),
                    "n {n} s {s}: rank {rank} does not start within the window of {t}"
                );
                worst = worst.max(formula_step(&zipf, rank, lo, hi).abs_diff(t));
            }
            assert!(
                worst < WINDOW >> 9,
                "n {n} s {s}: a formula step lies {worst} draws from its threshold"
            );
        }
    }

    #[test]
    fn table_agrees_with_the_formula_at_thresholds_and_bucket_starts() {
        for (n, s) in builtin_shapes().into_iter().chain(edge_shapes()) {
            let zipf = ZipfSampler::new(n, s);
            let Some(table) = &zipf.table else { continue };
            let around = table.thresholds[1..n as usize].iter().flat_map(|&t| {
                [0, 1, WINDOW - 1, WINDOW, WINDOW + 1]
                    .into_iter()
                    .flat_map(move |d| [t.saturating_sub(d), t + d])
            });
            let starts = (0..table.guide.len() as u64).map(|b| b << table.guide_shift);
            for k in around.chain(starts) {
                let k = k.min((1 << 53) - 1);
                assert_eq!(zipf.rank_of(k), zipf.formula(k), "n {n} s {s} draw {k}");
            }
        }
    }

    #[test]
    fn tables_cover_capped_universes_away_from_the_unit_exponent() {
        let tabulated = |n, s| ZipfSampler::new(n, s).table.is_some();
        for (n, s) in builtin_shapes() {
            assert!(tabulated(n, s), "n {n} s {s}");
        }
        assert!(tabulated(TABLE_MAX_RANKS, 0.8));
        assert!(!tabulated(TABLE_MAX_RANKS + 1, 0.8));
        assert!(!tabulated(1000, 0.0));
        assert!(!tabulated(1, 1.5));
        assert!(tabulated(2, 1.0 + 5e-10), "the s = 1 branch");
        assert!(tabulated(2, 1.001));
        assert!(!tabulated(2, 1.0 + 1e-6), "rounding spans ~2^20 draws");
        assert!(!tabulated(TABLE_MAX_RANKS, 1.0 - 1e-6));
    }

    #[test]
    fn built_in_tables_stay_under_half_a_mebibyte() {
        for (n, s) in builtin_shapes() {
            let zipf = ZipfSampler::new(n, s);
            let table = zipf.table.as_ref().expect("built-in shapes are tabulated");
            let bytes =
                std::mem::size_of_val(&*table.thresholds) + std::mem::size_of_val(&*table.guide);
            assert!(bytes <= 512 << 10, "n {n} s {s}: {bytes} bytes");
        }
    }

    #[test]
    fn equality_and_debug_see_only_the_universe_and_exponent() {
        let z = ZipfSampler::new(3000, 1.2);
        assert_eq!(z.clone(), ZipfSampler::new(3000, 1.2));
        assert_ne!(z, ZipfSampler::new(3000, 1.1));
        assert_eq!(format!("{z:?}"), "ZipfSampler { n: 3000, s: 1.2, .. }");
    }
}
