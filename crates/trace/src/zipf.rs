//! Approximate Zipf sampling for working-set skew.

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
/// law and floors the result — an O(1), allocation-free approximation of a
/// true Zipf distribution that is amply accurate for workload modelling
/// (the calibration tests measure the resulting stream statistics rather
/// than assuming them). Every quantity that depends only on `n` and `s`
/// is computed once, in [`new`](ZipfSampler::new), so a draw costs one
/// uniform variate and at most one transcendental call.
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfSampler {
    n: u64,
    s: f64,
    /// The per-draw inverse CDF, with its invariants.
    shape: Shape,
}

/// The inverse-CDF branch for a sampler's exponent.
#[derive(Debug, Clone, Copy, PartialEq)]
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
        let shape = if n == 1 {
            Shape::Single
        } else if s == 0.0 {
            Shape::Uniform { n: n_f }
        } else if (s - 1.0).abs() < 1e-9 {
            // CDF over [1, n+1) is ln(x)/ln(n+1).
            Shape::Log {
                ln_hi: (n_f + 1.0).ln(),
            }
        } else {
            // Inverse CDF of the bounded continuous power law on [1, n+1).
            let p = 1.0 - s;
            Shape::Power {
                span: (n_f + 1.0).powf(p) - 1.0,
                inv_p: 1.0 / p,
            }
        };
        ZipfSampler { n, s, shape }
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
        let (x, shift) = match self.shape {
            Shape::Single => return 0,
            Shape::Uniform { n } => (rng.gen::<f64>() * n, 0),
            Shape::Log { ln_hi } => ((ln_hi * rng.gen::<f64>()).exp(), 1),
            Shape::Power { span, inv_p } => ((rng.gen::<f64>() * span + 1.0).powf(inv_p), 1),
        };
        // Continuous support is [1, n+1) (or [0, n) when uniform); shift to
        // 0-based ranks and clamp against floating-point edge cases. The
        // cast truncates, which is `floor` for the non-negative `x`.
        let rank = (x as u64).saturating_sub(shift);
        rank.min(self.n - 1)
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
}
