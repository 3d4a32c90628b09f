//! Workload profiles: the tunable statistics of a synthetic benchmark.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Target fractions of consecutive same-set access pairs, by scenario.
///
/// These are the four bars of the paper's Figure 4: of all adjacent request
/// pairs in the stream, which fraction targets the *same cache set* with
/// each read/write ordering. The paper finds that on average 27 % of
/// accesses are made to the same set as their predecessor, with RR and WW
/// accounting for the largest shares.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairLocality {
    /// Read followed by a read to the same set.
    pub rr: f64,
    /// Read followed by a write to the same set.
    pub rw: f64,
    /// Write followed by a read to the same set.
    pub wr: f64,
    /// Write followed by a write to the same set — the scenario Write
    /// Grouping exploits.
    pub ww: f64,
}

impl PairLocality {
    /// Total same-set fraction (the paper's 27 % average).
    pub fn total(&self) -> f64 {
        self.rr + self.rw + self.wr + self.ww
    }
}

/// The parameters of one synthetic benchmark.
///
/// Each field maps to a statistic the paper reports (see the field docs);
/// [`profiles::spec2006`](crate::profiles::spec2006) carries one calibrated
/// instance per SPEC CPU2006 benchmark the paper ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Benchmark name (e.g. `"bwaves"`).
    pub name: String,
    /// Fraction of executed instructions that are memory operations
    /// (Figure 3: the paper's average is 40 % — 26 % reads + 14 % writes).
    pub mem_per_instr: f64,
    /// Fraction of memory operations that are reads.
    pub read_share: f64,
    /// Same-set consecutive-pair targets (Figure 4).
    pub locality: PairLocality,
    /// Fraction of writes that store the value already present (Figure 5;
    /// paper average >42 %, bwaves 77 %).
    pub silent_fraction: f64,
    /// Working-set size in cache blocks; controls the miss rate.
    pub working_set_blocks: u64,
    /// Zipf exponent of block popularity within the working set; controls
    /// long-range reuse.
    pub zipf_exponent: f64,
    /// Probability that a write (not already a same-set continuation)
    /// returns to the most recently *written* set — long-range write
    /// clustering (store bursts to a structure with loads interleaved).
    /// Applied only when the previous request was to a different set, so
    /// the Figure-4 adjacent-pair statistics are unaffected.
    pub write_revisit: f64,
    /// Probability that a read (not already a same-set continuation)
    /// targets the most recently written block — load-after-store reuse.
    /// Guarded the same way as `write_revisit`.
    pub read_after_write: f64,
    /// Burstiness of silent writes in `[0, 1)`: 0 makes every write's
    /// silence an independent coin flip; higher values make silence sticky
    /// (a silent write tends to be followed by more silent writes, as in
    /// real streams where a whole structure is re-stored unchanged). The
    /// *marginal* silent fraction — what Figure 5 measures — is preserved
    /// exactly; only the run-length distribution changes.
    pub silent_correlation: f64,
    /// Spatial adjacency of long-range revisits in `[0, 1]`: the fraction
    /// of `write_revisit` / `read_after_write` targets redirected to the
    /// *buddy* block (the 32 B neighbour completing a 64 B-aligned pair).
    /// This is the spatial locality that makes larger cache blocks raise
    /// the Set-Buffer hit rate — the mechanism behind the paper's Figure
    /// 10 (reductions grow from 27 %/33 % to 29 %/37 % at 64 B blocks).
    pub spatial_adjacency: f64,
}

/// A profile whose statistics are mutually inconsistent.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProfileError {
    /// A probability-like field was outside `[0, 1]`.
    OutOfRange {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The requested pair-locality targets cannot be realized together with
    /// the requested read share by any first-order Markov chain.
    InfeasibleLocality {
        /// Human-readable explanation of the violated bound.
        detail: String,
    },
    /// The working set was empty.
    EmptyWorkingSet,
    /// The working set exceeded
    /// [`WorkloadProfile::MAX_WORKING_SET_BLOCKS`].
    WorkingSetTooLarge {
        /// The rejected block count.
        blocks: u64,
    },
    /// `mem_per_instr` was below [`WorkloadProfile::MIN_MEM_PER_INSTR`]
    /// (zero included).
    MemPerInstrTooLow {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::OutOfRange { field, value } => {
                write!(f, "profile field `{field}` must be in [0, 1], got {value}")
            }
            ProfileError::InfeasibleLocality { detail } => {
                write!(f, "pair-locality targets are infeasible: {detail}")
            }
            ProfileError::EmptyWorkingSet => {
                f.write_str("working set must contain at least one block")
            }
            ProfileError::WorkingSetTooLarge { blocks } => write!(
                f,
                "working set of {blocks} blocks exceeds the cap of {} blocks",
                WorkloadProfile::MAX_WORKING_SET_BLOCKS
            ),
            ProfileError::MemPerInstrTooLow { value } => write!(
                f,
                "profile field `mem_per_instr` must be at least 2^-52, got {value}"
            ),
        }
    }
}

impl Error for ProfileError {}

/// The derived first-order Markov chain over (kind, same-set) that realizes
/// a profile's targets.
///
/// Writing `pR = read_share`, the chain fixes the kind-transition matrix
/// via a single parameter `a = P(read | prev read)`; stationarity then
/// forces `b = P(read | prev write) = pR (1 - a) / pW`. The same-set
/// probability for each ordered pair is the target pair fraction divided by
/// that pair's occurrence rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct KindChain {
    /// P(next is read | prev read).
    pub a: f64,
    /// P(next is read | prev write).
    pub b: f64,
    /// p_same[prev][next], indexed 0 = read, 1 = write.
    pub p_same: [[f64; 2]; 2],
}

impl WorkloadProfile {
    /// Largest accepted `working_set_blocks`: 2^24, about 400 times the
    /// largest built-in working set. The generator keeps a dense shadow of every
    /// working-set word, and the cap keeps it allocatable (512 MiB of
    /// lazily committed zero pages at 32 B blocks).
    pub const MAX_WORKING_SET_BLOCKS: u64 = 1 << 24;

    /// Smallest accepted `mem_per_instr`: 2^-52. It keeps the generator's
    /// per-op instruction gap below 2^52, where converting the
    /// non-negative carry with a truncating cast is exactly `floor`.
    pub const MIN_MEM_PER_INSTR: f64 = f64::EPSILON;

    /// Validates the profile and derives its Markov chain.
    ///
    /// # Errors
    ///
    /// Returns [`ProfileError`] if any statistic is out of range or the
    /// locality targets are jointly unrealizable.
    pub fn validate(&self) -> Result<(), ProfileError> {
        self.kind_chain().map(|_| ())
    }

    fn check_unit(value: f64, field: &'static str) -> Result<(), ProfileError> {
        if !(0.0..=1.0).contains(&value) || value.is_nan() {
            return Err(ProfileError::OutOfRange { field, value });
        }
        Ok(())
    }

    pub(crate) fn kind_chain(&self) -> Result<KindChain, ProfileError> {
        Self::check_unit(self.mem_per_instr, "mem_per_instr")?;
        if self.mem_per_instr < Self::MIN_MEM_PER_INSTR {
            return Err(ProfileError::MemPerInstrTooLow {
                value: self.mem_per_instr,
            });
        }
        Self::check_unit(self.read_share, "read_share")?;
        Self::check_unit(self.silent_fraction, "silent_fraction")?;
        Self::check_unit(self.locality.rr, "locality.rr")?;
        Self::check_unit(self.locality.rw, "locality.rw")?;
        Self::check_unit(self.locality.wr, "locality.wr")?;
        Self::check_unit(self.locality.ww, "locality.ww")?;
        Self::check_unit(self.locality.total(), "locality.total")?;
        if self.working_set_blocks == 0 {
            return Err(ProfileError::EmptyWorkingSet);
        }
        if self.working_set_blocks > Self::MAX_WORKING_SET_BLOCKS {
            return Err(ProfileError::WorkingSetTooLarge {
                blocks: self.working_set_blocks,
            });
        }
        Self::check_unit(self.write_revisit, "write_revisit")?;
        Self::check_unit(self.read_after_write, "read_after_write")?;
        if !(0.0..1.0).contains(&self.silent_correlation) || self.silent_correlation.is_nan() {
            return Err(ProfileError::OutOfRange {
                field: "silent_correlation",
                value: self.silent_correlation,
            });
        }
        Self::check_unit(self.spatial_adjacency, "spatial_adjacency")?;
        if !self.zipf_exponent.is_finite() || self.zipf_exponent < 0.0 {
            return Err(ProfileError::OutOfRange {
                field: "zipf_exponent",
                value: self.zipf_exponent,
            });
        }

        let p_r = self.read_share;
        let p_w = 1.0 - p_r;
        let loc = &self.locality;
        if p_r == 0.0 && (loc.rr > 0.0 || loc.rw > 0.0 || loc.wr > 0.0) {
            return Err(ProfileError::InfeasibleLocality {
                detail: "read-involving pairs requested with zero reads".to_string(),
            });
        }
        if p_w == 0.0 && (loc.ww > 0.0 || loc.rw > 0.0 || loc.wr > 0.0) {
            return Err(ProfileError::InfeasibleLocality {
                detail: "write-involving pairs requested with zero writes".to_string(),
            });
        }

        // Feasible interval for a = P(R | prev R):
        //   pair RR needs rate pR * a       >= rr  ->  a >= rr / pR
        //   pair RW needs rate pR * (1 - a) >= rw  ->  a <= 1 - rw / pR
        //   pair WR needs rate pW * b = pR (1-a)   >= wr  ->  a <= 1 - wr / pR
        //   pair WW needs rate pW * (1 - b)        >= ww
        //     with b = pR (1 - a) / pW this is pW - pR (1-a) >= ww
        //     ->  a >= 1 - (pW - ww) / pR
        let mut lo: f64 = 0.0;
        let mut hi: f64 = 1.0;
        if p_r > 0.0 {
            lo = lo.max(loc.rr / p_r);
            hi = hi.min(1.0 - loc.rw / p_r);
            hi = hi.min(1.0 - loc.wr / p_r);
            lo = lo.max(1.0 - (p_w - loc.ww) / p_r);
        } else if loc.ww > p_w {
            return Err(ProfileError::InfeasibleLocality {
                detail: format!("ww target {} exceeds write share {p_w}", loc.ww),
            });
        }
        if lo > hi + 1e-12 {
            return Err(ProfileError::InfeasibleLocality {
                detail: format!(
                    "no P(read|read) satisfies all pair targets (need a in [{lo:.4}, {hi:.4}])"
                ),
            });
        }
        // Midpoint of the feasible interval: balances read/write run
        // lengths subject to the constraints.
        let a = f64::midpoint(lo.min(hi), hi);
        let b = if p_w > 0.0 {
            (p_r * (1.0 - a) / p_w).min(1.0)
        } else {
            1.0
        };

        let rate_rr = p_r * a;
        let rate_rw = p_r * (1.0 - a);
        let rate_wr = p_w * b;
        let rate_ww = p_w * (1.0 - b);
        let cond = |target: f64, rate: f64| -> f64 {
            if rate <= 1e-15 {
                0.0
            } else {
                (target / rate).min(1.0)
            }
        };
        Ok(KindChain {
            a,
            b,
            p_same: [
                [cond(loc.rr, rate_rr), cond(loc.rw, rate_rw)],
                [cond(loc.wr, rate_wr), cond(loc.ww, rate_ww)],
            ],
        })
    }

    /// A stable 64-bit fingerprint over every generation-relevant field
    /// (FNV-1a over the name bytes and the raw bit patterns of the
    /// numeric fields).
    ///
    /// Two profiles with equal fingerprints generate identical traces
    /// for any (seed, length); profiles that differ in *any* parameter —
    /// including ad-hoc sweep variants that share a `name` — get
    /// distinct fingerprints. Used by the execution engine's trace store
    /// to key its on-disk trace files.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        eat(self.name.as_bytes());
        for f in [
            self.mem_per_instr,
            self.read_share,
            self.locality.rr,
            self.locality.rw,
            self.locality.wr,
            self.locality.ww,
            self.silent_fraction,
            self.zipf_exponent,
            self.write_revisit,
            self.read_after_write,
            self.silent_correlation,
            self.spatial_adjacency,
        ] {
            eat(&f.to_bits().to_le_bytes());
        }
        eat(&self.working_set_blocks.to_le_bytes());
        hash
    }

    /// Expected reads per instruction (the Figure 3 read bar).
    pub fn reads_per_instr(&self) -> f64 {
        self.mem_per_instr * self.read_share
    }

    /// Expected writes per instruction (the Figure 3 write bar).
    pub fn writes_per_instr(&self) -> f64 {
        self.mem_per_instr * (1.0 - self.read_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorkloadProfile {
        WorkloadProfile {
            name: "test".to_string(),
            mem_per_instr: 0.4,
            read_share: 0.65,
            locality: PairLocality {
                rr: 0.10,
                rw: 0.04,
                wr: 0.04,
                ww: 0.09,
            },
            silent_fraction: 0.42,
            working_set_blocks: 4096,
            zipf_exponent: 0.8,
            write_revisit: 0.2,
            read_after_write: 0.1,
            silent_correlation: 0.5,
            spatial_adjacency: 0.3,
        }
    }

    #[test]
    fn typical_profile_is_feasible() {
        let chain = base().kind_chain().unwrap();
        assert!(chain.a > 0.0 && chain.a < 1.0);
        assert!(chain.b > 0.0 && chain.b <= 1.0);
        for row in chain.p_same {
            for p in row {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn chain_realizes_pair_rates() {
        let p = base();
        let chain = p.kind_chain().unwrap();
        let p_r = p.read_share;
        let p_w = 1.0 - p_r;
        // Realized pair rate = occurrence rate x conditional same-set prob.
        let rr = p_r * chain.a * chain.p_same[0][0];
        let rw = p_r * (1.0 - chain.a) * chain.p_same[0][1];
        let wr = p_w * chain.b * chain.p_same[1][0];
        let ww = p_w * (1.0 - chain.b) * chain.p_same[1][1];
        assert!((rr - p.locality.rr).abs() < 1e-9);
        assert!((rw - p.locality.rw).abs() < 1e-9);
        assert!((wr - p.locality.wr).abs() < 1e-9);
        assert!((ww - p.locality.ww).abs() < 1e-9);
    }

    #[test]
    fn chain_preserves_stationary_read_share() {
        let p = base();
        let chain = p.kind_chain().unwrap();
        // pi_R = pi_R a + pi_W b must hold.
        let lhs = p.read_share;
        let rhs = p.read_share * chain.a + (1.0 - p.read_share) * chain.b;
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn bwaves_like_heavy_ww_is_feasible() {
        let mut p = base();
        p.read_share = 0.54;
        p.locality = PairLocality {
            rr: 0.08,
            rw: 0.05,
            wr: 0.05,
            ww: 0.24,
        };
        let chain = p.kind_chain().unwrap();
        let p_w = 1.0 - p.read_share;
        let ww = p_w * (1.0 - chain.b) * chain.p_same[1][1];
        assert!((ww - 0.24).abs() < 1e-9, "got ww rate {ww}");
    }

    #[test]
    fn impossible_ww_is_rejected() {
        let mut p = base();
        p.read_share = 0.9; // writes are 10% of ops...
        p.locality.ww = 0.2; // ...but 20% of pairs should be same-set WW
        assert!(matches!(
            p.kind_chain(),
            Err(ProfileError::InfeasibleLocality { .. })
        ));
    }

    #[test]
    fn out_of_range_fields_are_rejected() {
        let mut p = base();
        p.silent_fraction = 1.5;
        assert!(matches!(
            p.validate(),
            Err(ProfileError::OutOfRange {
                field: "silent_fraction",
                ..
            })
        ));
        let mut p = base();
        p.mem_per_instr = 0.0;
        assert!(matches!(
            p.validate(),
            Err(ProfileError::MemPerInstrTooLow { .. })
        ));
        let mut p = base();
        p.working_set_blocks = 0;
        assert!(matches!(p.validate(), Err(ProfileError::EmptyWorkingSet)));
        let mut p = base();
        p.zipf_exponent = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn working_set_is_capped() {
        let mut p = base();
        p.working_set_blocks = WorkloadProfile::MAX_WORKING_SET_BLOCKS;
        assert!(p.validate().is_ok(), "the cap itself is accepted");
        p.working_set_blocks += 1;
        let e = p.validate().unwrap_err();
        assert_eq!(
            e,
            ProfileError::WorkingSetTooLarge {
                blocks: (1 << 24) + 1
            }
        );
        assert!(e.to_string().contains("16777217 blocks"), "{e}");
    }

    #[test]
    fn memory_density_has_a_floor() {
        let mut p = base();
        p.mem_per_instr = WorkloadProfile::MIN_MEM_PER_INSTR;
        assert!(p.validate().is_ok(), "2^-52 itself is accepted");
        p.mem_per_instr = 2f64.powi(-53);
        let e = p.validate().unwrap_err();
        assert_eq!(
            e,
            ProfileError::MemPerInstrTooLow {
                value: 2f64.powi(-53)
            }
        );
        assert!(e.to_string().contains("mem_per_instr"), "{e}");
    }

    #[test]
    fn fingerprint_separates_parameter_tweaks() {
        let p = base();
        assert_eq!(p.fingerprint(), base().fingerprint(), "deterministic");
        let mut q = base();
        q.silent_fraction += 1e-9;
        assert_ne!(p.fingerprint(), q.fingerprint(), "numeric field");
        let mut q = base();
        q.working_set_blocks += 1;
        assert_ne!(p.fingerprint(), q.fingerprint(), "integer field");
        let mut q = base();
        q.name = "other".to_string();
        assert_ne!(p.fingerprint(), q.fingerprint(), "name");
    }

    #[test]
    fn per_instruction_rates() {
        let p = base();
        assert!((p.reads_per_instr() - 0.26).abs() < 1e-12);
        assert!((p.writes_per_instr() - 0.14).abs() < 1e-12);
    }

    #[test]
    fn locality_total_sums_components() {
        let l = base().locality;
        assert!((l.total() - 0.27).abs() < 1e-12);
    }

    #[test]
    fn error_display_mentions_field() {
        let e = ProfileError::OutOfRange {
            field: "read_share",
            value: 2.0,
        };
        assert!(e.to_string().contains("read_share"));
        let e = ProfileError::EmptyWorkingSet;
        assert!(!e.to_string().is_empty());
    }
}
