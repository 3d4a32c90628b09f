//! Cache hit/miss statistics.

use std::fmt;
use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

/// Request-level hit/miss counters: the ledger every controller in
/// `cache8t-core` keeps, one entry per CPU request.
///
/// These are the *functional* cache statistics (did the block reside in the
/// cache?). The paper's headline metric — SRAM-array access frequency under
/// RMW / WG / WG+RB — is counted separately by the controllers in
/// `cache8t-core`, because one functional access can cost zero, one, or two
/// array operations depending on the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read lookups that hit.
    pub read_hits: u64,
    /// Read lookups that missed.
    pub read_misses: u64,
    /// Write lookups that hit.
    pub write_hits: u64,
    /// Write lookups that missed.
    pub write_misses: u64,
    /// Valid blocks evicted to make room for a fill.
    pub evictions: u64,
    /// Evictions of dirty blocks (data returned to the caller for
    /// write-back).
    pub dirty_evictions: u64,
    /// Word writes whose new value equalled the stored value (silent
    /// stores, per Lepak & Lipasti).
    pub silent_word_writes: u64,
}

impl CacheStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Total read lookups.
    #[inline]
    pub fn reads(&self) -> u64 {
        self.read_hits + self.read_misses
    }

    /// Total write lookups.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.write_hits + self.write_misses
    }

    /// Total lookups of either kind.
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Total misses of either kind.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss ratio over all accesses, or 0.0 if there were none.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses() as f64 / total as f64
        }
    }

    /// Miss rate over all accesses, or 0.0 if there were none.
    ///
    /// Alias of [`miss_ratio`](Self::miss_ratio) under the name most
    /// dashboards and the telemetry layer use; both are guaranteed to
    /// return 0.0 (not NaN) for empty statistics.
    #[inline]
    pub fn miss_rate(&self) -> f64 {
        self.miss_ratio()
    }

    /// Hit ratio over all accesses, or 0.0 if there were none.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            (total - self.misses()) as f64 / total as f64
        }
    }

    /// Verifies the arithmetic laws every well-formed counter set obeys:
    /// hits + misses = accesses (true by construction of the derived
    /// totals, checked against overflow), every eviction was caused by a
    /// miss, and dirty evictions are a subset of evictions. Returns a
    /// human-readable description of the first violated law.
    ///
    /// The differential conformance harness calls this on every scheme
    /// after replay; a violation means a controller corrupted its own
    /// bookkeeping even if all data values agree.
    pub fn check_conservation(&self) -> Result<(), String> {
        let hits = self
            .read_hits
            .checked_add(self.write_hits)
            .ok_or("hit counters overflow")?;
        let total = hits
            .checked_add(self.misses())
            .ok_or("access counters overflow")?;
        if total != self.accesses() {
            return Err(format!(
                "hits ({hits}) + misses ({}) != accesses ({})",
                self.misses(),
                self.accesses()
            ));
        }
        if self.evictions > self.misses() {
            return Err(format!(
                "evictions ({}) exceed misses ({}): an eviction without a fill",
                self.evictions,
                self.misses()
            ));
        }
        if self.dirty_evictions > self.evictions {
            return Err(format!(
                "dirty evictions ({}) exceed evictions ({})",
                self.dirty_evictions, self.evictions
            ));
        }
        Ok(())
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(mut self, rhs: CacheStats) -> CacheStats {
        self += rhs;
        self
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        self.read_hits += rhs.read_hits;
        self.read_misses += rhs.read_misses;
        self.write_hits += rhs.write_hits;
        self.write_misses += rhs.write_misses;
        self.evictions += rhs.evictions;
        self.dirty_evictions += rhs.dirty_evictions;
        self.silent_word_writes += rhs.silent_word_writes;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} (r {}/{} hit, w {}/{} hit), miss ratio {:.4}, evictions {} ({} dirty), silent word writes {}",
            self.accesses(),
            self.read_hits,
            self.reads(),
            self.write_hits,
            self.writes(),
            self.miss_ratio(),
            self.evictions,
            self.dirty_evictions,
            self.silent_word_writes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CacheStats {
        CacheStats {
            read_hits: 90,
            read_misses: 10,
            write_hits: 45,
            write_misses: 5,
            evictions: 12,
            dirty_evictions: 4,
            silent_word_writes: 20,
        }
    }

    #[test]
    fn derived_totals() {
        let s = sample();
        assert_eq!(s.reads(), 100);
        assert_eq!(s.writes(), 50);
        assert_eq!(s.accesses(), 150);
        assert_eq!(s.misses(), 15);
        assert!((s.miss_ratio() - 0.1).abs() < 1e-12);
        assert!((s.hit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_ratios() {
        let s = CacheStats::new();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn addition_is_fieldwise() {
        let s = sample() + sample();
        assert_eq!(s.read_hits, 180);
        assert_eq!(s.silent_word_writes, 40);
        assert_eq!(s.accesses(), 300);
    }

    #[test]
    fn miss_rate_matches_ratio_and_survives_empty() {
        let s = sample();
        assert_eq!(s.miss_rate(), s.miss_ratio());
        assert!((s.miss_rate() - 0.1).abs() < 1e-12);
        // Division by zero must yield 0.0, never NaN.
        let empty = CacheStats::new();
        assert_eq!(empty.miss_rate(), 0.0);
        assert!(!empty.miss_rate().is_nan());
    }

    #[test]
    fn add_and_add_assign_round_trip() {
        let a = sample();
        let b = CacheStats {
            read_hits: 1,
            read_misses: 2,
            write_hits: 3,
            write_misses: 4,
            evictions: 5,
            dirty_evictions: 6,
            silent_word_writes: 7,
        };
        let by_add = a + b;
        let mut by_assign = a;
        by_assign += b;
        assert_eq!(by_add, by_assign);
        // Identity and commutativity over the sample values.
        assert_eq!(a + CacheStats::new(), a);
        assert_eq!(a + b, b + a);
        assert_eq!(by_add.accesses(), a.accesses() + b.accesses());
    }

    #[test]
    fn conservation_laws_hold_for_well_formed_counters() {
        assert_eq!(sample().check_conservation(), Ok(()));
        assert_eq!(CacheStats::new().check_conservation(), Ok(()));
        // Evictions without misses: impossible, must be flagged.
        let phantom_eviction = CacheStats {
            evictions: 1,
            ..CacheStats::new()
        };
        assert!(phantom_eviction
            .check_conservation()
            .unwrap_err()
            .contains("eviction"));
        // More dirty evictions than evictions: corrupted bookkeeping.
        let bad_dirty = CacheStats {
            read_misses: 5,
            evictions: 2,
            dirty_evictions: 3,
            ..CacheStats::new()
        };
        assert!(bad_dirty
            .check_conservation()
            .unwrap_err()
            .contains("dirty"));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!sample().to_string().is_empty());
        assert!(!CacheStats::new().to_string().is_empty());
    }
}
