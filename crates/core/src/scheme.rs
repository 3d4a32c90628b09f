//! The scheme registry: every controller the workspace implements, by
//! name.
//!
//! [`SchemeKind`] is the one place a scheme name is parsed, displayed and
//! turned into a controller. The CLI's `--scheme`/`--schemes`, the
//! conformance harness, the sweep engine and the tests all go through
//! it, so a new scheme is its controller and one arm of each match
//! here.

use std::fmt;

use cache8t_sim::{CacheGeometry, ReplacementKind};

use crate::{
    CacheBackend, CoalescingController, Controller, ConventionalController, RmwController,
    WgController, WgOptions,
};

/// One cache controller scheme: the paper's four, in canonical (6T, RMW,
/// WG, WG+RB) order, plus the coalescing write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Conventional 6T-style cache (one array access per write).
    Conventional,
    /// 8T read-modify-write baseline.
    Rmw,
    /// Write Grouping.
    Wg,
    /// Write Grouping + Read Bypassing.
    WgRb,
    /// The coalescing write buffer, with this many block entries.
    Coalesce(usize),
}

impl SchemeKind {
    /// The paper's four schemes in canonical order: the ones every
    /// sweep benchmark runs through.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Conventional,
        SchemeKind::Rmw,
        SchemeKind::Wg,
        SchemeKind::WgRb,
    ];

    /// Every scheme of the workspace: [`ALL`](Self::ALL) followed by the
    /// coalescing write buffer at `coalesce_entries` entries.
    pub const fn suite(coalesce_entries: usize) -> [SchemeKind; 5] {
        [
            SchemeKind::Conventional,
            SchemeKind::Rmw,
            SchemeKind::Wg,
            SchemeKind::WgRb,
            SchemeKind::Coalesce(coalesce_entries),
        ]
    }

    /// Parses one scheme name: `6t`, `rmw`, `wg`, `wg+rb` (or `wgrb`),
    /// `coalesce:<entries>` with at least one entry. Surrounding
    /// whitespace and case are ignored.
    pub fn parse(s: &str) -> Result<SchemeKind, String> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "6t" => Ok(SchemeKind::Conventional),
            "rmw" => Ok(SchemeKind::Rmw),
            "wg" => Ok(SchemeKind::Wg),
            "wg+rb" | "wgrb" => Ok(SchemeKind::WgRb),
            other => {
                let Some(entries) = other.strip_prefix("coalesce:") else {
                    return Err(format!(
                        "unknown scheme `{other}` (expected 6t, rmw, wg, wg+rb, coalesce:<n>)"
                    ));
                };
                match entries.parse() {
                    Ok(0) => Err("coalesce needs at least one entry".to_string()),
                    Ok(n) => Ok(SchemeKind::Coalesce(n)),
                    Err(_) => Err(format!("invalid entry count in `{other}`")),
                }
            }
        }
    }

    /// Parses a comma-separated, non-empty scheme list (empty items are
    /// skipped).
    pub fn parse_list(s: &str) -> Result<Vec<SchemeKind>, String> {
        let schemes: Vec<SchemeKind> = s
            .split(',')
            .filter(|p| !p.trim().is_empty())
            .map(SchemeKind::parse)
            .collect::<Result<_, _>>()?;
        if schemes.is_empty() {
            return Err("empty scheme list".to_string());
        }
        Ok(schemes)
    }

    /// The canonical spelling [`parse`](Self::parse) accepts: `6t`,
    /// `rmw`, `wg`, `wg+rb`, `coalesce:<entries>`.
    pub fn spelling(self) -> String {
        match self {
            SchemeKind::Conventional => "6t".to_string(),
            SchemeKind::Rmw => "rmw".to_string(),
            SchemeKind::Wg => "wg".to_string(),
            SchemeKind::WgRb => "wg+rb".to_string(),
            SchemeKind::Coalesce(n) => format!("coalesce:{n}"),
        }
    }

    /// The display name the controller itself reports.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Conventional => "6T",
            SchemeKind::Rmw => "RMW",
            SchemeKind::Wg => "WG",
            SchemeKind::WgRb => "WG+RB",
            SchemeKind::Coalesce(_) => "CoalesceWB",
        }
    }

    /// Builds the controller for this scheme over `geometry`, LRU, with
    /// no L2.
    pub fn build(self, geometry: CacheGeometry) -> Box<dyn Controller> {
        self.build_on(CacheBackend::new(geometry, ReplacementKind::Lru))
    }

    /// Builds the controller for this scheme over an existing backend
    /// (e.g. one built with [`CacheBackend::with_l2`]).
    pub fn build_on(self, backend: CacheBackend) -> Box<dyn Controller> {
        match self {
            SchemeKind::Conventional => Box::new(ConventionalController::from_backend(backend)),
            SchemeKind::Rmw => Box::new(RmwController::from_backend(backend)),
            SchemeKind::Wg => Box::new(WgController::from_backend(backend, WgOptions::wg())),
            SchemeKind::WgRb => Box::new(WgController::from_backend(backend, WgOptions::wg_rb())),
            SchemeKind::Coalesce(entries) => {
                Box::new(CoalescingController::from_backend(backend, entries))
            }
        }
    }
}

/// The report label: [`name`](SchemeKind::name), with the entry count
/// for the coalescing buffer (`CoalesceWB(4)`).
impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeKind::Coalesce(n) => write!(f, "{}({n})", self.name()),
            _ => f.write_str(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemes_parse_display_and_build() {
        let g = CacheGeometry::paper_baseline();
        for (spelling, kind, label, name) in [
            ("6t", SchemeKind::Conventional, "6T", "6T"),
            ("rmw", SchemeKind::Rmw, "RMW", "RMW"),
            ("wg", SchemeKind::Wg, "WG", "WG"),
            ("wg+rb", SchemeKind::WgRb, "WG+RB", "WG+RB"),
            ("WG+RB", SchemeKind::WgRb, "WG+RB", "WG+RB"),
            ("wgrb", SchemeKind::WgRb, "WG+RB", "WG+RB"),
            (" Wg+Rb ", SchemeKind::WgRb, "WG+RB", "WG+RB"),
            (
                "coalesce:4",
                SchemeKind::Coalesce(4),
                "CoalesceWB(4)",
                "CoalesceWB",
            ),
            (
                "coalesce:8",
                SchemeKind::Coalesce(8),
                "CoalesceWB(8)",
                "CoalesceWB",
            ),
        ] {
            assert_eq!(SchemeKind::parse(spelling), Ok(kind), "{spelling}");
            assert_eq!(kind.to_string(), label, "{spelling}");
            assert_eq!(kind.name(), name, "{spelling}");
            assert_eq!(kind.build(g).name(), name, "{spelling}");
        }
        for bad in ["bogus", "9t", "coalesce:0", "coalesce:x", ""] {
            assert!(SchemeKind::parse(bad).is_err(), "{bad:?} must not parse");
        }

        let list = SchemeKind::parse_list("6t,rmw, wg").expect("valid list");
        assert_eq!(
            list,
            vec![SchemeKind::Conventional, SchemeKind::Rmw, SchemeKind::Wg]
        );
        assert!(SchemeKind::parse_list("").is_err());
        assert!(SchemeKind::parse_list(" , ").is_err());
        assert!(SchemeKind::parse_list("wg,warp-drive").is_err());

        // The five-scheme suite extends the paper's four, and every
        // scheme's spelling parses back to it.
        let suite = SchemeKind::suite(4);
        assert_eq!(suite.len(), 5);
        assert_eq!(suite[..4], SchemeKind::ALL);
        for kind in suite {
            assert_eq!(SchemeKind::parse(&kind.spelling()), Ok(kind));
        }

        // The L2-backed build reports the same scheme.
        let l2 = CacheGeometry::new(512 * 1024, 8, 32).unwrap();
        let backend = CacheBackend::with_l2(g, l2, ReplacementKind::Lru);
        assert_eq!(SchemeKind::WgRb.build_on(backend).name(), "WG+RB");
    }
}
