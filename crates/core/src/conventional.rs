//! The 6T-style conventional controller.

use cache8t_sim::{CacheGeometry, ReplacementKind};
use cache8t_trace::DecodedOp;

use crate::controller::{AccessCost, AccessResponse, CacheBackend, Controller};

/// A conventional (6T-style) cache controller: one array access per
/// request.
///
/// On a 6T array half-selected columns survive a write (they are biased as
/// pseudo-reads), so a store is a single partial-row write — no RMW. This
/// controller is the reference against which the paper quantifies RMW's
/// traffic increase ("more than 32% on average, max 47%", §1): the
/// `motivation_rmw_traffic` harness compares [`RmwController`] against it.
///
/// [`RmwController`]: crate::RmwController
///
/// # Example
///
/// ```
/// use cache8t_core::{Controller, ConventionalController};
/// use cache8t_sim::{Address, CacheGeometry, ReplacementKind};
/// use cache8t_trace::MemOp;
///
/// let mut c = ConventionalController::new(CacheGeometry::paper_baseline(), ReplacementKind::Lru);
/// c.access(&MemOp::write(Address::new(0x40), 7));
/// c.access(&MemOp::read(Address::new(0x40)));
/// assert_eq!(c.array_accesses(), 2); // one activation per request
/// ```
#[derive(Debug)]
pub struct ConventionalController {
    backend: CacheBackend,
}

impl ConventionalController {
    /// Creates an empty conventional controller.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        ConventionalController::from_backend(CacheBackend::new(geometry, replacement))
    }

    /// Creates a controller over an existing backend (e.g. one built with
    /// [`CacheBackend::with_l2`]).
    pub fn from_backend(backend: CacheBackend) -> Self {
        ConventionalController { backend }
    }
}

impl Controller for ConventionalController {
    fn backend(&self) -> &CacheBackend {
        &self.backend
    }

    fn backend_mut(&mut self) -> &mut CacheBackend {
        &mut self.backend
    }

    fn name(&self) -> &'static str {
        "6T"
    }

    #[inline]
    fn serve(&mut self, d: DecodedOp) -> AccessResponse {
        let probed = self.backend.cache().find_in_set(d.set, d.tag);
        let residency = self.backend.ensure_resident_probed(d.addr, probed);
        let (value, cost) = if d.is_read() {
            let value = self
                .backend
                .cache_mut()
                .read_word_at(d.set, residency.way, d.word);
            self.backend.record_read(residency.hit);
            self.backend.traffic_mut().demand_reads += 1;
            (
                value,
                AccessCost {
                    row_reads: 1,
                    row_writes: 0,
                    buffer_hit: false,
                },
            )
        } else {
            let effect =
                self.backend
                    .cache_mut()
                    .write_word_at(d.set, residency.way, d.word, d.value);
            self.backend.record_write(residency.hit, effect.was_silent);
            self.backend.traffic_mut().demand_writes += 1;
            (
                d.value,
                AccessCost {
                    row_reads: 0,
                    row_writes: 1,
                    buffer_hit: false,
                },
            )
        };
        AccessResponse {
            value,
            hit: residency.hit,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_sim::{AccessKind, Address};
    use cache8t_trace::MemOp;

    fn controller() -> ConventionalController {
        ConventionalController::new(
            CacheGeometry::new(1024, 2, 32).unwrap(),
            ReplacementKind::Lru,
        )
    }

    #[test]
    fn each_request_is_one_activation() {
        let mut c = controller();
        for i in 0..10u64 {
            let addr = Address::new(i * 8);
            if i % 2 == 0 {
                c.access(&MemOp::read(addr));
            } else {
                c.access(&MemOp::write(addr, i));
            }
        }
        assert_eq!(c.array_accesses(), 10);
        assert_eq!(c.traffic().demand_reads, 5);
        assert_eq!(c.traffic().demand_writes, 5);
        assert_eq!(c.traffic().rmw_ops, 0);
    }

    #[test]
    fn reads_return_written_values() {
        let mut c = controller();
        let a = Address::new(0x100);
        c.access(&MemOp::write(a, 1234));
        let r = c.access(&MemOp::read(a));
        assert_eq!(r.value, 1234);
        assert!(r.hit);
        assert_eq!(r.cost.row_reads, 1);
    }

    #[test]
    fn misses_fill_and_report() {
        let mut c = controller();
        let r = c.access(&MemOp::read(Address::new(0x200)));
        assert!(!r.hit);
        assert_eq!(r.value, 0, "untouched memory reads zero");
        assert_eq!(c.traffic().line_fills, 1);
    }

    #[test]
    fn flush_is_a_no_op() {
        let mut c = controller();
        c.access(&MemOp::write(Address::new(0), 5));
        let before = *c.traffic();
        c.flush();
        assert_eq!(*c.traffic(), before);
        assert_eq!(c.name(), "6T");
    }

    #[test]
    fn write_kind_is_recorded_on_op() {
        let op = MemOp::write(Address::new(8), 1);
        assert_eq!(op.kind, AccessKind::Write);
    }
}
