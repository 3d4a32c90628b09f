//! The RMW baseline controller.

use cache8t_obs::{Component, CounterId, EventKind, HistogramId};
use cache8t_sim::{CacheGeometry, ReplacementKind};
use cache8t_trace::DecodedOp;

use crate::controller::{AccessCost, AccessResponse, CacheBackend, Controller};
use crate::obs::StackObs;

/// The 8T baseline: every write is a read-modify-write (paper §2).
///
/// Bit interleaving makes a partial-row write unsafe on 8T cells, so Morita
/// et al.'s RMW reads the addressed row into latches, merges the stored
/// word, and writes the whole row back. Functionally this controller is
/// identical to [`ConventionalController`]; it differs only in cost: each
/// store performs **two** row activations (one read + one write) and
/// occupies the read port, which is exactly the inefficiency the paper's
/// WG/WG+RB techniques attack.
///
/// [`ConventionalController`]: crate::ConventionalController
///
/// # Example
///
/// ```
/// use cache8t_core::{Controller, RmwController};
/// use cache8t_sim::{Address, CacheGeometry, ReplacementKind};
/// use cache8t_trace::MemOp;
///
/// let mut c = RmwController::new(CacheGeometry::paper_baseline(), ReplacementKind::Lru);
/// c.access(&MemOp::write(Address::new(0x40), 7));
/// assert_eq!(c.array_accesses(), 2); // row read + row write
/// assert_eq!(c.traffic().rmw_ops, 1);
/// ```
#[derive(Debug)]
pub struct RmwController {
    backend: CacheBackend,
    metrics: RmwMetrics,
    /// Row (set index) of the in-flight write burst, if any.
    burst_row: Option<u64>,
    /// Consecutive same-row RMW writes in the in-flight burst.
    burst_len: u64,
    /// Address of the burst's first write (stamped on the burst event).
    burst_addr: u64,
}

/// Handles of the RMW metrics counted where their events happen
/// (`rmw.ops` and `rmw.read_phases` are derived from the ledger).
#[derive(Debug, Clone, Copy)]
struct RmwMetrics {
    /// `rmw.sequences` — bursts of consecutive same-row RMW writes.
    sequences: CounterId,
    /// `rmw.burst` — burst-size distribution: how many consecutive
    /// writes hit the same row (exactly the runs WG would group).
    burst: HistogramId,
}

impl RmwMetrics {
    fn register(obs: &mut StackObs) -> Self {
        let sequences = obs.registry_mut().counter("rmw.sequences");
        obs.mirror("rmw.ops");
        obs.mirror("rmw.read_phases");
        RmwMetrics {
            sequences,
            burst: obs.registry_mut().histogram("rmw.burst"),
        }
    }
}

impl RmwController {
    /// Creates an empty RMW controller.
    pub fn new(geometry: CacheGeometry, replacement: ReplacementKind) -> Self {
        RmwController::from_backend(CacheBackend::new(geometry, replacement))
    }

    /// Creates a controller over an existing backend (e.g. one built with
    /// [`CacheBackend::with_l2`]).
    pub fn from_backend(mut backend: CacheBackend) -> Self {
        let metrics = RmwMetrics::register(backend.obs_mut());
        RmwController {
            backend,
            metrics,
            burst_row: None,
            burst_len: 0,
            burst_addr: 0,
        }
    }

    /// Closes the in-flight write burst: one `rmw.sequences` count, one
    /// `rmw.burst` observation, one `RmwSequence` event.
    fn close_burst(&mut self) {
        if self.burst_len == 0 {
            return;
        }
        let obs = self.backend.obs_mut();
        obs.inc(self.metrics.sequences);
        obs.observe(self.metrics.burst, self.burst_len);
        self.backend.emit(
            Component::Rmw,
            EventKind::RmwSequence,
            self.burst_addr,
            self.burst_len,
        );
        self.burst_row = None;
        self.burst_len = 0;
    }
}

impl Controller for RmwController {
    fn backend(&self) -> &CacheBackend {
        &self.backend
    }

    fn backend_mut(&mut self) -> &mut CacheBackend {
        &mut self.backend
    }

    fn name(&self) -> &'static str {
        "RMW"
    }

    /// The write path's burst row is the pre-decoded set index.
    #[inline]
    fn serve(&mut self, d: DecodedOp) -> AccessResponse {
        let probed = self.backend.cache().find_in_set(d.set, d.tag);
        let residency = self.backend.ensure_resident_probed(d.addr, probed);
        let (value, cost) = if d.is_read() {
            // A read breaks the run of consecutive same-row writes.
            self.close_burst();
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
            // RMW: read row into the write-back latches (extra read), then
            // write the merged row.
            let row = d.set;
            if self.burst_row != Some(row) {
                self.close_burst();
                self.burst_row = Some(row);
                self.burst_addr = d.addr.raw();
            }
            self.burst_len += 1;
            let silent =
                self.backend
                    .cache_mut()
                    .write_word_at(d.set, residency.way, d.word, d.value);
            self.backend.record_write(residency.hit, silent);
            let traffic = self.backend.traffic_mut();
            traffic.rmw_read_phases += 1;
            traffic.demand_writes += 1;
            traffic.rmw_ops += 1;
            (
                d.value,
                AccessCost {
                    row_reads: 1,
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

    /// No buffered data, but an in-flight burst observation to settle.
    fn drain(&mut self) {
        self.close_burst();
    }

    /// The in-flight burst is dropped unobserved.
    fn reset_scheme_counters(&mut self) {
        self.burst_row = None;
        self.burst_len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConventionalController;
    use cache8t_sim::Address;
    use cache8t_trace::MemOp;

    fn geometry() -> CacheGeometry {
        CacheGeometry::new(1024, 2, 32).unwrap()
    }

    #[test]
    fn writes_cost_two_activations() {
        let mut c = RmwController::new(geometry(), ReplacementKind::Lru);
        let r = c.access(&MemOp::write(Address::new(0x40), 1));
        assert_eq!(r.cost.total(), 2);
        assert_eq!(c.array_accesses(), 2);
        assert_eq!(c.traffic().rmw_read_phases, 1);
        assert_eq!(c.traffic().rmw_ops, 1);
    }

    #[test]
    fn reads_cost_one_activation() {
        let mut c = RmwController::new(geometry(), ReplacementKind::Lru);
        let r = c.access(&MemOp::read(Address::new(0x40)));
        assert_eq!(r.cost.total(), 1);
        assert_eq!(c.array_accesses(), 1);
    }

    #[test]
    fn traffic_increase_over_conventional_matches_write_share() {
        // A stream of 65% reads / 35% writes should cost RMW ~35% more
        // activations than the conventional controller (paper motivation).
        let mut rmw = RmwController::new(geometry(), ReplacementKind::Lru);
        let mut conv = ConventionalController::new(geometry(), ReplacementKind::Lru);
        let mut value = 0u64;
        for i in 0..1000u64 {
            let addr = Address::new((i % 32) * 8);
            let op = if i % 20 < 13 {
                MemOp::read(addr)
            } else {
                value += 1;
                MemOp::write(addr, value)
            };
            rmw.access(&op);
            conv.access(&op);
        }
        let increase = rmw.array_accesses() as f64 / conv.array_accesses() as f64 - 1.0;
        assert!((increase - 0.35).abs() < 0.01, "increase {increase}");
    }

    #[test]
    fn functionally_identical_to_conventional() {
        let mut rmw = RmwController::new(geometry(), ReplacementKind::Lru);
        let mut conv = ConventionalController::new(geometry(), ReplacementKind::Lru);
        for i in 0..500u64 {
            let addr = Address::new((i * 40) % 4096);
            let op = if i % 3 == 0 {
                MemOp::write(addr, i)
            } else {
                MemOp::read(addr)
            };
            let a = rmw.access(&op);
            let b = conv.access(&op);
            assert_eq!(a.value, b.value, "op {i}");
            assert_eq!(a.hit, b.hit, "op {i}");
        }
        assert_eq!(rmw.cache().evictions(), conv.cache().evictions());
        assert_eq!(
            rmw.cache().dirty_evictions(),
            conv.cache().dirty_evictions()
        );
    }

    #[test]
    fn burst_metrics_track_same_row_write_runs() {
        let mut c = RmwController::new(geometry(), ReplacementKind::Lru);
        let a = Address::new(0x40);
        // Three writes to one row, a read, then one write to another row.
        c.access(&MemOp::write(a, 1));
        c.access(&MemOp::write(a.offset(8), 2));
        c.access(&MemOp::write(a.offset(16), 3));
        c.access(&MemOp::read(a)); // closes the 3-write burst
        c.access(&MemOp::write(Address::new(0x4000), 4));
        c.flush(); // closes the 1-write burst
        let reg = c.obs().unwrap().registry();
        assert_eq!(reg.counter_by_name("rmw.ops"), Some(4));
        assert_eq!(reg.counter_by_name("rmw.read_phases"), Some(4));
        assert_eq!(reg.counter_by_name("rmw.sequences"), Some(2));
        let hist = reg.histogram_by_name("rmw.burst").unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum(), 4);
        assert_eq!(hist.max(), Some(3));
    }

    #[test]
    fn name_and_flush() {
        let mut c = RmwController::new(geometry(), ReplacementKind::Lru);
        assert_eq!(c.name(), "RMW");
        c.flush();
        assert_eq!(c.array_accesses(), 0);
    }
}
