//! The per-controller-stack observability bundle.
//!
//! Every [`CacheBackend`](crate::CacheBackend) owns one [`StackObs`]: a
//! metric registry and an event tracer. The backend also keeps the
//! stack's two ledgers, the request [`CacheStats`] and the
//! [`ArrayTraffic`], and they hold the only copy of each count:
//!
//! - The [`MIRRORED`] registry counters (`ctrl.reads`/`writes`,
//!   `cache.line_fills`/`evictions`/`dirty_evictions`, seven `wg.*`,
//!   `rmw.ops`/`read_phases`, `coalesce.silent_suppressed`/
//!   `forwarded_reads`) are never incremented. The backend sets each one
//!   from its ledger expression at the end of every
//!   [`Controller::access`], `access_batch` and `flush`, so a reader of
//!   [`Controller::obs`] between those calls sees current values.
//! - The counters without a ledger twin are counted where their events
//!   happen: `rmw.sequences`, `coalesce.deposits`, the
//!   `series.set_heat.NN` conflict-heat buckets, and every histogram.
//! - Events are stamped with the request tick, the number of requests
//!   serviced since the last reset ([`CacheStats::accesses`]).
//!
//! Controllers register their scheme-specific metrics against the
//! bundle at construction time and emit events through the backend on
//! structural transitions (buffer fills, group flushes, RMW sequences,
//! …); the backend itself reports line fills and evictions. Event
//! recording is gated by [`TraceLevel`] (the `CACHE8T_TRACE`
//! environment variable), so a disabled tracer costs one enum compare
//! per emission site.
//!
//! [`ArrayTraffic`]: crate::ArrayTraffic
//! [`CacheStats`]: cache8t_sim::CacheStats
//! [`CacheStats::accesses`]: cache8t_sim::CacheStats::accesses
//! [`Controller::access`]: crate::Controller::access
//! [`Controller::obs`]: crate::Controller::obs

use cache8t_obs::{CounterId, HistogramId, MetricRegistry, TraceLevel, Tracer};
use cache8t_sim::CacheStats;

use crate::ArrayTraffic;

/// Number of coarse set-index buckets the conflict-heat counters
/// (`series.set_heat.NN`) partition the set space into.
pub const SET_HEAT_BUCKETS: usize = 16;

/// The registry counters derived from the backend's ledgers instead of
/// counted, in the order [`mirrored_values`] computes them. Every stack
/// carries the first five; a controller registers the ones of its own
/// scheme with [`StackObs::mirror`].
const MIRRORED: [&str; 16] = [
    "ctrl.reads",
    "ctrl.writes",
    "cache.line_fills",
    "cache.evictions",
    "cache.dirty_evictions",
    "wg.groups",
    "wg.writebacks",
    "wg.premature_writebacks",
    "wg.silent_suppressed",
    "wg.buffer_fills",
    "wg.grouped_writes",
    "wg.bypassed_reads",
    "rmw.ops",
    "rmw.read_phases",
    "coalesce.silent_suppressed",
    "coalesce.forwarded_reads",
];

/// The value of each [`MIRRORED`] counter, in that order, from the
/// request statistics, the traffic ledger and the L1's own statistics:
/// the one place those counters are defined.
fn mirrored_values(
    requests: &CacheStats,
    traffic: &ArrayTraffic,
    l1: &CacheStats,
) -> [u64; MIRRORED.len()] {
    let t = traffic;
    [
        requests.reads(),
        requests.writes(),
        t.line_fills,
        // The L1's own counts: for the coalescing buffer,
        // `eviction_writebacks` also counts write-around deposits.
        l1.evictions,
        l1.dirty_evictions,
        // wg.*: a closed group is written back or elided.
        t.writebacks + t.silent_writebacks_elided,
        t.writebacks,
        t.premature_writebacks,
        t.silent_writebacks_elided,
        t.buffer_fills,
        t.grouped_writes,
        t.bypassed_reads,
        // rmw.*
        t.rmw_ops,
        t.rmw_read_phases,
        // coalesce.*
        t.silent_writebacks_elided,
        t.bypassed_reads,
    ]
}

/// Metric registry + tracer for one controller stack.
#[derive(Debug)]
pub struct StackObs {
    registry: MetricRegistry,
    tracer: Tracer,
    /// The handle of each [`MIRRORED`] counter, once registered.
    mirrors: [Option<CounterId>; MIRRORED.len()],
    m_set_heat: [CounterId; SET_HEAT_BUCKETS],
}

impl StackObs {
    /// Creates a bundle with the tracer at an explicit level.
    pub fn with_level(level: TraceLevel) -> Self {
        let mut registry = MetricRegistry::new();
        let mut mirrors = [None; MIRRORED.len()];
        for (handle, name) in mirrors.iter_mut().zip(&MIRRORED[..5]) {
            *handle = Some(registry.counter(name));
        }
        let m_set_heat =
            std::array::from_fn(|bucket| registry.counter(&format!("series.set_heat.{bucket:02}")));
        StackObs {
            registry,
            tracer: Tracer::new(level, cache8t_obs::trace::DEFAULT_RING_CAPACITY),
            mirrors,
            m_set_heat,
        }
    }

    /// Creates a bundle at the `CACHE8T_TRACE` level.
    pub fn from_env() -> Self {
        StackObs::with_level(TraceLevel::from_env())
    }

    /// The metric registry.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Mutable access to the registry (for controllers registering
    /// scheme-specific metrics).
    pub fn registry_mut(&mut self) -> &mut MetricRegistry {
        &mut self.registry
    }

    /// The event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable access to the tracer.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.registry.inc(id);
    }

    /// Registers the [`MIRRORED`] counter `name`: the backend sets it
    /// from its ledgers from then on.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`MIRRORED`].
    pub(crate) fn mirror(&mut self, name: &str) {
        let index = MIRRORED
            .iter()
            .position(|m| *m == name)
            .unwrap_or_else(|| panic!("{name} is not derived from the ledgers"));
        self.mirrors[index] = Some(self.registry.counter(name));
    }

    /// Sets every registered [`MIRRORED`] counter from the ledgers.
    #[inline]
    pub(crate) fn refresh(
        &mut self,
        requests: &CacheStats,
        traffic: &ArrayTraffic,
        l1: &CacheStats,
    ) {
        let values = mirrored_values(requests, traffic, l1);
        for (handle, &value) in self.mirrors.iter().zip(&values) {
            if let Some(id) = *handle {
                self.registry.set_counter(id, value);
            }
        }
    }

    /// Records one line fill landing in set-heat `bucket` (a
    /// [`CacheGeometry::heat_bucket_of`] result) — the windowed
    /// set-conflict-heat counters the series sampler diffs.
    ///
    /// [`CacheGeometry::heat_bucket_of`]:
    /// cache8t_sim::CacheGeometry::heat_bucket_of
    #[inline]
    pub(crate) fn record_set_heat(&mut self, bucket: usize) {
        let id = self.m_set_heat[bucket];
        self.registry.inc(id);
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.registry.observe(id, value);
    }

    /// Resets metric values and recorded events, keeping registrations
    /// (and handles) valid. Called by
    /// [`Controller::reset_counters`](crate::Controller::reset_counters)
    /// so the snapshot covers only the measured phase.
    pub fn reset(&mut self) {
        self.registry.reset();
        self.tracer.clear();
    }
}

impl Default for StackObs {
    fn default() -> Self {
        StackObs::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_metrics_are_preregistered() {
        let obs = StackObs::with_level(TraceLevel::Off);
        for name in [
            "ctrl.reads",
            "ctrl.writes",
            "cache.line_fills",
            "cache.evictions",
            "cache.dirty_evictions",
        ] {
            assert_eq!(obs.registry().counter_by_name(name), Some(0), "{name}");
        }
    }

    #[test]
    fn set_heat_buckets_are_preregistered_and_count() {
        let mut obs = StackObs::with_level(TraceLevel::Off);
        assert_eq!(
            obs.registry().counter_by_name("series.set_heat.00"),
            Some(0)
        );
        assert_eq!(
            obs.registry().counter_by_name("series.set_heat.15"),
            Some(0)
        );
        obs.record_set_heat(0);
        obs.record_set_heat(0);
        obs.record_set_heat(15);
        assert_eq!(
            obs.registry().counter_by_name("series.set_heat.00"),
            Some(2)
        );
        assert_eq!(
            obs.registry().counter_by_name("series.set_heat.15"),
            Some(1)
        );
    }

    #[test]
    fn mirrors_are_set_only_once_registered() {
        let mut obs = StackObs::with_level(TraceLevel::Off);
        let requests = CacheStats {
            read_hits: 2,
            read_misses: 1,
            ..CacheStats::new()
        };
        let traffic = ArrayTraffic {
            rmw_ops: 4,
            ..ArrayTraffic::new()
        };
        obs.refresh(&requests, &traffic, &CacheStats::new());
        assert_eq!(obs.registry().counter_by_name("ctrl.reads"), Some(3));
        assert_eq!(obs.registry().counter_by_name("rmw.ops"), None);
        obs.mirror("rmw.ops");
        obs.refresh(&requests, &traffic, &CacheStats::new());
        assert_eq!(obs.registry().counter_by_name("rmw.ops"), Some(4));
    }

    #[test]
    #[should_panic(expected = "rmw.sequences is not derived")]
    fn counted_metrics_cannot_be_mirrored() {
        StackObs::with_level(TraceLevel::Off).mirror("rmw.sequences");
    }
}
