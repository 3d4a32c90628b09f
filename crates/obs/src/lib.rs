//! Observability layer for the cache8t workspace.
//!
//! Three composable pieces, designed so that a fully instrumented
//! controller costs nothing measurable when observability is off:
//!
//! * [`metrics`] — a per-component [`MetricRegistry`] of named
//!   counters, gauges, and [`Log2Histogram`]s. Handles are plain
//!   indexes, increments are inline `u64` adds, and registries merge
//!   at the end of a run into one JSON-serializable snapshot.
//! * [`trace`] — a bounded ring of structured [`TraceEvent`]s gated by
//!   the `CACHE8T_TRACE` environment variable
//!   ([`TraceLevel`]: `off` / `event` / `verbose`), with a JSONL
//!   sink.
//! * [`timeline`] — spans: one RAII [`Span`] guard whose thread-local
//!   recorder feeds both a per-phase self/total profile
//!   ([`SpanStat`], merged across pool workers) and, when enabled, a
//!   wall-clock execution timeline of per-thread tracks serialized as
//!   Chrome trace-event JSON (`chrome://tracing` / Perfetto;
//!   `--timeline-out`). The exec pool's scheduler and the trace store
//!   add instants to the same tracks.
//!
//! Two analysis pieces build on those:
//!
//! * [`perfdiff`] — cross-run regression analysis: flattens two metric
//!   snapshots, aligns metrics by name, and reports deltas against a
//!   threshold (`cache8t perfdiff`).
//! * [`sampler`] — continuous telemetry: a deterministic
//!   op-count-cadence [`Sampler`] turning registry snapshots into
//!   per-window time series, kept in memory or streamed as JSONL
//!   (`--series-out`, `cache8t watch`, `cache8t report-series`).
//!
//! Two smaller pieces round the layer out:
//!
//! * [`progress`] — the throttled [`ProgressLine`] the sweep engine
//!   repaints on a terminal's stderr while a batch runs.
//! * [`oplog`] — a leveled, schema-versioned JSONL *operational* log
//!   for long-lived processes (the serve daemon's accept/submit/
//!   state-transition/shutdown records), filtered via `CACHE8T_LOG`.
//!
//! The simulator threads these through the controller stack: the
//! controllers emit events and metrics, the exec engine times every
//! replay and sweep job with spans, and the CLI exposes `--metrics-out` /
//! `--trace-out` / `--timeline-out`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod oplog;
pub mod perfdiff;
pub mod progress;
pub mod sampler;
pub mod timeline;
pub mod trace;

pub use metrics::{CounterId, GaugeId, HistogramId, Log2Histogram, MetricRegistry};
pub use oplog::{LogLevel, OpLog, OpLogStats, OPLOG_VERSION};
pub use perfdiff::{MetricDelta, PerfDiff};
pub use progress::{ProgressLine, ProgressSnapshot};
pub use sampler::{Sampler, SamplerConfig, SeriesSample};
pub use timeline::{Span, SpanStat, TimelineEvent, TimelinePhase, TimelineSnapshot, TrackSnapshot};
pub use trace::{Component, EventKind, TraceEvent, TraceLevel, Tracer};
