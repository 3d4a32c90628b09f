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
//! * [`span`] — RAII wall-clock span timers
//!   ([`span!`](crate::span!)) accumulating per-phase self/total time
//!   in a thread-local profiler.
//!
//! Two analysis pieces build on those:
//!
//! * [`timeline`] — wall-clock execution timelines: per-thread event
//!   buffers serialized as Chrome trace-event JSON
//!   (`chrome://tracing` / Perfetto), fed by the span profiler, the
//!   exec pool's scheduler, and the trace store
//!   (`--timeline-out` on the CLI and harness binaries).
//! * [`perfdiff`] — cross-run regression analysis: flattens two metric
//!   snapshots, aligns metrics by name, and reports deltas against a
//!   threshold (`cache8t perfdiff`).
//! * [`sampler`] — continuous telemetry: a deterministic
//!   op-count-cadence [`Sampler`] turning registry snapshots into
//!   bounded, JSONL-streamed per-window time series (`--series-out`,
//!   `cache8t watch`, `cache8t report-series`).
//!
//! Two smaller pieces round the layer out:
//!
//! * [`progress`] — the TTY-aware throttled [`ProgressLine`] the sweep
//!   engine repaints while a batch runs.
//! * [`oplog`] — a leveled, schema-versioned JSONL *operational* log
//!   for long-lived processes (the serve daemon's accept/submit/
//!   state-transition/shutdown records), filtered via `CACHE8T_LOG`.
//!
//! The simulator threads these through the controller stack: WG/WG+RB
//! and RMW controllers and the SRAM array emit events and metrics, the
//! bench harness snapshots registries into experiment results, and the
//! CLI exposes `--metrics-out` / `--trace-out` / `--timeline-out`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod oplog;
pub mod perfdiff;
pub mod progress;
pub mod sampler;
pub mod span;
pub mod timeline;
pub mod trace;

pub use metrics::{CounterId, GaugeId, HistogramId, Log2Histogram, MetricRegistry};
pub use oplog::{LogLevel, OpLog, OpLogStats, OPLOG_VERSION};
pub use perfdiff::{MetricDelta, PerfDiff};
pub use progress::{ProgressLine, ProgressMode, ProgressSnapshot};
pub use sampler::{Sampler, SamplerConfig, SeriesSample};
pub use span::{SpanGuard, SpanStat};
pub use timeline::{TimelineEvent, TimelinePhase, TimelineSnapshot, TimelineSpan, TrackSnapshot};
pub use trace::{Component, EventKind, EventRing, TraceEvent, TraceLevel, Tracer};
