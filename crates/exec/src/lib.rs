//! Parallel sweep-execution engine for the cache8t workspace.
//!
//! Three layers, each usable on its own:
//!
//! * [`pool`] — a std-only job scheduler ([`run_jobs`]) whose workers
//!   take jobs in submission order from one shared cursor, with per-job
//!   panic isolation: a panicking job runs once and becomes a
//!   [`JobOutcome::Failed`] instead of an aborted batch.
//! * [`store`] — the [`TraceStore`] a job opens its trace from: one
//!   pass over the generator, cut into chunks or whole, optionally
//!   backed by the C8TT on-disk format under `results/traces/` so later
//!   opens and repeated invocations skip generation entirely. It keeps
//!   no trace in memory between opens.
//! * [`sweep`] — declarative [`SweepPlan`]s (workloads × geometries ×
//!   schemes) executed as one job per profile, which replays the
//!   profile's trace in a single pass through every selected geometry
//!   and scheme, and merged back in plan order, so the serialized sweep
//!   document is byte-identical for every `--jobs` value;
//!   [`merge_documents`] reassembles `--shard i/n` outputs into the
//!   unsharded document.
//!
//! [`experiment`] holds the one replay loop, a lane that sweep jobs
//! feed chunk by chunk; [`replay`] — behind the CLI and the harness
//! binaries — is one lane fed a whole stream, and [`run_sweep`] is the
//! only producer of [`BenchmarkResult`]s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod pool;
pub mod store;
pub mod stream;
pub mod sweep;

pub use experiment::{average, replay, BenchmarkResult, Ops, RunConfig, SchemeKind, SchemeResult};
pub use pool::{
    run_jobs, CancelToken, ExecOptions, ExecReport, JobOutcome, JobProgress, WorkerStats,
};
pub use store::{StoreStats, TraceSource, TraceStore, DEFAULT_STORE_DIR, STORE_ENV_VAR};
pub use stream::{ChunkSource, PrefetchedChunks};
pub use sweep::{
    document_with_benchmarks, merge_documents, metrics_document, run_suites, run_sweep,
    to_document, BenchmarkEvent, BenchmarkHook, GeometryPoint, GeometrySweep, ProgressHook, Shard,
    SweepFailure, SweepOptions, SweepOutcome, SweepPlan,
};
