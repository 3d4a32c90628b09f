//! Parallel sweep-execution engine for the cache8t workspace.
//!
//! Three layers, each usable on its own:
//!
//! * [`pool`] — a std-only work-stealing job scheduler
//!   ([`run_jobs`]) with per-job panic isolation
//!   ([`JobOutcome::Failed`] instead of an aborted batch) and bounded
//!   retry.
//! * [`store`] — a generate-once [`TraceStore`]: every job that needs
//!   the trace of a (profile, seed, ops) point shares one in-memory
//!   `Arc<Trace>`, optionally backed by the C8TT on-disk format under
//!   `results/traces/` so repeated invocations skip generation
//!   entirely.
//! * [`sweep`] — declarative [`SweepPlan`]s (workloads × geometries ×
//!   schemes) executed as fine-grained unit jobs and merged back in
//!   plan order, so the serialized sweep document is byte-identical
//!   for every `--jobs` value; [`merge_documents`] reassembles
//!   `--shard i/n` outputs into the unsharded document.
//!
//! The per-benchmark experiment runner itself lives in [`experiment`]
//! (moved here from `cache8t-bench`, which re-exports it): the figure
//! binaries, the sweep engine and the CLI drive every replay through its
//! one driver, [`replay`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod pool;
pub mod store;
pub mod stream;
pub mod sweep;

pub use experiment::{
    average, replay, run_benchmark, run_benchmark_on_trace, run_suite, BenchmarkResult, Ops,
    RunConfig, SchemeKind, SchemeResult,
};
pub use pool::{
    run_jobs, run_jobs_cancellable, CancelToken, ExecOptions, ExecReport, JobOutcome, JobProgress,
    WorkerSample, WorkerStats,
};
pub use store::{
    StoreStats, StreamCursor, TraceStore, TraceStream, DEFAULT_STORE_DIR, SHARED_WINDOW_CHUNKS,
    STORE_ENV_VAR,
};
pub use stream::{ChunkSource, PrefetchedChunks};
pub use sweep::{
    document_with_benchmarks, merge_documents, metrics_document, run_suites, run_sweep,
    to_document, BenchmarkEvent, BenchmarkHook, GeometryPoint, GeometrySweep, ProgressHook, Shard,
    SweepFailure, SweepOptions, SweepOutcome, SweepPlan,
};
