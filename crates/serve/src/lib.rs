//! Sweep-as-a-service: a std-only daemon that runs [`cache8t_exec`]
//! sweeps for socket clients, with resumable checkpointed jobs.
//!
//! Four layers:
//!
//! * [`protocol`] — the versioned JSONL line protocol (`submit`,
//!   `status`, `results`, `watch`, `cancel`, `health`, `metrics`,
//!   `shutdown`) with structured `{code, message}` errors for every
//!   malformed request. `health` and `metrics` are read-only
//!   observability verbs: a liveness summary, and the daemon's full
//!   metric registry (renderable as Prometheus text via
//!   [`client::render_metrics_text`]).
//! * [`journal`] — the append-only checkpoint journal: one line per
//!   completed benchmark, flushed as it lands, read once and replayed
//!   on restart ([`Journal::resume`]) so an interrupted sweep re-runs
//!   only its missing slots. A torn final line (a crash mid-append) or
//!   a line that fails validation is cut away with everything after
//!   it, and those slots re-run.
//! * [`state`] — the job registry, the per-job event log `watch`
//!   streams from (each row stored as its serialized wire line), and the single-executor runner that multiplexes
//!   every client's jobs onto one job pool and one
//!   [`TraceStore`](cache8t_exec::TraceStore). The daemon keeps no
//!   trace in memory between jobs: `--trace-store DIR` is the cache
//!   across jobs, and without it every job generates its traces.
//! * [`server`] / [`client`] — the socket front-ends (TCP or unix
//!   domain, `unix:` prefix), thread-per-connection, and the blocking
//!   client the `cache8t client` subcommand and the tests drive. A
//!   session reads each request line as bytes and never holds more of
//!   it than [`MAX_REQUEST_LINE`]; TCP sessions send every answer at
//!   once (`TCP_NODELAY`). [`Client::wait_for_results`] follows a job's
//!   `watch` stream to its end, then fetches the document.
//!
//! A panic while one of the daemon's locks is held does not poison it:
//! every lock site takes the guard back, so later requests still
//! answer.
//!
//! The headline invariant, inherited from the engine and enforced by
//! the service tests: a sweep submitted over the socket — even one
//! interrupted by `kill -9` and resumed from its journal by a fresh
//! server — produces a document byte-identical to a one-shot
//! `cache8t sweep` run of the same plan.
//!
//! The daemon is also observable in production terms: every state
//! change emits a schema-versioned JSONL record through
//! [`cache8t_obs::OpLog`], job lifecycles land as spans/instants in
//! the [`cache8t_obs::timeline`], and `watch` streams carry ring
//! sequence numbers so [`client::watch_resumable`] can reconnect
//! after a transport drop without replaying delivered events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod state;

pub use client::{render_metrics_text, watch_resumable, Client, ClientError};
pub use journal::{journal_path, plan_fingerprint, Journal, Resume};
pub use protocol::{
    codes, ok_response, parse_request, request_line, PlanSpec, ProtocolError, Request,
    PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server, MAX_REQUEST_LINE, UNIX_PREFIX};
pub use state::{JobPhase, JobState, ServerState, EVENT_RING_CAPACITY};
