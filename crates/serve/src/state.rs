//! Server-side job state: the registry, the event log watchers follow,
//! and the single-executor sweep runner with checkpoint resume.
//!
//! Jobs run one at a time on a dedicated executor thread — each sweep
//! already saturates the host through the job pool, so running two
//! concurrently would only fight over cores. Clients
//! multiplex freely: submits queue, and `status`/`watch`/`results`
//! answer from shared state at any time. Every job opens its traces
//! from the server's one [`TraceStore`], which keeps no trace in memory
//! between jobs: a daemon started with `--trace-store DIR` reads the
//! traces earlier jobs wrote there instead of generating them again,
//! and without it every job generates its own.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use serde_json::Value;

use cache8t_exec::{
    document_with_benchmarks, metrics_document, run_sweep, BenchmarkHook, CancelToken, ExecOptions,
    ProgressHook, SweepOptions, SweepPlan, TraceStore,
};
use cache8t_obs::{timeline, MetricRegistry, OpLog, ProgressSnapshot, SamplerConfig, Span};

use crate::journal::{journal_dir_stats, plan_fingerprint, Journal};
use crate::protocol::{ok_response, PlanSpec, PROTOCOL_VERSION};

/// Bound on each job's event ring. Watchers that keep up see every
/// event; a watcher that falls this far behind (or attaches late) gets
/// the ring's suffix plus the authoritative terminal state.
pub const EVENT_RING_CAPACITY: usize = 4096;

/// Takes `mutex`, recovering the guard if a thread panicked while
/// holding it. Every update under these locks is one assignment, push
/// or pop, which leaves the value whole, so one panicking hook or
/// handler does not take every later request down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a job is in its lifecycle.
#[derive(Debug)]
pub enum JobPhase {
    /// Waiting for the executor.
    Queued,
    /// On the executor now.
    Running,
    /// Finished; the document is the same bytes a batch run emits.
    Completed {
        /// The canonical sweep document.
        document: Value,
        /// Scheduler telemetry for the (possibly resumed) run.
        metrics: Value,
    },
    /// At least one sweep job panicked or returned an error.
    Failed {
        /// The failure summary.
        message: String,
    },
    /// The cancel token fired; completed benchmarks stay journalled,
    /// so a resubmit of the same plan resumes instead of restarting.
    Cancelled,
}

impl JobPhase {
    /// The wire name of this phase.
    pub fn state_name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed { .. } => "completed",
            JobPhase::Failed { .. } => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobPhase::Completed { .. } | JobPhase::Failed { .. } | JobPhase::Cancelled
        )
    }
}

/// The mutable half of a job, behind its lock.
#[derive(Debug)]
pub struct JobInner {
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Latest pool progress, once the job is running.
    pub progress: Option<ProgressSnapshot>,
    /// Benchmarks restored from the checkpoint journal at start.
    pub restored: usize,
    /// Bounded ring of (sequence, wire line) pairs for `watch`: each
    /// row is serialized once, when it is pushed.
    events: VecDeque<(u64, Arc<str>)>,
    next_seq: u64,
}

/// One submitted sweep.
#[derive(Debug)]
pub struct JobState {
    /// Stable id (`job-N`).
    pub id: String,
    /// The resolved plan.
    pub plan: SweepPlan,
    /// The spec as submitted (echoed in `status`).
    pub spec: PlanSpec,
    /// Checkpoint-journal fingerprint of the plan.
    pub fingerprint: String,
    /// Fires to drain this job's queued sweep jobs.
    pub cancel: CancelToken,
    inner: Mutex<JobInner>,
    wakeup: Condvar,
}

impl JobState {
    fn new(id: String, plan: SweepPlan, spec: PlanSpec) -> Self {
        let fingerprint = plan_fingerprint(&plan, spec.series_cadence);
        JobState {
            id,
            plan,
            spec,
            fingerprint,
            cancel: CancelToken::new(),
            inner: Mutex::new(JobInner {
                phase: JobPhase::Queued,
                progress: None,
                restored: 0,
                events: VecDeque::new(),
                next_seq: 1,
            }),
            wakeup: Condvar::new(),
        }
    }

    /// Appends an event row and wakes watchers. The row is stored as
    /// the `watch` wire line it becomes, an `ok_response` object
    /// carrying the job id and its ring sequence number in-band
    /// (`"seq"`), which is what lets a disconnected watcher resume with
    /// `watch {"after": seq}` without replaying events it already saw.
    pub fn push_event(&self, row: Vec<(String, Value)>) {
        let mut inner = lock(&self.inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let mut fields = vec![
            ("job".to_owned(), Value::Str(self.id.clone())),
            ("seq".to_owned(), Value::U64(seq)),
        ];
        fields.extend(row);
        let line = serde_json::to_string(&ok_response(fields)).expect("event rows serialize");
        if inner.events.len() == EVENT_RING_CAPACITY {
            inner.events.pop_front();
        }
        inner.events.push_back((seq, Arc::from(line)));
        drop(inner);
        self.wakeup.notify_all();
    }

    fn set_phase(&self, phase: JobPhase) {
        let state = phase.state_name();
        lock(&self.inner).phase = phase;
        self.push_event(vec![
            ("event".to_owned(), Value::Str("state".to_owned())),
            ("state".to_owned(), Value::Str(state.to_owned())),
        ]);
    }

    fn set_progress(&self, snapshot: ProgressSnapshot) {
        lock(&self.inner).progress = Some(snapshot);
        self.push_event(vec![
            ("event".to_owned(), Value::Str("progress".to_owned())),
            ("progress".to_owned(), snapshot.to_value()),
        ]);
    }

    /// The `status` summary object for this job.
    pub fn summary(&self) -> Value {
        let inner = lock(&self.inner);
        let mut fields = vec![
            ("id".to_owned(), Value::Str(self.id.clone())),
            (
                "state".to_owned(),
                Value::Str(inner.phase.state_name().to_owned()),
            ),
            (
                "fingerprint".to_owned(),
                Value::Str(self.fingerprint.clone()),
            ),
            ("plan".to_owned(), self.spec.to_value()),
            ("restored".to_owned(), Value::U64(inner.restored as u64)),
        ];
        if let Some(progress) = &inner.progress {
            fields.push(("progress".to_owned(), progress.to_value()));
        }
        if let JobPhase::Failed { message } = &inner.phase {
            fields.push(("message".to_owned(), Value::Str(message.clone())));
        }
        if let JobPhase::Completed { metrics, .. } = &inner.phase {
            fields.push(("metrics".to_owned(), metrics.clone()));
        }
        Value::Object(fields)
    }

    /// The completed document, if the job is done.
    pub fn document(&self) -> Option<Value> {
        match &lock(&self.inner).phase {
            JobPhase::Completed { document, .. } => Some(document.clone()),
            _ => None,
        }
    }

    /// The phase's wire name right now.
    pub fn state_name(&self) -> &'static str {
        lock(&self.inner).phase.state_name()
    }

    /// Collects the wire lines (no trailing newline) of event rows with
    /// sequence numbers beyond `after`, returning `(lines, last_seq,
    /// terminal)`. When `terminal` is true the job will emit no further
    /// events.
    pub fn events_after(&self, after: u64) -> (Vec<Arc<str>>, u64, bool) {
        let inner = lock(&self.inner);
        let mut last = after;
        let lines = inner
            .events
            .iter()
            .filter(|(seq, _)| *seq > after)
            .map(|(seq, line)| {
                last = last.max(*seq);
                Arc::clone(line)
            })
            .collect();
        (lines, last, inner.phase.is_terminal())
    }

    /// Blocks until the job has events past `after`, goes terminal, or
    /// `timeout` passes.
    pub fn wait_for_events(&self, after: u64, timeout: Duration) {
        let inner = lock(&self.inner);
        if inner.next_seq > after + 1 || inner.phase.is_terminal() {
            return;
        }
        let _unused = self
            .wakeup
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Everything the connection handlers and the executor share.
#[derive(Debug)]
pub struct ServerState {
    jobs: Mutex<Vec<Arc<JobState>>>,
    queue: Mutex<VecDeque<Arc<JobState>>>,
    queue_wakeup: Condvar,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    started: Instant,
    /// Operational metrics: `serve.*` counters, per-verb request and
    /// latency histograms, journal/uptime gauges. The `metrics` verb
    /// snapshots this registry verbatim.
    metrics: Mutex<MetricRegistry>,
    /// The structured operational log every daemon event lands in.
    pub oplog: Arc<OpLog>,
    /// Pool configuration every job runs with.
    pub exec: ExecOptions,
    /// The trace store every job opens its traces from (no trace stays
    /// in memory between jobs).
    pub store: Arc<TraceStore>,
    /// Journal directory; `None` disables checkpointing (and resume).
    pub checkpoint_dir: Option<PathBuf>,
    /// Streamed-replay chunk size every job runs with (`None`:
    /// materialize traces). Documents are byte-identical either way.
    pub stream_chunk_ops: Option<usize>,
}

impl ServerState {
    /// Fresh state around a trace store and pool configuration.
    pub fn new(
        exec: ExecOptions,
        store: Arc<TraceStore>,
        checkpoint_dir: Option<PathBuf>,
        oplog: Arc<OpLog>,
        stream_chunk_ops: Option<usize>,
    ) -> Self {
        ServerState {
            jobs: Mutex::new(Vec::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
            started: Instant::now(),
            metrics: Mutex::new(MetricRegistry::new()),
            oplog,
            exec,
            store,
            checkpoint_dir,
            stream_chunk_ops,
        }
    }

    /// Bumps a `serve.*` counter.
    pub fn count(&self, name: &str) {
        let mut metrics = lock(&self.metrics);
        let id = metrics.counter(name);
        metrics.inc(id);
    }

    /// Reads a counter back (0 if it was never bumped).
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.metrics).counter_by_name(name).unwrap_or(0)
    }

    /// Records one handled request: bumps the verb's request counter
    /// and feeds its latency histogram (`serve.verb.<verb>.requests` /
    /// `.latency_us`).
    pub fn observe_verb(&self, verb: &str, latency_us: u64) {
        let mut metrics = lock(&self.metrics);
        let requests = metrics.counter(&format!("serve.verb.{verb}.requests"));
        metrics.inc(requests);
        let latency = metrics.histogram(&format!("serve.verb.{verb}.latency_us"));
        metrics.observe(latency, latency_us);
    }

    /// Milliseconds since this server state was created.
    pub fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Jobs waiting for the executor right now.
    pub fn queue_depth(&self) -> usize {
        lock(&self.queue).len()
    }

    /// Job counts per lifecycle phase, in a fixed order.
    pub fn phase_counts(&self) -> [(&'static str, u64); 5] {
        let mut counts = [
            ("queued", 0u64),
            ("running", 0),
            ("completed", 0),
            ("failed", 0),
            ("cancelled", 0),
        ];
        for job in lock(&self.jobs).iter() {
            let name = job.state_name();
            if let Some(slot) = counts.iter_mut().find(|(n, _)| *n == name) {
                slot.1 += 1;
            }
        }
        counts
    }

    /// `true` once shutdown was requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown and wakes the executor.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.oplog.info(
            "shutdown",
            None,
            vec![(
                "queue_depth".to_owned(),
                Value::U64(self.queue_depth() as u64),
            )],
        );
        timeline::instant("shutdown requested", "job");
        // A running sweep drains promptly; its journal keeps progress.
        for job in lock(&self.jobs).iter() {
            job.cancel.cancel();
        }
        self.queue_wakeup.notify_all();
    }

    /// Admits a job: registers it, queues it, returns it.
    pub fn submit(&self, plan: SweepPlan, spec: PlanSpec) -> Arc<JobState> {
        let n = self.next_job.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(JobState::new(format!("job-{n}"), plan, spec));
        lock(&self.jobs).push(Arc::clone(&job));
        lock(&self.queue).push_back(Arc::clone(&job));
        self.queue_wakeup.notify_all();
        self.count("serve.jobs_submitted");
        self.oplog.info(
            "submit",
            Some(&job.id),
            vec![
                (
                    "fingerprint".to_owned(),
                    Value::Str(job.fingerprint.clone()),
                ),
                (
                    "profiles".to_owned(),
                    Value::U64(job.plan.profiles.len() as u64),
                ),
                (
                    "geometries".to_owned(),
                    Value::U64(job.plan.geometries.len() as u64),
                ),
                ("ops".to_owned(), Value::U64(job.plan.ops as u64)),
                ("seed".to_owned(), Value::U64(job.plan.seed)),
            ],
        );
        self.log_state(&job, "queued");
        timeline::instant(format!("{} queued", job.id), "job");
        job
    }

    /// Oplogs one job state transition.
    fn log_state(&self, job: &JobState, state: &str) {
        self.oplog.info(
            "state",
            Some(&job.id),
            vec![("state".to_owned(), Value::Str(state.to_owned()))],
        );
    }

    /// Sets a job phase and mirrors the transition into the oplog and
    /// the timeline — every watcher-visible state change leaves an
    /// operator-visible record too.
    fn transition(&self, job: &JobState, phase: JobPhase) {
        let state = phase.state_name();
        job.set_phase(phase);
        self.log_state(job, state);
        timeline::instant(format!("{} {state}", job.id), "job");
    }

    /// Looks a job up by id.
    pub fn job(&self, id: &str) -> Option<Arc<JobState>> {
        lock(&self.jobs).iter().find(|j| j.id == id).cloned()
    }

    /// All jobs, oldest first.
    pub fn jobs(&self) -> Vec<Arc<JobState>> {
        lock(&self.jobs).clone()
    }

    /// The journal report shared by `status` and `metrics`:
    /// checkpointing on/off, file count, bytes on disk, torn-tail
    /// repairs performed this process.
    pub fn journal_report(&self) -> Value {
        let stats = self
            .checkpoint_dir
            .as_deref()
            .map(journal_dir_stats)
            .unwrap_or_default();
        let repairs = lock(&self.metrics)
            .counter_by_name("serve.journal.repairs")
            .unwrap_or(0);
        Value::Object(vec![
            (
                "enabled".to_owned(),
                Value::Bool(self.checkpoint_dir.is_some()),
            ),
            ("files".to_owned(), Value::U64(stats.files)),
            ("bytes".to_owned(), Value::U64(stats.bytes)),
            ("repairs".to_owned(), Value::U64(repairs)),
        ])
    }

    /// The trace store's split between generated traces and traces read
    /// from `--trace-store DIR`, plus the derived hit ratio (disk hits
    /// over lookups).
    fn trace_store_report(&self) -> Value {
        let stats = self.store.stats();
        let lookups = stats.generated + stats.disk_hits;
        let ratio = if lookups == 0 {
            0.0
        } else {
            stats.disk_hits as f64 / lookups as f64
        };
        Value::Object(vec![
            ("generated".to_owned(), Value::U64(stats.generated)),
            ("disk_hits".to_owned(), Value::U64(stats.disk_hits)),
            ("hit_ratio".to_owned(), Value::F64(ratio)),
        ])
    }

    /// The `status` server block: `serve.*` counters, the trace store's
    /// generated/disk-hit split — the ops plane for "is the
    /// `--trace-store` directory warm" — and the journal's disk
    /// footprint.
    pub fn server_status(&self) -> Value {
        let counters = {
            let metrics = lock(&self.metrics);
            let mut counters: Vec<(String, u64)> = metrics
                .counters()
                .map(|(name, value)| (name.to_owned(), value))
                .collect();
            counters.sort();
            counters
        };
        Value::Object(vec![
            (
                "counters".to_owned(),
                Value::Object(
                    counters
                        .into_iter()
                        .map(|(k, v)| (k, Value::U64(v)))
                        .collect(),
                ),
            ),
            ("trace_store".to_owned(), self.trace_store_report()),
            ("journal".to_owned(), self.journal_report()),
        ])
    }

    /// The `health` response body: a cheap liveness probe.
    pub fn health_value(&self) -> Value {
        let phases = self.phase_counts();
        let active: u64 = phases
            .iter()
            .filter(|(name, _)| matches!(*name, "queued" | "running"))
            .map(|(_, n)| n)
            .sum();
        Value::Object(vec![
            (
                "state".to_owned(),
                Value::Str(
                    if self.is_shutting_down() {
                        "draining"
                    } else {
                        "ok"
                    }
                    .to_owned(),
                ),
            ),
            (
                "protocol".to_owned(),
                Value::Str(PROTOCOL_VERSION.to_owned()),
            ),
            ("uptime_ms".to_owned(), Value::U64(self.uptime_ms())),
            (
                "queue_depth".to_owned(),
                Value::U64(self.queue_depth() as u64),
            ),
            ("jobs_active".to_owned(), Value::U64(active)),
            (
                "jobs_total".to_owned(),
                Value::U64(lock(&self.jobs).len() as u64),
            ),
        ])
    }

    /// The `metrics` response body: the structured `server` block
    /// (uptime, queue, per-phase job counts, journal, trace store,
    /// oplog emission counters) plus the full registry snapshot. The
    /// point-in-time figures are refreshed into registry gauges first,
    /// so the `registry` block alone is a complete scrape payload
    /// (`cache8t client metrics --text` renders exactly it).
    pub fn metrics_value(&self) -> Value {
        let phases = self.phase_counts();
        let uptime_ms = self.uptime_ms();
        let queue_depth = self.queue_depth() as u64;
        let journal = self.journal_report();
        let trace_store = self.trace_store_report();
        let oplog = self.oplog.stats();

        let registry = {
            let mut metrics = lock(&self.metrics);
            let mut set = |name: &str, value: i64| {
                let id = metrics.gauge(name);
                metrics.set(id, value);
            };
            set("serve.uptime_ms", uptime_ms as i64);
            set("serve.queue_depth", queue_depth as i64);
            for (phase, n) in phases {
                set(&format!("serve.jobs.{phase}"), n as i64);
            }
            set(
                "serve.journal.bytes",
                journal.get("bytes").and_then(Value::as_i64).unwrap_or(0),
            );
            set(
                "serve.journal.files",
                journal.get("files").and_then(Value::as_i64).unwrap_or(0),
            );
            for key in ["generated", "disk_hits"] {
                set(
                    &format!("serve.trace.{key}"),
                    trace_store.get(key).and_then(Value::as_i64).unwrap_or(0),
                );
            }
            set("serve.oplog.emitted", oplog.emitted as i64);
            set("serve.oplog.suppressed", oplog.suppressed as i64);
            set("serve.oplog.dropped", oplog.dropped as i64);
            metrics.to_value()
        };

        let jobs = phases
            .iter()
            .map(|(phase, n)| ((*phase).to_owned(), Value::U64(*n)))
            .collect();
        Value::Object(vec![
            (
                "server".to_owned(),
                Value::Object(vec![
                    ("uptime_ms".to_owned(), Value::U64(uptime_ms)),
                    ("queue_depth".to_owned(), Value::U64(queue_depth)),
                    ("jobs".to_owned(), Value::Object(jobs)),
                    ("journal".to_owned(), journal),
                    ("trace_store".to_owned(), trace_store),
                    (
                        "oplog".to_owned(),
                        Value::Object(vec![
                            ("emitted".to_owned(), Value::U64(oplog.emitted)),
                            ("suppressed".to_owned(), Value::U64(oplog.suppressed)),
                            ("dropped".to_owned(), Value::U64(oplog.dropped)),
                        ]),
                    ),
                ]),
            ),
            ("registry".to_owned(), registry),
        ])
    }

    /// The executor loop: pops queued jobs and runs them until
    /// shutdown. Run this on a dedicated thread.
    pub fn run_executor(self: &Arc<Self>) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if self.is_shutting_down() {
                        return;
                    }
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = self
                        .queue_wakeup
                        .wait_timeout(queue, Duration::from_millis(200))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            };
            self.run_job(&job);
        }
    }

    /// Runs one job to a terminal phase, resuming from its journal.
    fn run_job(self: &Arc<Self>, job: &Arc<JobState>) {
        self.transition(job, JobPhase::Running);
        // The whole run is one timeline span on the executor track;
        // with multiple jobs the daemon trace reads as back-to-back
        // `job-N run` slices, each bracketed by the queued/terminal
        // instants the transitions record.
        let _run_span = Span::labelled("serve.job", "job", || format!("{} run", job.id));
        let plan = &job.plan;
        let n_slots = plan.benchmark_count();

        // Restore the journalled prefix, if any, cutting the journal
        // back to it.
        let (mut restored, journal) = match self.checkpoint_dir.as_ref() {
            None => (HashMap::new(), None),
            Some(dir) => {
                let resume = Journal::resume(dir, plan, &job.fingerprint);
                if resume.repaired {
                    self.count("serve.journal.repairs");
                    self.oplog.warn(
                        "journal-repair",
                        Some(&job.id),
                        vec![(
                            "fingerprint".to_owned(),
                            Value::Str(job.fingerprint.clone()),
                        )],
                    );
                }
                let journal = match resume.journal {
                    Ok(journal) => Some(journal),
                    Err(e) => {
                        self.oplog.error(
                            "journal-open-failed",
                            Some(&job.id),
                            vec![("message".to_owned(), Value::Str(e.to_string()))],
                        );
                        None
                    }
                };
                (resume.slots, journal)
            }
        };
        lock(&job.inner).restored = restored.len();
        job.push_event(vec![
            ("event".to_owned(), Value::Str("resume".to_owned())),
            ("restored".to_owned(), Value::U64(restored.len() as u64)),
            ("total".to_owned(), Value::U64(n_slots as u64)),
        ]);
        self.oplog.info(
            "resume",
            Some(&job.id),
            vec![
                ("restored".to_owned(), Value::U64(restored.len() as u64)),
                ("total".to_owned(), Value::U64(n_slots as u64)),
            ],
        );
        timeline::instant(
            format!("{} resume {}/{}", job.id, restored.len(), n_slots),
            "job",
        );
        if !restored.is_empty() {
            self.count("serve.jobs_resumed");
        }

        let remaining: Vec<usize> = (0..n_slots).filter(|s| !restored.contains_key(s)).collect();

        let on_benchmark = {
            let job = Arc::clone(job);
            let state = Arc::clone(self);
            BenchmarkHook::new(move |event| {
                if let Some(journal) = &journal {
                    if let Err(e) = journal.append(
                        event.slot,
                        &job.plan.geometries[event.geometry].label,
                        &event.result.name,
                        &serde_json::to_value(event.result),
                    ) {
                        state.oplog.error(
                            "journal-append-failed",
                            Some(&job.id),
                            vec![("message".to_owned(), Value::Str(e.to_string()))],
                        );
                    }
                }
                // The checkpoint instant lands on whichever worker
                // thread finished the benchmark — the multi-track
                // trace shows where each durable write came from.
                timeline::instant(format!("{} checkpoint slot={}", job.id, event.slot), "job");
                state.oplog.debug(
                    "checkpoint",
                    Some(&job.id),
                    vec![
                        ("slot".to_owned(), Value::U64(event.slot as u64)),
                        (
                            "benchmark".to_owned(),
                            Value::Str(event.result.name.clone()),
                        ),
                        ("completed".to_owned(), Value::U64(event.completed as u64)),
                        ("total".to_owned(), Value::U64(event.total as u64)),
                    ],
                );
                job.push_event(vec![
                    ("event".to_owned(), Value::Str("benchmark".to_owned())),
                    ("slot".to_owned(), Value::U64(event.slot as u64)),
                    (
                        "geometry".to_owned(),
                        Value::Str(job.plan.geometries[event.geometry].label.clone()),
                    ),
                    (
                        "benchmark".to_owned(),
                        Value::Str(event.result.name.clone()),
                    ),
                ]);
                for scheme in event.result.schemes() {
                    for sample in &scheme.series {
                        job.push_event(vec![
                            ("event".to_owned(), Value::Str("series".to_owned())),
                            ("sample".to_owned(), sample.to_value()),
                        ]);
                    }
                }
            })
        };
        let on_progress = {
            let job = Arc::clone(job);
            ProgressHook::new(move |snapshot| job.set_progress(snapshot))
        };

        let options = SweepOptions {
            exec: self.exec,
            slots: Some(remaining),
            progress: false,
            store: Arc::clone(&self.store),
            series: job.spec.series_cadence.map(|cadence| SamplerConfig {
                cadence: cadence as u64,
            }),
            cancel: Some(job.cancel.clone()),
            on_benchmark: Some(on_benchmark),
            on_progress: Some(on_progress),
            stream_chunk_ops: self.stream_chunk_ops,
        };
        let outcome = run_sweep(plan, &options);

        if job.cancel.is_cancelled() {
            self.transition(job, JobPhase::Cancelled);
            self.count("serve.jobs_cancelled");
            return;
        }
        if !outcome.failures.is_empty() {
            let mut message = String::from("sweep jobs failed:");
            for f in &outcome.failures {
                message.push_str(&format!(" {}/{}: {};", f.geometry, f.benchmark, f.message));
            }
            self.transition(job, JobPhase::Failed { message });
            self.count("serve.jobs_failed");
            return;
        }

        // Assemble the canonical document from the journal-restored
        // values and the fresh results — both flow through the same
        // code path the batch `sweep` command uses, which is what makes
        // the output byte-identical to a one-shot run.
        let n_profiles = plan.profiles.len();
        let mut benchmarks: Vec<Vec<Value>> = vec![Vec::new(); plan.geometries.len()];
        for slot in 0..n_slots {
            let (g, b) = (slot / n_profiles, slot % n_profiles);
            let fresh = outcome.geometries[g].results[b].as_ref();
            match restored
                .remove(&slot)
                .or_else(|| fresh.map(serde_json::to_value))
            {
                Some(value) => benchmarks[g].push(value),
                None => {
                    self.transition(
                        job,
                        JobPhase::Failed {
                            message: format!("benchmark slot {slot} missing after a complete run"),
                        },
                    );
                    self.count("serve.jobs_failed");
                    return;
                }
            }
        }
        let document = document_with_benchmarks(plan, &benchmarks);
        let metrics = metrics_document(&outcome);
        self.transition(job, JobPhase::Completed { document, metrics });
        self.count("serve.jobs_completed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_under_a_job_lock_leaves_the_daemon_answering() {
        let state = ServerState::new(
            ExecOptions::default(),
            Arc::new(TraceStore::in_memory()),
            None,
            Arc::new(OpLog::disabled()),
            None,
        );
        let spec = PlanSpec {
            profiles: vec!["gcc".to_owned()],
            geometries: vec!["baseline".to_owned()],
            ops: 100,
            seed: 0,
            series_cadence: None,
        };
        let job = state.submit(spec.resolve().expect("plan resolves"), spec);
        let holder = Arc::clone(&job);
        let panicked = std::thread::spawn(move || {
            let _held = lock(&holder.inner);
            panic!("a hook panicked while holding the job lock");
        })
        .join();
        assert!(panicked.is_err() && job.inner.is_poisoned());

        job.push_event(vec![("event".to_owned(), Value::Str("probe".to_owned()))]);
        let summary = job.summary();
        assert_eq!(summary.get("state"), Some(&Value::Str("queued".to_owned())));
        let (lines, seq, terminal) = job.events_after(0);
        assert_eq!((lines.len(), seq, terminal), (1, 1, false));
        assert_eq!(state.phase_counts()[0], ("queued", 1));
        let health = state.health_value();
        assert_eq!(health.get("jobs_active"), Some(&Value::U64(1)));
    }
}
