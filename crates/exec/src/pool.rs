//! A std-only work-stealing job scheduler with per-job panic isolation.
//!
//! The pool runs a fixed batch of independent jobs across `workers`
//! threads. Each worker owns a deque seeded round-robin with job
//! indices; when its own deque drains it steals from the front of a
//! victim's deque, so long-running jobs never serialize the tail of a
//! batch behind one thread. Jobs are plain closures over shared state
//! (`Fn() -> T`), which keeps them re-runnable for bounded retry.
//!
//! Every job runs under [`std::panic::catch_unwind`]: a panicking job
//! becomes a structured [`JobOutcome::Failed`] carrying the panic
//! payload, and the remaining jobs keep running — a single poisoned
//! experiment cannot abort a sweep. Outcomes are returned in submission
//! order regardless of the schedule, which is what lets callers build
//! deterministic, thread-count-independent reports on top.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cache8t_obs::{span, timeline, Log2Histogram, SpanStat};

/// A cooperative cancellation flag shared between a batch's submitter
/// and its workers.
///
/// Cancellation is polled *between* unit jobs: a job that is already
/// replaying runs to completion (jobs are seconds at most), every job
/// still queued is drained as [`JobOutcome::Cancelled`] without
/// executing, and the batch returns promptly with outcomes for every
/// submitted job. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Extra attempts after a panic (0 = fail on the first panic).
    pub retries: u32,
}

impl ExecOptions {
    /// The configured worker count with `0` resolved to the machine's
    /// available parallelism (at least 1).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job returned a value.
    Completed(T),
    /// Every attempt panicked; the sweep continued without this job.
    Failed {
        /// The panic payload of the last attempt, stringified.
        message: String,
        /// Total attempts made (1 + retries).
        attempts: u32,
    },
    /// The batch's [`CancelToken`] fired before this job started; it
    /// was drained without executing.
    Cancelled,
}

impl<T> JobOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            JobOutcome::Completed(v) => Some(v),
            JobOutcome::Failed { .. } | JobOutcome::Cancelled => None,
        }
    }

    /// `true` for [`JobOutcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, JobOutcome::Failed { .. })
    }

    /// `true` for [`JobOutcome::Cancelled`].
    pub fn is_cancelled(&self) -> bool {
        matches!(self, JobOutcome::Cancelled)
    }
}

/// Progress snapshot passed to the observer after every finished job.
#[derive(Debug, Clone, Copy)]
pub struct JobProgress {
    /// Jobs finished so far (completed + failed).
    pub done: usize,
    /// Jobs whose every attempt panicked.
    pub failed: usize,
    /// Jobs in the batch.
    pub total: usize,
    /// Mean duration of the [`ETA_WINDOW`] most recently finished jobs,
    /// in microseconds. Windowed rather than all-time so the ETA tracks
    /// the current job mix: a sweep whose early configs are cheap and
    /// late configs expensive (or vice versa) converges to the recent
    /// rate instead of being anchored to stale samples.
    pub mean_job_us: u64,
    /// Worker threads executing the batch.
    pub workers: usize,
}

/// Number of recent job durations the [`JobProgress::mean_job_us`]
/// estimate averages over.
pub const ETA_WINDOW: usize = 32;

/// Minimum finished jobs before [`JobProgress::eta`] and
/// [`JobProgress::mops`] report anything. A single sample is a noisy
/// basis for a rate — the opening tick of a sweep would otherwise
/// extrapolate the whole batch from one (often unrepresentative,
/// cold-cache) job and render a garbage ETA.
pub const RATE_MIN_SAMPLES: usize = 2;

/// Pushes `sample` into the bounded recency window and returns the mean
/// of what the window now holds.
fn windowed_mean(window: &mut VecDeque<u64>, sample: u64) -> u64 {
    if window.len() == ETA_WINDOW {
        window.pop_front();
    }
    window.push_back(sample);
    window.iter().sum::<u64>() / window.len() as u64
}

impl JobProgress {
    /// `true` once enough jobs finished for rate estimates to be
    /// meaningful (see [`RATE_MIN_SAMPLES`]) and the windowed mean is
    /// non-zero (sub-microsecond jobs floor the integer mean to 0,
    /// which would otherwise divide to infinity).
    fn rate_is_trustworthy(&self) -> bool {
        self.done >= RATE_MIN_SAMPLES && self.mean_job_us > 0
    }

    /// Estimated time to batch completion, assuming the remaining jobs
    /// cost the recent-jobs mean spread across the workers. `None`
    /// until [`RATE_MIN_SAMPLES`] jobs finish (a one-sample rate is
    /// noise, and all-instant jobs floor the mean to 0) and once the
    /// batch is done.
    pub fn eta(&self) -> Option<Duration> {
        if !self.rate_is_trustworthy() || self.done >= self.total {
            return None;
        }
        let remaining = (self.total - self.done) as u64;
        let waves = remaining.div_ceil(self.workers.max(1) as u64);
        Some(Duration::from_micros(
            waves.saturating_mul(self.mean_job_us),
        ))
    }

    /// Aggregate replay throughput in Mops/s, given the replayed ops
    /// per job. `None` under the same guards as [`eta`](Self::eta) —
    /// this is the single place the first-window divide-by-zero /
    /// garbage-rate cases are handled, so every progress consumer
    /// (batch sweep, serve daemon) renders the same dashes instead of
    /// its own arithmetic.
    pub fn mops(&self, ops_per_job: f64) -> Option<f64> {
        if !self.rate_is_trustworthy() {
            return None;
        }
        let rate = ops_per_job * self.workers as f64 / self.mean_job_us as f64;
        (rate.is_finite() && rate > 0.0).then_some(rate)
    }
}

/// One point of a worker's throughput / queue-depth time series.
///
/// Workers record one sample per completed job into a ring bounded at
/// [`WORKER_SERIES_CAPACITY`], so the series cost is flat no matter how
/// large the batch is. Samples carry wall-clock offsets and therefore
/// live in the scheduler-telemetry domain (the `sweep.*` metric family)
/// — they never enter deterministic documents or the replay series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSample {
    /// Milliseconds since the batch started.
    pub at_ms: u64,
    /// Jobs this worker had completed when the sample was taken.
    pub jobs: u64,
    /// Own-deque depth right after the sampled pop (0 for a steal —
    /// the thief's own deque was empty by definition).
    pub queue_depth: u64,
}

/// Bound on each worker's [`WorkerSample`] ring.
pub const WORKER_SERIES_CAPACITY: usize = 256;

/// Per-worker scheduler telemetry for one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Jobs this worker took from another worker's deque.
    pub steals: u64,
    /// Wall-clock spent executing jobs.
    pub busy: Duration,
    /// Wall-clock spent parked (all deques momentarily empty).
    pub idle: Duration,
    /// Park naps taken while waiting for work.
    pub parks: u64,
}

impl WorkerStats {
    /// Busy share of this worker's observed wall-clock, in percent
    /// (100 when the worker never idled, 0 when it never worked).
    pub fn busy_pct(&self) -> f64 {
        let observed = self.busy + self.idle;
        if observed.is_zero() {
            return 0.0;
        }
        // The quotient first: a worker that never parked has
        // busy == observed, and 1.0 scales to exactly 100 where
        // `100.0 * b / b` can round to 100.00000000000001.
        100.0 * (self.busy.as_secs_f64() / observed.as_secs_f64())
    }
}

/// Batch report: per-job outcomes plus scheduler telemetry.
#[derive(Debug)]
pub struct ExecReport<T> {
    /// One outcome per submitted job, in submission order.
    pub outcomes: Vec<JobOutcome<T>>,
    /// Re-attempts made after panics (across all jobs).
    pub retries: u64,
    /// Jobs a worker executed from another worker's deque.
    pub steals: u64,
    /// Per-worker busy/idle/steal breakdown, one entry per worker.
    pub worker_stats: Vec<WorkerStats>,
    /// Distribution of per-job wall-clock durations, in microseconds.
    pub job_durations_us: Log2Histogram,
    /// Own-deque depth sampled after every local (non-stolen) pop.
    pub queue_depths: Log2Histogram,
    /// Per-worker throughput / queue-depth time series, one bounded
    /// ring per worker (most recent [`WORKER_SERIES_CAPACITY`] jobs).
    pub worker_series: Vec<Vec<WorkerSample>>,
    /// Span-profiler stats merged from every worker thread — without
    /// this, spans recorded on worker threads would die with their
    /// thread-local profilers.
    pub spans: Vec<SpanStat>,
}

impl<T> ExecReport<T> {
    /// Number of failed jobs.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_failed()).count()
    }

    /// Number of jobs drained without executing after cancellation.
    pub fn cancelled(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_cancelled()).count()
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What each worker thread hands back when its loop ends.
#[derive(Default)]
struct WorkerReport {
    stats: WorkerStats,
    job_durations_us: Log2Histogram,
    queue_depths: Log2Histogram,
    series: VecDeque<WorkerSample>,
    spans: Vec<SpanStat>,
}

impl WorkerReport {
    /// Appends one series point, evicting the oldest at capacity.
    fn sample(&mut self, at_ms: u64, queue_depth: u64) {
        if self.series.len() == WORKER_SERIES_CAPACITY {
            self.series.pop_front();
        }
        self.series.push_back(WorkerSample {
            at_ms,
            jobs: self.stats.jobs,
            queue_depth,
        });
    }
}

/// A job grabbed from a deque.
struct Grabbed {
    index: usize,
    /// `Some(depth)` for a local pop (own-queue depth after the pop);
    /// `None` for a steal.
    local_depth: Option<usize>,
}

struct Shared<'a, T, F> {
    jobs: &'a [F],
    queues: Vec<Mutex<VecDeque<usize>>>,
    results: Vec<Mutex<Option<JobOutcome<T>>>>,
    worker_reports: Vec<Mutex<WorkerReport>>,
    remaining: AtomicUsize,
    failed: AtomicUsize,
    retries: AtomicU64,
    steals: AtomicU64,
    busy_us: AtomicU64,
    /// Durations of the most recently finished jobs (bounded at
    /// [`ETA_WINDOW`]), feeding the windowed ETA mean.
    recent_us: Mutex<VecDeque<u64>>,
    workers: usize,
}

impl<T, F> Shared<'_, T, F>
where
    F: Fn() -> T + Sync,
    T: Send,
{
    /// Runs job `index` with panic isolation and bounded retry, records
    /// the outcome, and reports progress. Returns the job's wall-clock.
    fn execute(
        &self,
        index: usize,
        retries: u32,
        observer: Option<&(dyn Fn(JobProgress) + Sync)>,
    ) -> Duration {
        let started = Instant::now();
        let job = &self.jobs[index];
        let mut outcome = None;
        for attempt in 1..=retries.saturating_add(1) {
            if attempt > 1 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                timeline::instant("retry", "sched");
            }
            match catch_unwind(AssertUnwindSafe(job)) {
                Ok(value) => {
                    outcome = Some(JobOutcome::Completed(value));
                    break;
                }
                Err(payload) => {
                    outcome = Some(JobOutcome::Failed {
                        message: panic_message(payload),
                        attempts: attempt,
                    });
                }
            }
        }
        let outcome = outcome.expect("at least one attempt runs");
        if outcome.is_failed() {
            self.failed.fetch_add(1, Ordering::Relaxed);
            timeline::instant("job-failed", "sched");
        }
        *self.results[index].lock().expect("result slot poisoned") = Some(outcome);
        let took = started.elapsed();
        self.busy_us
            .fetch_add(took.as_micros() as u64, Ordering::Relaxed);
        let mean_job_us = {
            let mut window = self.recent_us.lock().expect("eta window poisoned");
            windowed_mean(&mut window, took.as_micros() as u64)
        };
        let total = self.jobs.len();
        let done = total - (self.remaining.fetch_sub(1, Ordering::AcqRel) - 1);
        if let Some(observer) = observer {
            observer(JobProgress {
                done,
                failed: self.failed.load(Ordering::Relaxed),
                total,
                mean_job_us,
                workers: self.workers,
            });
        }
        took
    }

    /// Records job `index` as [`JobOutcome::Cancelled`] without running
    /// it, keeping the `remaining` accounting (and the observer's view
    /// of progress) identical to an executed job.
    fn drain_cancelled(&self, index: usize, observer: Option<&(dyn Fn(JobProgress) + Sync)>) {
        *self.results[index].lock().expect("result slot poisoned") = Some(JobOutcome::Cancelled);
        let total = self.jobs.len();
        let done = total - (self.remaining.fetch_sub(1, Ordering::AcqRel) - 1);
        if let Some(observer) = observer {
            observer(JobProgress {
                done,
                failed: self.failed.load(Ordering::Relaxed),
                total,
                mean_job_us: 0,
                workers: self.workers,
            });
        }
    }

    /// Pops from the worker's own deque (front: batch order) or steals
    /// from a victim's (also front — classic FIFO stealing).
    fn next_job(&self, worker: usize) -> Option<Grabbed> {
        {
            let mut own = self.queues[worker].lock().expect("queue poisoned");
            if let Some(i) = own.pop_front() {
                let depth = own.len();
                return Some(Grabbed {
                    index: i,
                    local_depth: Some(depth),
                });
            }
        }
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(i) = self.queues[victim]
                .lock()
                .expect("queue poisoned")
                .pop_front()
            {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(Grabbed {
                    index: i,
                    local_depth: None,
                });
            }
        }
        None
    }
}

/// Runs `jobs` across a work-stealing pool and returns one outcome per
/// job, in submission order.
///
/// `observer`, when given, is invoked from worker threads after every
/// finished job — the hook behind live progress lines.
///
/// # Panics
///
/// Panics only on scheduler-internal lock poisoning (a worker thread
/// itself can never poison the locks: job panics are caught).
pub fn run_jobs<T, F>(
    jobs: Vec<F>,
    options: &ExecOptions,
    observer: Option<&(dyn Fn(JobProgress) + Sync)>,
) -> ExecReport<T>
where
    F: Fn() -> T + Send + Sync,
    T: Send,
{
    run_jobs_cancellable(jobs, options, None, observer)
}

/// [`run_jobs`] with a cooperative [`CancelToken`]: once the token
/// fires, every job a worker subsequently pops is drained as
/// [`JobOutcome::Cancelled`] without executing, and the batch returns
/// with one outcome per submitted job as usual. Jobs already running
/// when the token fires complete normally (cancellation is polled
/// between jobs, never mid-job).
pub fn run_jobs_cancellable<T, F>(
    jobs: Vec<F>,
    options: &ExecOptions,
    cancel: Option<&CancelToken>,
    observer: Option<&(dyn Fn(JobProgress) + Sync)>,
) -> ExecReport<T>
where
    F: Fn() -> T + Send + Sync,
    T: Send,
{
    let total = jobs.len();
    let workers = options.effective_workers().min(total.max(1));
    let shared = Shared {
        jobs: &jobs,
        queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        results: (0..total).map(|_| Mutex::new(None)).collect(),
        worker_reports: (0..workers)
            .map(|_| Mutex::new(WorkerReport::default()))
            .collect(),
        remaining: AtomicUsize::new(total),
        failed: AtomicUsize::new(0),
        retries: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        busy_us: AtomicU64::new(0),
        recent_us: Mutex::new(VecDeque::with_capacity(ETA_WINDOW)),
        workers,
    };
    // Seed round-robin so every worker starts with nearby batch
    // positions and stealing only happens on genuine imbalance.
    for index in 0..total {
        shared.queues[index % workers]
            .lock()
            .expect("queue poisoned")
            .push_back(index);
    }

    let batch_started = Instant::now();
    thread::scope(|scope| {
        for worker in 0..workers {
            let shared = &shared;
            scope.spawn(move || {
                if timeline::is_enabled() {
                    timeline::set_track_name(format!("worker-{worker}"));
                }
                let mut report = WorkerReport::default();
                // Start of a contiguous idle stretch, if we are in one.
                let mut idle_since: Option<Instant> = None;
                loop {
                    match shared.next_job(worker) {
                        Some(grabbed) => {
                            if let Some(since) = idle_since.take() {
                                report.stats.idle += since.elapsed();
                                timeline::end("idle", "sched");
                            }
                            if cancel.is_some_and(CancelToken::is_cancelled) {
                                shared.drain_cancelled(grabbed.index, observer);
                                continue;
                            }
                            match grabbed.local_depth {
                                Some(depth) => report.queue_depths.observe(depth as u64),
                                None => {
                                    report.stats.steals += 1;
                                    timeline::instant("steal", "sched");
                                }
                            }
                            let took = shared.execute(grabbed.index, options.retries, observer);
                            report.stats.jobs += 1;
                            report.stats.busy += took;
                            report.job_durations_us.observe(took.as_micros() as u64);
                            report.sample(
                                batch_started.elapsed().as_millis() as u64,
                                grabbed.local_depth.unwrap_or(0) as u64,
                            );
                        }
                        None => {
                            if shared.remaining.load(Ordering::Acquire) == 0 {
                                break;
                            }
                            if idle_since.is_none() {
                                idle_since = Some(Instant::now());
                                timeline::begin("idle", "sched");
                            }
                            report.stats.parks += 1;
                            // All queues momentarily empty while peers
                            // still run; jobs are coarse, so a short nap
                            // is cheap.
                            thread::sleep(Duration::from_micros(50));
                        }
                    }
                }
                if let Some(since) = idle_since.take() {
                    report.stats.idle += since.elapsed();
                    timeline::end("idle", "sched");
                }
                // The thread-local span profiler dies with this thread:
                // hand its accumulated stats to the batch report.
                report.spans = span::take_report();
                *shared.worker_reports[worker]
                    .lock()
                    .expect("worker report poisoned") = report;
            });
        }
    });

    let outcomes = shared
        .results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran")
        })
        .collect();
    let mut worker_stats = Vec::with_capacity(workers);
    let mut job_durations_us = Log2Histogram::new();
    let mut queue_depths = Log2Histogram::new();
    let mut worker_series = Vec::with_capacity(workers);
    let mut span_reports = Vec::with_capacity(workers);
    for slot in shared.worker_reports {
        let report = slot.into_inner().expect("worker report poisoned");
        worker_stats.push(report.stats);
        job_durations_us.merge(&report.job_durations_us);
        queue_depths.merge(&report.queue_depths);
        worker_series.push(report.series.into_iter().collect());
        span_reports.push(report.spans);
    }
    ExecReport {
        outcomes,
        retries: shared.retries.into_inner(),
        steals: shared.steals.into_inner(),
        worker_stats,
        job_durations_us,
        queue_depths,
        worker_series,
        spans: span::merge_reports(span_reports),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn opts(workers: usize) -> ExecOptions {
        ExecOptions {
            workers,
            retries: 0,
        }
    }

    #[test]
    fn outcomes_keep_submission_order() {
        for workers in [1, 4] {
            let jobs: Vec<_> = (0..37).map(|i| move || i * 3).collect();
            let report = run_jobs(jobs, &opts(workers), None);
            assert_eq!(report.outcomes.len(), 37);
            for (i, o) in report.outcomes.into_iter().enumerate() {
                assert_eq!(o.completed(), Some(i * 3));
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = run_jobs(Vec::<fn() -> u8>::new(), &opts(4), None);
        assert!(report.outcomes.is_empty());
        assert_eq!(report.failed(), 0);
    }

    #[test]
    fn observer_sees_every_completion() {
        let seen = AtomicU32::new(0);
        let jobs: Vec<_> = (0..10).map(|i| move || i).collect();
        let report = run_jobs(
            jobs,
            &opts(2),
            Some(&|p: JobProgress| {
                seen.fetch_add(1, Ordering::Relaxed);
                assert!(p.done <= p.total);
            }),
        );
        assert_eq!(report.failed(), 0);
        assert_eq!(seen.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn retry_reruns_panicking_job() {
        // Succeeds on the second attempt: the pool must re-run it.
        let tries = AtomicU32::new(0);
        let jobs = vec![|| {
            if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("flaky once");
            }
            7u32
        }];
        let report = run_jobs(
            jobs,
            &ExecOptions {
                workers: 1,
                retries: 2,
            },
            None,
        );
        assert_eq!(report.retries, 1);
        assert_eq!(report.outcomes[0], JobOutcome::Completed(7));
    }

    #[test]
    fn bounded_retry_gives_up() {
        let jobs = vec![|| -> u32 { panic!("always") }];
        let report = run_jobs(
            jobs,
            &ExecOptions {
                workers: 1,
                retries: 1,
            },
            None,
        );
        match &report.outcomes[0] {
            JobOutcome::Failed { message, attempts } => {
                assert_eq!(message, "always");
                assert_eq!(*attempts, 2);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn effective_workers_resolves_zero() {
        assert!(opts(0).effective_workers() >= 1);
        assert_eq!(opts(3).effective_workers(), 3);
    }

    #[test]
    fn progress_eta_scales_with_remaining_waves() {
        let p = JobProgress {
            done: 4,
            failed: 0,
            total: 12,
            mean_job_us: 1_000,
            workers: 4,
        };
        // 8 jobs over 4 workers = 2 waves of ~1ms each.
        assert_eq!(p.eta(), Some(Duration::from_micros(2_000)));
        let finished = JobProgress { done: 12, ..p };
        assert_eq!(finished.eta(), None);
        let unmeasured = JobProgress {
            mean_job_us: 0,
            ..p
        };
        assert_eq!(unmeasured.eta(), None);
    }

    #[test]
    fn first_tick_reports_no_rate() {
        // One finished job is not a rate: the opening tick must render
        // unknown ETA/Mops, not extrapolate the batch from one sample.
        let first = JobProgress {
            done: 1,
            failed: 0,
            total: 100,
            mean_job_us: 250_000,
            workers: 4,
        };
        assert_eq!(first.eta(), None);
        assert_eq!(first.mops(20_000.0), None);
        // The second sample unlocks both estimates.
        let second = JobProgress { done: 2, ..first };
        assert!(second.eta().is_some());
        assert!(second.mops(20_000.0).is_some());
    }

    #[test]
    fn all_instant_jobs_report_no_rate() {
        // Sub-microsecond jobs floor the integer mean to 0; the rate
        // math would divide by zero. Both estimates must decline.
        let p = JobProgress {
            done: 50,
            failed: 0,
            total: 100,
            mean_job_us: 0,
            workers: 8,
        };
        assert_eq!(p.eta(), None);
        assert_eq!(p.mops(20_000.0), None);
    }

    #[test]
    fn mops_scales_ops_by_workers_over_mean() {
        let p = JobProgress {
            done: 10,
            failed: 0,
            total: 20,
            mean_job_us: 2_000,
            workers: 4,
        };
        // 22k ops per job × 4 workers / 2000 µs = 44 ops/µs = 44 Mops/s.
        let mops = p.mops(22_000.0).expect("trustworthy rate");
        assert!((mops - 44.0).abs() < 1e-9);
        // Degenerate ops counts never emit non-finite or zero rates.
        assert_eq!(p.mops(0.0), None);
        assert_eq!(p.mops(f64::INFINITY), None);
    }

    #[test]
    fn windowed_mean_tracks_recent_jobs_only() {
        let mut window = VecDeque::new();
        // Saturate the window with slow jobs...
        for _ in 0..ETA_WINDOW {
            assert_eq!(windowed_mean(&mut window, 10_000), 10_000);
        }
        // ...then a run of fast ones: the stale 10ms samples age out and
        // the mean converges to the recent rate instead of anchoring.
        let mut mean = 10_000;
        for _ in 0..ETA_WINDOW {
            mean = windowed_mean(&mut window, 100);
        }
        assert_eq!(mean, 100, "all-time mean would report ~5ms here");
        assert_eq!(window.len(), ETA_WINDOW, "window stays bounded");
    }

    #[test]
    fn busy_pct_of_a_worker_that_never_parked_is_exactly_100() {
        // 100.0 * b / b rounds above 100 for this duration.
        let busy = Duration::from_nanos(11_094_806);
        let never_parked = WorkerStats {
            busy,
            ..WorkerStats::default()
        };
        assert_eq!(never_parked.busy_pct(), 100.0);
        let never_worked = WorkerStats {
            idle: busy,
            ..WorkerStats::default()
        };
        assert_eq!(never_worked.busy_pct(), 0.0);
        assert_eq!(WorkerStats::default().busy_pct(), 0.0);
    }

    #[test]
    fn report_carries_worker_telemetry() {
        let jobs: Vec<_> = (0..16)
            .map(|i| {
                move || {
                    // A little real work so busy time is nonzero.
                    std::thread::sleep(Duration::from_micros(200));
                    i
                }
            })
            .collect();
        let report = run_jobs(jobs, &opts(3), None);
        assert_eq!(report.worker_stats.len(), 3);
        assert_eq!(report.worker_stats.iter().map(|w| w.jobs).sum::<u64>(), 16);
        assert_eq!(
            report.worker_stats.iter().map(|w| w.steals).sum::<u64>(),
            report.steals
        );
        assert_eq!(report.job_durations_us.count(), 16);
        assert!(report.job_durations_us.sum() > 0);
        for w in &report.worker_stats {
            assert!(w.busy > Duration::ZERO);
            assert!((0.0..=100.0).contains(&w.busy_pct()));
        }
        // Locally-popped jobs sampled the owner's queue depth; steals
        // account for the rest.
        assert_eq!(
            report.queue_depths.count() + report.steals,
            16,
            "every grab is either a local pop or a steal"
        );
    }

    #[test]
    fn cancel_drains_remaining_jobs_without_running_them() {
        let token = CancelToken::new();
        let ran = AtomicU32::new(0);
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                let token = token.clone();
                let ran = &ran;
                move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 2 {
                        token.cancel();
                    }
                    i
                }
            })
            .collect();
        let report = run_jobs_cancellable(jobs, &opts(1), Some(&token), None);
        assert_eq!(report.outcomes.len(), 64, "every job gets an outcome");
        // Single worker, FIFO order: jobs 0..=2 ran, everything after the
        // firing job was drained.
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        assert_eq!(report.cancelled(), 61);
        assert_eq!(report.outcomes[2], JobOutcome::Completed(2));
        assert!(report.outcomes[3].is_cancelled());
        assert_eq!(report.outcomes[3].clone().completed(), None);
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let token = CancelToken::new();
        let jobs: Vec<_> = (0..10).map(|i| move || i).collect();
        let report = run_jobs_cancellable(jobs, &opts(4), Some(&token), None);
        assert_eq!(report.cancelled(), 0);
        for (i, o) in report.outcomes.into_iter().enumerate() {
            assert_eq!(o.completed(), Some(i));
        }
        assert!(!token.is_cancelled());
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    fn worker_series_is_recorded_per_job_and_bounded() {
        // Small batch: one sample per completed job, per worker.
        let jobs: Vec<_> = (0..10).map(|i| move || i).collect();
        let report = run_jobs(jobs, &opts(2), None);
        assert_eq!(report.worker_series.len(), 2);
        let samples: u64 = report.worker_series.iter().map(|s| s.len() as u64).sum();
        assert_eq!(samples, 10);
        for series in &report.worker_series {
            for pair in series.windows(2) {
                assert!(pair[0].jobs < pair[1].jobs, "jobs count is monotone");
                assert!(pair[0].at_ms <= pair[1].at_ms, "time is monotone");
            }
        }

        // Oversized batch: the ring stays bounded at the capacity.
        let jobs: Vec<_> = (0..WORKER_SERIES_CAPACITY + 50)
            .map(|i| move || i)
            .collect();
        let report = run_jobs(jobs, &opts(1), None);
        assert_eq!(report.worker_series[0].len(), WORKER_SERIES_CAPACITY);
        let last = report.worker_series[0].last().expect("nonempty");
        assert_eq!(last.jobs, (WORKER_SERIES_CAPACITY + 50) as u64);
    }
}
