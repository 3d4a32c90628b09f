//! A std-only job scheduler with per-job panic isolation.
//!
//! The pool runs a fixed batch of independent jobs across `workers`
//! threads. The workers share one cursor over the job list: each takes
//! the next index with a single atomic increment until the index passes
//! the end, so jobs start in submission order on whichever worker is
//! free, and a long-running job never holds up work another worker
//! could take. Jobs are plain closures over shared state (`Fn() -> T`).
//!
//! Every job runs once, under [`std::panic::catch_unwind`]: a panicking
//! job becomes a structured [`JobOutcome::Failed`] carrying the panic
//! payload, and the remaining jobs keep running — a single poisoned
//! experiment cannot abort a sweep. A panic is not retried: sweep jobs
//! and `cache8t check`'s replays are pure functions of their inputs, so
//! a second run would panic the same way. Outcomes are returned in
//! submission order regardless of the schedule, which is what lets
//! callers build deterministic, thread-count-independent reports on top.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use cache8t_obs::{timeline, Log2Histogram, SpanStat};

/// A cooperative cancellation flag shared between a batch's submitter
/// and its workers.
///
/// Cancellation is polled *between* jobs: a job that is already
/// running runs to completion (a sweep job replays one profile over
/// all of its geometries, which at long traces takes many seconds),
/// every job still queued is drained as [`JobOutcome::Cancelled`]
/// without executing, and the batch returns with outcomes for every
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
    /// Read by nothing: a panicking job fails on its first run. Kept
    /// only so that callers which still name the field compile.
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
    /// The job panicked; the sweep continued without it.
    Failed {
        /// The panic payload, stringified.
        message: String,
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
/// The observer derives any rate from its own clock.
#[derive(Debug, Clone, Copy)]
pub struct JobProgress {
    /// Jobs finished so far (completed + failed).
    pub done: usize,
    /// Jobs that panicked.
    pub failed: usize,
    /// Jobs in the batch.
    pub total: usize,
}

/// Per-worker scheduler telemetry for one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Wall-clock spent executing jobs.
    pub busy: Duration,
    /// The rest of the batch's wall-clock: the worker was starting up,
    /// reporting progress, or done while its peers still ran.
    pub idle: Duration,
}

impl WorkerStats {
    /// Busy share of this worker's observed wall-clock, in percent
    /// (100 when the worker never idled, 0 when it never worked).
    pub fn busy_pct(&self) -> f64 {
        let observed = self.busy + self.idle;
        if observed.is_zero() {
            return 0.0;
        }
        // The quotient first: a worker that never idled has
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
    /// Per-worker busy/idle breakdown, one entry per worker.
    pub worker_stats: Vec<WorkerStats>,
    /// Distribution of per-job wall-clock durations, in microseconds.
    pub job_durations_us: Log2Histogram,
    /// Span profiles merged from every worker thread — without this,
    /// spans recorded on worker threads would die with their
    /// thread-local recorders.
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
struct WorkerReport<T> {
    /// `(job index, outcome)` for every job this worker took.
    outcomes: Vec<(usize, JobOutcome<T>)>,
    stats: WorkerStats,
    job_durations_us: Log2Histogram,
    spans: Vec<SpanStat>,
}

struct Shared<'a, F> {
    jobs: &'a [F],
    /// The index of the next job to hand out. Every worker takes from
    /// it until it passes the end of `jobs`. `Relaxed` suffices: the
    /// increment alone makes each index unique, and the cursor
    /// publishes no data (the jobs are shared before the workers start,
    /// and outcomes come back through `join`).
    next: AtomicUsize,
    /// Jobs finished so far (executed or drained), a progress statistic.
    done: AtomicUsize,
    failed: AtomicUsize,
    cancel: Option<&'a CancelToken>,
    observer: Option<&'a (dyn Fn(JobProgress) + Sync)>,
}

impl<F> Shared<'_, F> {
    /// Takes jobs from the shared cursor until none are left, running
    /// each (or draining it once the batch is cancelled).
    fn work<T>(&self) -> WorkerReport<T>
    where
        F: Fn() -> T,
    {
        let mut report = WorkerReport {
            outcomes: Vec::new(),
            stats: WorkerStats::default(),
            job_durations_us: Log2Histogram::new(),
            spans: Vec::new(),
        };
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = self.jobs.get(index) else {
                break;
            };
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                report.outcomes.push((index, JobOutcome::Cancelled));
                // A drained job counts as finished, like an executed
                // one, so the observer's progress still reaches `total`.
                self.report_progress();
                continue;
            }
            let started = Instant::now();
            let outcome = self.execute(job);
            let took = started.elapsed();
            report.outcomes.push((index, outcome));
            report.stats.jobs += 1;
            report.stats.busy += took;
            report.job_durations_us.observe(took.as_micros() as u64);
            self.report_progress();
        }
        // The thread-local span recorder dies with this thread: hand
        // its profile to the batch report.
        report.spans = timeline::take_report();
        report
    }

    /// Runs `job` once, with panic isolation.
    fn execute<T>(&self, job: &F) -> JobOutcome<T>
    where
        F: Fn() -> T,
    {
        match catch_unwind(AssertUnwindSafe(job)) {
            Ok(value) => JobOutcome::Completed(value),
            Err(payload) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                timeline::instant("job-failed", "sched");
                JobOutcome::Failed {
                    message: panic_message(payload),
                }
            }
        }
    }

    /// Counts one more finished job and tells the observer.
    fn report_progress(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(observer) = self.observer {
            observer(JobProgress {
                done,
                failed: self.failed.load(Ordering::Relaxed),
                total: self.jobs.len(),
            });
        }
    }
}

/// Runs `jobs` across the pool and returns one outcome per job, in
/// submission order.
///
/// `cancel`, when given, is polled between jobs: once it fires, every
/// job a worker subsequently takes is drained as
/// [`JobOutcome::Cancelled`] without executing, while jobs already
/// running complete normally. `observer`, when given, is invoked from
/// worker threads after every finished job — the hook behind live
/// progress lines.
///
/// # Panics
///
/// Panics if `observer` panics. A panicking job cannot bring the pool
/// down: it becomes a [`JobOutcome::Failed`].
pub fn run_jobs<T, F>(
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
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        failed: AtomicUsize::new(0),
        cancel,
        observer,
    };

    let batch_started = Instant::now();
    let reports: Vec<WorkerReport<T>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let shared = &shared;
                scope.spawn(move || {
                    if timeline::is_enabled() {
                        timeline::set_track_name(format!("worker-{worker}"));
                    }
                    shared.work()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("pool worker panicked"))
            .collect()
    });
    let wall = batch_started.elapsed();

    let mut outcomes: Vec<Option<JobOutcome<T>>> = (0..total).map(|_| None).collect();
    let mut worker_stats = Vec::with_capacity(workers);
    let mut job_durations_us = Log2Histogram::new();
    let mut span_reports = Vec::with_capacity(workers);
    for report in reports {
        for (index, outcome) in report.outcomes {
            outcomes[index] = Some(outcome);
        }
        worker_stats.push(WorkerStats {
            idle: wall.saturating_sub(report.stats.busy),
            ..report.stats
        });
        job_durations_us.merge(&report.job_durations_us);
        span_reports.push(report.spans);
    }
    ExecReport {
        outcomes: outcomes
            .into_iter()
            .map(|outcome| outcome.expect("every job ran"))
            .collect(),
        worker_stats,
        job_durations_us,
        spans: timeline::merge_reports(span_reports),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn opts(workers: usize) -> ExecOptions {
        ExecOptions {
            workers,
            ..ExecOptions::default()
        }
    }

    #[test]
    fn outcomes_keep_submission_order() {
        for workers in [1, 4] {
            let jobs: Vec<_> = (0..37).map(|i| move || i * 3).collect();
            let report = run_jobs(jobs, &opts(workers), None, None);
            assert_eq!(report.outcomes.len(), 37);
            for (i, o) in report.outcomes.into_iter().enumerate() {
                assert_eq!(o.completed(), Some(i * 3));
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = run_jobs(Vec::<fn() -> u8>::new(), &opts(4), None, None);
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
            None,
            Some(&|p: JobProgress| {
                seen.fetch_add(1, Ordering::Relaxed);
                assert!(p.done <= p.total);
            }),
        );
        assert_eq!(report.failed(), 0);
        assert_eq!(seen.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn effective_workers_resolves_zero() {
        assert!(opts(0).effective_workers() >= 1);
        assert_eq!(opts(3).effective_workers(), 3);
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
        let report = run_jobs(jobs, &opts(3), None, None);
        assert_eq!(report.worker_stats.len(), 3);
        assert_eq!(report.worker_stats.iter().map(|w| w.jobs).sum::<u64>(), 16);
        assert_eq!(report.job_durations_us.count(), 16);
        assert!(report.job_durations_us.sum() > 0);
        for w in &report.worker_stats {
            // A worker that started after its peers took every job
            // has nothing to report.
            if w.jobs > 0 {
                assert!(w.busy > Duration::ZERO);
            }
            assert!((0.0..=100.0).contains(&w.busy_pct()));
        }
    }

    #[test]
    fn cursor_hands_out_every_job_exactly_once() {
        // Submission-order outcomes would read correctly even if two
        // workers ran the same index; per-job counters would not.
        for workers in [1, 3, 8] {
            let runs: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
            let jobs: Vec<_> = runs
                .iter()
                .map(|runs| move || runs.fetch_add(1, Ordering::SeqCst))
                .collect();
            let report = run_jobs(jobs, &opts(workers), None, None);
            assert_eq!(report.failed(), 0);
            for (i, runs) in runs.iter().enumerate() {
                assert_eq!(
                    runs.load(Ordering::SeqCst),
                    1,
                    "job {i} at {workers} workers"
                );
            }
            assert_eq!(report.worker_stats.len(), workers);
            let jobs: u64 = report.worker_stats.iter().map(|w| w.jobs).sum();
            assert_eq!(jobs, 200, "{workers} workers");
            for w in &report.worker_stats {
                assert!((0.0..=100.0).contains(&w.busy_pct()), "{w:?}");
            }
        }
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
        let report = run_jobs(jobs, &opts(1), Some(&token), None);
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
        let report = run_jobs(jobs, &opts(4), Some(&token), None);
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
}
