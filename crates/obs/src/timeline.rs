//! Spans: one RAII timer feeding both the profile report and the
//! wall-clock execution timeline.
//!
//! A [`Span`] times a phase from its construction to its drop. One
//! thread-local recorder takes what it measured twice:
//!
//! * the **profile** adds the time under the span's `'static` name:
//!   call count, *total* (inclusive) and *self* (children subtracted)
//!   time. [`take_report`] hands a thread's profile over,
//!   [`merge_reports`] folds several threads' profiles into one and
//!   [`render_stats`] prints it;
//! * the **timeline**, while recording is on ([`enable`]), gets a
//!   `B`/`E` slice on the thread's track. A slice carries a label and
//!   a category: [`Span::enter`] draws its name in category `span`,
//!   [`Span::labelled`] a label built per call (`"baseline/gcc/WG"`),
//!   which it builds only while recording is on.
//!
//! ```
//! use cache8t_obs::timeline::{self, Span};
//! {
//!     let _job = Span::labelled("sweep.job", "job", || format!("baseline/{}", "gcc"));
//!     let _replay = Span::enter("WG+RB");
//!     // ... replay, attributed to WG+RB ...
//! }
//! let report = timeline::take_report();
//! assert_eq!(report.len(), 2);
//! ```
//!
//! Every recording thread owns a private event buffer (one uncontended
//! mutex each — the only cross-thread lock is taken once, at first-event
//! registration, and again at [`drain`] time), so recording never
//! contends with other threads and costs a single relaxed atomic load
//! when the timeline is disabled. The profile is recorded either way.
//!
//! The drained [`TimelineSnapshot`] serializes as the Chrome
//! trace-event JSON array format, directly loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev): one track
//! per recording thread (named via [`set_track_name`] — the exec pool
//! names its tracks `worker-0`, `worker-1`, ...), duration events as
//! `B`/`E` pairs, and point events (job failures,
//! trace-store hits) as `i` instants.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use serde::Value;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static TRACKS: Mutex<Vec<Arc<Mutex<Track>>>> = Mutex::new(Vec::new());

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Everything a [`Span`] records into on one thread.
#[derive(Default)]
struct Recorder {
    /// The profile, one entry per span name in first-seen order.
    stats: Vec<SpanStat>,
    /// Child time to subtract, one slot per open span.
    child_time: Vec<Duration>,
    /// The thread's timeline track, registered on first use.
    track: Option<Arc<Mutex<Track>>>,
}

impl Recorder {
    /// This thread's track, registering it on first use. `Span::drop`
    /// records through here and must not panic, so a poisoned lock is
    /// taken over: every update to a track or the registry is one push,
    /// `take` or assignment, which leaves it valid.
    fn track(&mut self) -> MutexGuard<'_, Track> {
        self.track
            .get_or_insert_with(|| {
                let track = Arc::new(Mutex::new(Track::default()));
                TRACKS
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Arc::clone(&track));
                track
            })
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn record(&mut self, name: String, cat: &'static str, phase: TimelinePhase) {
        let event = TimelineEvent {
            name,
            cat,
            phase,
            ts_us: now_us(),
        };
        self.track().events.push(event);
    }
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDER.with(|recorder| f(&mut recorder.borrow_mut()))
}

#[derive(Default)]
struct Track {
    name: Option<String>,
    events: Vec<TimelineEvent>,
}

/// The phase of a [`TimelineEvent`], mirroring the Chrome trace-event
/// `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelinePhase {
    /// Start of a duration slice (`ph: "B"`).
    Begin,
    /// End of a duration slice (`ph: "E"`).
    End,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

impl TimelinePhase {
    /// The Chrome trace-event `ph` letter.
    pub fn code(self) -> &'static str {
        match self {
            TimelinePhase::Begin => "B",
            TimelinePhase::End => "E",
            TimelinePhase::Instant => "i",
        }
    }
}

/// One recorded timeline event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Event name (slice label or instant marker).
    pub name: String,
    /// Category (`"span"`, `"job"`, `"sched"`, `"store"`, `"sim"`), the
    /// Chrome `cat` field used for filtering in the viewer.
    pub cat: &'static str,
    /// Phase (begin / end / instant).
    pub phase: TimelinePhase,
    /// Microseconds since the timeline epoch ([`enable`] time).
    pub ts_us: u64,
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Turns recording on. Idempotent; the first call pins the timestamp
/// epoch.
pub fn enable() {
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off. Already-buffered events stay until [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// `true` while the timeline records. The disabled fast path of every
/// recording helper is this single relaxed load.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a point-in-time marker on this thread's track.
pub fn instant(name: impl Into<String>, cat: &'static str) {
    if is_enabled() {
        with_recorder(|r| r.record(name.into(), cat, TimelinePhase::Instant));
    }
}

/// Names this thread's track (`worker-3`, `main`, ...), shown as the
/// thread name in the trace viewer. Works even while disabled so a
/// track is labelled before its first event.
pub fn set_track_name(name: impl Into<String>) {
    let name = name.into();
    with_recorder(|r| r.track().name = Some(name));
}

/// RAII timer: adds the time from construction to drop under its name
/// in this thread's profile and, while the timeline records, draws a
/// `B`/`E` slice on this thread's track.
///
/// Bind the guard (`let _span = Span::enter("phase");`): an unbound
/// `Span::enter("phase");` statement drops at once and times nothing.
#[derive(Debug)]
#[must_use = "a span times the scope it is bound in"]
pub struct Span {
    name: &'static str,
    /// The slice's label and category; `None` when the timeline was off
    /// at entry.
    slice: Option<(String, &'static str)>,
    start: Instant,
}

impl Span {
    /// Times `name` and draws a slice named `name` in category `span`.
    /// Names are phase identifiers (`"WG+RB"`, `"bench.stream_stats"`),
    /// not per-item strings, so the profile stays small.
    pub fn enter(name: &'static str) -> Span {
        Span::labelled(name, "span", || name.to_owned())
    }

    /// Times `name` and draws a slice labelled `label()` in category
    /// `cat`. The label is built only while the timeline records, so a
    /// `format!`-ed label costs nothing when it is off.
    pub fn labelled(name: &'static str, cat: &'static str, label: impl FnOnce() -> String) -> Span {
        let slice = is_enabled().then(|| (label(), cat));
        with_recorder(|r| {
            r.child_time.push(Duration::ZERO);
            if let Some((label, cat)) = &slice {
                r.record(label.clone(), cat, TimelinePhase::Begin);
            }
        });
        Span {
            name,
            slice,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let total = self.start.elapsed();
        with_recorder(|r| {
            if let Some((label, cat)) = self.slice.take() {
                r.record(label, cat, TimelinePhase::End);
            }
            let children = r.child_time.pop().unwrap_or(Duration::ZERO);
            if let Some(parent) = r.child_time.last_mut() {
                *parent += total;
            }
            let stat = SpanStat {
                name: self.name,
                calls: 1,
                total,
                self_time: total.saturating_sub(children),
            };
            accumulate(&mut r.stats, stat);
        });
    }
}

/// Accumulated timing for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// The span name passed to [`Span::enter`] or [`Span::labelled`].
    pub name: &'static str,
    /// Number of times the span was entered.
    pub calls: u64,
    /// Inclusive wall-clock time (children included).
    pub total: Duration,
    /// Exclusive wall-clock time (children subtracted).
    pub self_time: Duration,
}

/// Folds `stat` into the entry of `stats` with the same name.
fn accumulate(stats: &mut Vec<SpanStat>, stat: SpanStat) {
    match stats.iter_mut().find(|s| s.name == stat.name) {
        Some(existing) => {
            existing.calls += stat.calls;
            existing.total += stat.total;
            existing.self_time += stat.self_time;
        }
        None => stats.push(stat),
    }
}

/// Takes this thread's profile, leaving it empty — how pool workers
/// hand their profile to the batch report before their thread (and its
/// recorder) goes away.
pub fn take_report() -> Vec<SpanStat> {
    with_recorder(|r| std::mem::take(&mut r.stats))
}

/// Merges profiles from several threads into one, folding stats with
/// the same name together, sorted by total time descending.
pub fn merge_reports<I: IntoIterator<Item = Vec<SpanStat>>>(reports: I) -> Vec<SpanStat> {
    let mut merged = Vec::new();
    for stat in reports.into_iter().flatten() {
        accumulate(&mut merged, stat);
    }
    merged.sort_by_key(|s| Reverse(s.total));
    merged
}

/// Renders a profile as an aligned text table
/// (`span / calls / total / self / self%`).
pub fn render_stats(stats: &[SpanStat]) -> String {
    if stats.is_empty() {
        return String::from("(no spans recorded)\n");
    }
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<28} {:>8} {:>12} {:>12} {:>7}\n",
        "span", "calls", "total", "self", "self%"
    ));
    for s in stats {
        let pct = if s.total.as_nanos() == 0 {
            100.0
        } else {
            100.0 * s.self_time.as_secs_f64() / s.total.as_secs_f64()
        };
        out.push_str(&format!(
            "  {:<28} {:>8} {:>12} {:>12} {:>6.1}%\n",
            s.name,
            s.calls,
            format_duration(s.total),
            format_duration(s.self_time),
            pct,
        ));
    }
    out
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// One thread's slice of a drained timeline.
#[derive(Debug, Clone)]
pub struct TrackSnapshot {
    /// Stable per-thread id (registration order; doubles as the Chrome
    /// `tid`).
    pub tid: u64,
    /// Track name set via [`set_track_name`], if any.
    pub name: Option<String>,
    /// Events in recording order (monotone `ts_us` per track).
    pub events: Vec<TimelineEvent>,
}

/// All tracks drained from the global timeline, ready to serialize.
#[derive(Debug, Clone, Default)]
pub struct TimelineSnapshot {
    /// Per-thread tracks in `tid` order.
    pub tracks: Vec<TrackSnapshot>,
}

/// Takes every buffered event out of the timeline (buffers stay
/// registered, so threads keep their `tid` across drains). Recording
/// state is unchanged; call [`disable`] first for a quiescent drain.
pub fn drain() -> TimelineSnapshot {
    let tracks: Vec<Arc<Mutex<Track>>> = TRACKS
        .lock()
        .expect("timeline registry poisoned")
        .iter()
        .map(Arc::clone)
        .collect();
    let tracks = tracks
        .iter()
        .enumerate()
        .map(|(tid, track)| {
            let mut track = track.lock().expect("timeline track poisoned");
            TrackSnapshot {
                tid: tid as u64,
                name: track.name.clone(),
                events: std::mem::take(&mut track.events),
            }
        })
        .filter(|t| !t.events.is_empty() || t.name.is_some())
        .collect();
    TimelineSnapshot { tracks }
}

impl TimelineSnapshot {
    /// Total events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// `true` when no track recorded anything.
    pub fn is_empty(&self) -> bool {
        self.event_count() == 0
    }

    /// The snapshot as a Chrome trace-event JSON value:
    /// `{"traceEvents": [...], "displayTimeUnit": "ms"}` with one
    /// `thread_name` metadata record per track.
    pub fn to_value(&self) -> Value {
        let mut events = Vec::new();
        for track in &self.tracks {
            let label = track
                .name
                .clone()
                .unwrap_or_else(|| format!("thread-{}", track.tid));
            events.push(Value::Object(vec![
                ("name".to_owned(), Value::Str("thread_name".to_owned())),
                ("ph".to_owned(), Value::Str("M".to_owned())),
                ("pid".to_owned(), Value::U64(1)),
                ("tid".to_owned(), Value::U64(track.tid)),
                (
                    "args".to_owned(),
                    Value::Object(vec![("name".to_owned(), Value::Str(label))]),
                ),
            ]));
            for event in &track.events {
                let mut fields = vec![
                    ("name".to_owned(), Value::Str(event.name.clone())),
                    ("cat".to_owned(), Value::Str(event.cat.to_owned())),
                    ("ph".to_owned(), Value::Str(event.phase.code().to_owned())),
                    ("ts".to_owned(), Value::U64(event.ts_us)),
                    ("pid".to_owned(), Value::U64(1)),
                    ("tid".to_owned(), Value::U64(track.tid)),
                ];
                if event.phase == TimelinePhase::Instant {
                    // Thread-scoped instant: renders as a small arrow on
                    // the owning track instead of a full-height line.
                    fields.push(("s".to_owned(), Value::Str("t".to_owned())));
                }
                events.push(Value::Object(fields));
            }
        }
        Value::Object(vec![
            ("traceEvents".to_owned(), Value::Array(events)),
            ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
        ])
    }

    /// Writes the snapshot as Chrome trace-event JSON.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_chrome_json<W: Write>(&self, mut writer: W) -> io::Result<()> {
        let text = serde_json::to_string(&self.to_value())
            .expect("serializing a timeline snapshot cannot fail");
        writer.write_all(text.as_bytes())?;
        writer.write_all(b"\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_split_self_and_total() {
        take_report();
        {
            let _outer = Span::enter("outer");
            spin(Duration::from_millis(2));
            {
                let _inner = Span::enter("inner");
                spin(Duration::from_millis(2));
            }
        }
        let stats = take_report();
        let outer = stats.iter().find(|s| s.name == "outer").expect("outer");
        let inner = stats.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.total >= inner.total);
        assert!(outer.self_time <= outer.total - inner.total + Duration::from_millis(1));
        assert_eq!(inner.self_time, inner.total);
    }

    #[test]
    fn repeated_spans_accumulate_calls() {
        take_report();
        for _ in 0..3 {
            let _s = Span::enter("repeat");
            spin(Duration::from_micros(100));
        }
        let stats = take_report();
        let s = stats.iter().find(|s| s.name == "repeat").expect("repeat");
        assert_eq!(s.calls, 3);
        assert!(s.total >= Duration::from_micros(300));
        assert!(!render_stats(&stats).is_empty());
        assert!(
            take_report().is_empty(),
            "take_report leaves the profile empty"
        );
    }
}
