//! Wall-clock execution timelines in Chrome trace-event format.
//!
//! Where [`crate::span`] answers "*how much* time went into each
//! phase", the timeline answers "*when* did it happen, and on which
//! thread": every recording thread owns a private event buffer (one
//! uncontended mutex each — the only cross-thread lock is taken once,
//! at first-event registration, and again at [`drain`] time), so
//! recording never contends with other threads and costs a single
//! relaxed atomic load when the timeline is disabled.
//!
//! The drained [`TimelineSnapshot`] serializes as the Chrome
//! trace-event JSON array format, directly loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev): one track
//! per recording thread (named via [`set_track_name`] — the exec pool
//! names its tracks `worker-0`, `worker-1`, ...), duration events as
//! `B`/`E` pairs, and point events (job retries and failures,
//! trace-store hits) as `i` instants.
//!
//! The profiler in [`crate::span`] mirrors every span into the timeline
//! when it is enabled, so `span!`-instrumented phases show up on their
//! thread's track for free.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::Value;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static TRACKS: Mutex<Vec<Arc<Mutex<Track>>>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD_TRACK: RefCell<Option<ThreadTrack>> = const { RefCell::new(None) };
}

struct ThreadTrack {
    track: Arc<Mutex<Track>>,
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
    /// Category (`"span"`, `"job"`, `"sched"`, `"store"`), the Chrome
    /// `cat` field used for filtering in the viewer.
    pub cat: &'static str,
    /// Phase (begin / end / instant).
    pub phase: TimelinePhase,
    /// Microseconds since the timeline epoch ([`enable`] time).
    pub ts_us: u64,
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

fn with_thread_track<R>(f: impl FnOnce(&mut Track) -> R) -> R {
    THREAD_TRACK.with(|cell| {
        let mut slot = cell.borrow_mut();
        let entry = slot.get_or_insert_with(|| {
            let track = Arc::new(Mutex::new(Track::default()));
            TRACKS
                .lock()
                .expect("timeline registry poisoned")
                .push(Arc::clone(&track));
            ThreadTrack { track }
        });
        let result = f(&mut entry.track.lock().expect("timeline track poisoned"));
        result
    })
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

fn record(name: String, cat: &'static str, phase: TimelinePhase) {
    let event = TimelineEvent {
        name,
        cat,
        phase,
        ts_us: now_us(),
    };
    with_thread_track(|track| track.events.push(event));
}

/// Records the start of a duration slice on this thread's track. The
/// span profiler mirrors its spans through this pair; everything else
/// opens slices with [`TimelineSpan`].
pub(crate) fn begin(name: impl Into<String>, cat: &'static str) {
    if !is_enabled() {
        return;
    }
    record(name.into(), cat, TimelinePhase::Begin);
}

/// Records the end of a duration slice opened with [`begin`].
pub(crate) fn end(name: impl Into<String>, cat: &'static str) {
    if !is_enabled() {
        return;
    }
    record(name.into(), cat, TimelinePhase::End);
}

/// Records a point-in-time marker on this thread's track.
pub fn instant(name: impl Into<String>, cat: &'static str) {
    if !is_enabled() {
        return;
    }
    record(name.into(), cat, TimelinePhase::Instant);
}

/// Names this thread's track (`worker-3`, `main`, ...), shown as the
/// thread name in the trace viewer. Works even while disabled so a
/// track is labelled before its first event.
pub fn set_track_name(name: impl Into<String>) {
    let name = name.into();
    with_thread_track(|track| track.name = Some(name));
}

/// RAII duration slice: records `B` at construction and `E` on drop.
///
/// Inert (records nothing, allocates nothing) when the timeline is
/// disabled at construction time.
#[derive(Debug)]
pub struct TimelineSpan {
    name: Option<String>,
    cat: &'static str,
}

impl TimelineSpan {
    /// Opens a slice named `name` in category `cat`.
    pub fn enter(name: impl Into<String>, cat: &'static str) -> TimelineSpan {
        if !is_enabled() {
            return TimelineSpan { name: None, cat };
        }
        let name = name.into();
        record(name.clone(), cat, TimelinePhase::Begin);
        TimelineSpan {
            name: Some(name),
            cat,
        }
    }

    /// Like [`enter`](TimelineSpan::enter), but builds the (possibly
    /// allocating) name only when the timeline is enabled — the right
    /// form for `format!`-ed labels on hot paths.
    pub fn enter_lazy(name: impl FnOnce() -> String, cat: &'static str) -> TimelineSpan {
        if !is_enabled() {
            return TimelineSpan { name: None, cat };
        }
        Self::enter(name(), cat)
    }
}

impl Drop for TimelineSpan {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            record(name, self.cat, TimelinePhase::End);
        }
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
