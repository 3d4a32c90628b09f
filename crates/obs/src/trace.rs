//! Structured event tracing: a bounded ring of [`TraceEvent`]s with an
//! environment-selected level and a JSONL sink.
//!
//! Tracing follows the same philosophy as the binary trace format in
//! `cache8t-trace`: events are cheap fixed-size records (no
//! allocation per event), serialization is explicit and versioned by
//! shape, and readers get typed errors. The level is read once from
//! `CACHE8T_TRACE` (`off`, `event`, `verbose`; unset means
//! `off`) so the hot path pays a single integer compare
//! when tracing is disabled.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::OnceLock;

use serde::{DeError, Deserialize, Serialize};

/// How much event detail to record.
///
/// Levels are ordered: each level includes everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (the default).
    Off,
    /// Record structural events: flushes, fills, evictions, RMW
    /// sequences, suppressed writebacks.
    Event,
    /// Additionally record every individual access.
    Verbose,
}

impl TraceLevel {
    /// Environment variable controlling the global trace level.
    pub const ENV_VAR: &'static str = "CACHE8T_TRACE";

    /// Parses a level name (case-insensitive); unknown names are
    /// `None`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "" => Some(TraceLevel::Off),
            "event" => Some(TraceLevel::Event),
            "verbose" => Some(TraceLevel::Verbose),
            _ => None,
        }
    }

    /// The level selected by `CACHE8T_TRACE`, read once per process.
    ///
    /// Unset or unrecognized values fall back to [`TraceLevel::Off`]
    /// (a typo in the variable must not silently slow a run down), but
    /// an unrecognized value earns a one-time stderr warning so a
    /// mistyped level does not silently produce an empty trace.
    pub fn from_env() -> TraceLevel {
        static LEVEL: OnceLock<TraceLevel> = OnceLock::new();
        *LEVEL.get_or_init(|| match std::env::var(Self::ENV_VAR) {
            Ok(v) => TraceLevel::parse(&v).unwrap_or_else(|| {
                eprintln!(
                    "warning: unrecognized {}={v:?} (expected off|event|verbose); \
                     tracing stays off",
                    Self::ENV_VAR
                );
                TraceLevel::Off
            }),
            Err(_) => TraceLevel::Off,
        })
    }

    /// The level's canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Event => "event",
            TraceLevel::Verbose => "verbose",
        }
    }
}

/// Which part of the stack emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Component {
    /// The cache backend (residency, fills, evictions).
    Cache,
    /// The RMW (read-modify-write) 8T baseline controller.
    Rmw,
    /// The Write Grouping controller (WG and WG+RB).
    Wg,
    /// The word-coalescing write buffer controller.
    Coalesce,
    /// The differential conformance harness (`cache8t-conform`).
    Conform,
}

/// What happened. The taxonomy mirrors the paper's traffic breakdown:
/// array accesses split into demand reads, write-group flushes, RMW
/// sequences, fills, and evictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// One CPU-visible access reached the controller
    /// (verbose level only). `detail` = 0 for read, 1 for write.
    Access,
    /// A set buffer was filled from the array. `detail` = words read.
    BufferFill,
    /// A write group flushed to the array. `detail` = group length
    /// (distinct dirty words written back).
    GroupFlush,
    /// A writeback was elided because every buffered word was silent
    /// (matched the array contents). `detail` = words compared.
    SilentElide,
    /// A read was served from the set buffer, bypassing the array.
    Bypass,
    /// An RMW sequence ran on the array. `detail` = burst size
    /// (writes folded into one read-modify-write pass).
    RmwSequence,
    /// A cache line was filled from the next level. `detail` = words.
    LineFill,
    /// A line was evicted. `detail` = 1 when dirty (written back),
    /// 0 when clean.
    Eviction,
    /// The conformance harness observed a scheme disagreeing with the
    /// golden reference (wrong read value, lost write, broken
    /// invariant). `tick` is the op index in the replayed trace;
    /// `detail` is the divergence-kind discriminant assigned by
    /// `cache8t-conform`.
    Divergence,
}

/// One structured trace record.
///
/// `detail` is a kind-specific payload (documented per
/// [`EventKind`] variant) kept as a bare `u64` so emitting an event
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotone request index at emission time.
    pub tick: u64,
    /// Emitting component.
    pub component: Component,
    /// Event classification.
    pub kind: EventKind,
    /// The address involved (word address; 0 when not applicable).
    pub addr: u64,
    /// Kind-specific payload.
    pub detail: u64,
}

impl TraceEvent {
    /// Convenience constructor.
    pub fn new(tick: u64, component: Component, kind: EventKind, addr: u64, detail: u64) -> Self {
        TraceEvent {
            tick,
            component,
            kind,
            addr,
            detail,
        }
    }
}

/// Ring capacity of the tracer each controller stack's
/// `cache8t_core::StackObs` owns.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// A level-gated event recorder.
///
/// Each controller stack owns one tracer; the level decides which
/// [`Tracer::emit`] calls actually record. With the level at
/// [`TraceLevel::Off`] an emit is a single branch on an enum
/// discriminant — cheap enough to leave in release hot paths. Recorded
/// events sit in a bounded ring: the most recent `capacity` are kept,
/// older ones are dropped and counted.
#[derive(Debug, Clone)]
pub struct Tracer {
    level: TraceLevel,
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer at an explicit level keeping at most `capacity` events
    /// (minimum 1).
    pub fn new(level: TraceLevel, capacity: usize) -> Self {
        Tracer {
            level,
            events: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// The active level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Changes the level, e.g. to force tracing on in tests regardless
    /// of `CACHE8T_TRACE`. Already-recorded events are kept.
    pub fn set_level(&mut self, level: TraceLevel) {
        self.level = level;
    }

    /// Records a structural event if the level allows it.
    #[inline]
    pub fn emit(&mut self, event: TraceEvent) {
        if self.level >= TraceLevel::Event {
            self.record(event);
        }
    }

    /// Records a verbose (per-access) event if the level allows it.
    #[inline]
    pub fn emit_verbose(&mut self, event: TraceEvent) {
        if self.level >= TraceLevel::Verbose {
            self.record(event);
        }
    }

    /// Appends an event, dropping the oldest when the ring is full.
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of recorded events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discards all recorded events (dropped count included).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// Writes every recorded event as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_jsonl<W: Write>(&self, writer: W) -> io::Result<()> {
        write_jsonl(self.events().copied(), writer)
    }
}

/// Writes `events` as one JSON object per line, the JSONL format
/// [`parse_jsonl_line`] reads back.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_jsonl<W: Write>(
    events: impl IntoIterator<Item = TraceEvent>,
    mut writer: W,
) -> io::Result<()> {
    for event in events {
        let line = serde_json::to_string(&event).expect("serializing an event cannot fail");
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
    }
    Ok(())
}

/// Parses one JSONL line back into a [`TraceEvent`].
///
/// # Errors
///
/// Returns a [`DeError`] when the line is not valid JSON or does not
/// have the `TraceEvent` shape.
pub fn parse_jsonl_line(line: &str) -> Result<TraceEvent, DeError> {
    let value = serde_json::from_str(line)?;
    TraceEvent::from_json_value(&value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(tick: u64) -> TraceEvent {
        TraceEvent::new(
            tick,
            Component::Wg,
            EventKind::GroupFlush,
            0x40 + tick,
            tick % 8,
        )
    }

    #[test]
    fn levels_are_ordered() {
        assert!(TraceLevel::Off < TraceLevel::Event);
        assert!(TraceLevel::Event < TraceLevel::Verbose);
    }

    #[test]
    fn parse_accepts_known_names_only() {
        assert_eq!(TraceLevel::parse("EVENT"), Some(TraceLevel::Event));
        assert_eq!(TraceLevel::parse(" verbose "), Some(TraceLevel::Verbose));
        assert_eq!(TraceLevel::parse("0"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("everything"), None);
        // No `summary` level: it would record exactly what `off` does.
        assert_eq!(TraceLevel::parse("summary"), None);
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let mut tracer = Tracer::new(TraceLevel::Event, 4);
        for t in 0..10 {
            tracer.emit(event(t));
        }
        assert_eq!(tracer.len(), 4);
        assert_eq!(tracer.dropped(), 6);
        let ticks: Vec<u64> = tracer.events().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9]);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tracer = Tracer::new(TraceLevel::Off, 16);
        tracer.emit(event(1));
        tracer.emit_verbose(event(2));
        assert!(tracer.is_empty());
    }

    #[test]
    fn event_level_skips_verbose_records() {
        let mut tracer = Tracer::new(TraceLevel::Event, 16);
        tracer.emit(event(1));
        tracer.emit_verbose(event(2));
        assert_eq!(tracer.len(), 1);
    }

    #[test]
    fn jsonl_roundtrips_through_parse() {
        let mut tracer = Tracer::new(TraceLevel::Verbose, 16);
        let original = vec![
            TraceEvent::new(0, Component::Cache, EventKind::LineFill, 0x80, 8),
            TraceEvent::new(1, Component::Conform, EventKind::Divergence, 0x80, 1),
            TraceEvent::new(2, Component::Rmw, EventKind::RmwSequence, 0x88, 3),
        ];
        for e in &original {
            tracer.emit(*e);
        }
        let mut buffer = Vec::new();
        tracer.write_jsonl(&mut buffer).expect("vec write");
        let text = String::from_utf8(buffer).expect("utf8");
        let parsed: Vec<TraceEvent> = text
            .lines()
            .map(|l| parse_jsonl_line(l).expect("line parses"))
            .collect();
        assert_eq!(parsed, original);
    }
}
