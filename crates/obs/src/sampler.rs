//! Continuous telemetry: a deterministic op-count-cadence sampler.
//!
//! A [`Sampler`] snapshots a [`MetricRegistry`] every
//! [`cadence`](SamplerConfig::cadence) replayed operations and turns
//! each snapshot into a [`SeriesSample`] — the *per-window deltas* of
//! every counter, plus an instantaneous write-buffer occupancy
//! histogram probed from the controller. A sampler with a writer
//! streams each window out as one JSON line and keeps none, so a 1 B-op
//! replay holds flat memory while still exporting its full history; a
//! sampler without one keeps every window it emits.
//!
//! Determinism is the design invariant: a sample row contains only
//! quantities derived from the replayed stream (op indexes and counter
//! deltas), never wall-clock time, so the same trace and seed produce
//! byte-identical JSONL regardless of `--jobs` or machine speed.
//! Wall-clock rates (Mops/s) are derived by *consumers* — the progress
//! line and `cache8t watch` — from sample arrival times.
//!
//! Schema (one object per line, `"v"` is [`SERIES_SCHEMA_VERSION`]):
//!
//! ```json
//! {"v":"1","bench":"gcc","scheme":"WG","window":3,
//!  "op_start":196608,"op_end":262144,
//!  "deltas":{"cache.line_fills":412,"ctrl.reads":39321,...},
//!  "occupancy":[0,2,1,5]}
//! ```

use std::io::{self, Write};

use serde::Value;

use crate::metrics::MetricRegistry;

/// Default sampling cadence: one window every 65 536 replayed ops.
pub const DEFAULT_CADENCE: u64 = 65_536;

/// Version tag stamped into every series row (`"v"` field).
pub const SERIES_SCHEMA_VERSION: &str = "1";

/// How a [`Sampler`] windows its samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Replayed operations per window.
    pub cadence: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            cadence: DEFAULT_CADENCE,
        }
    }
}

impl SamplerConfig {
    /// A config with the given cadence.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is 0.
    pub fn with_cadence(cadence: u64) -> Self {
        assert!(cadence > 0, "sampler cadence must be positive");
        SamplerConfig { cadence }
    }
}

/// One telemetry window: counter deltas over a span of replayed ops.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSample {
    /// Benchmark label (empty for single-trace replays).
    pub bench: String,
    /// Scheme name (`"6T"`, `"RMW"`, `"WG"`, `"WG+RB"`, ...).
    pub scheme: String,
    /// Zero-based window index.
    pub window: u64,
    /// First replayed-op index covered by this window.
    pub op_start: u64,
    /// One past the last replayed-op index covered (so
    /// `op_end - op_start` is the window's op count).
    pub op_end: u64,
    /// Per-window counter deltas, sorted by name, zero deltas elided.
    pub deltas: Vec<(String, u64)>,
    /// Instantaneous write-buffer occupancy histogram at the window
    /// boundary: index = modified words in a live buffer, value =
    /// buffers with that occupancy. Empty for bufferless schemes.
    pub occupancy: Vec<u64>,
}

impl SeriesSample {
    /// Replayed operations covered by this window.
    pub fn ops(&self) -> u64 {
        self.op_end - self.op_start
    }

    /// The window delta of the counter called `name` (0 when absent).
    pub fn delta(&self, name: &str) -> u64 {
        self.deltas
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.deltas[i].1)
            .unwrap_or(0)
    }

    /// Requests serviced in this window (`ctrl.reads + ctrl.writes`).
    pub fn requests(&self) -> u64 {
        self.delta("ctrl.reads") + self.delta("ctrl.writes")
    }

    /// Window miss rate: line fills per serviced request.
    pub fn miss_rate(&self) -> f64 {
        let requests = self.requests();
        if requests == 0 {
            0.0
        } else {
            self.delta("cache.line_fills") as f64 / requests as f64
        }
    }

    /// Window silent-write-suppression rate: silently suppressed word
    /// writes per write request.
    pub fn silent_rate(&self) -> f64 {
        let writes = self.delta("ctrl.writes");
        if writes == 0 {
            0.0
        } else {
            self.delta("wg.silent_suppressed") as f64 / writes as f64
        }
    }

    /// Window write-back traffic: dirty evictions plus Set-Buffer
    /// write-backs.
    pub fn writeback_traffic(&self) -> u64 {
        self.delta("cache.dirty_evictions") + self.delta("wg.writebacks")
    }

    /// Window WG grouping efficiency: writes retired through grouped
    /// row writes per write request (0 for non-WG schemes).
    pub fn grouping_efficiency(&self) -> f64 {
        let writes = self.delta("ctrl.writes");
        if writes == 0 {
            0.0
        } else {
            self.delta("wg.grouped_writes") as f64 / writes as f64
        }
    }

    /// Mean live-buffer occupancy (modified words per live buffer) at
    /// the window boundary, or 0.0 when no buffer was live.
    pub fn mean_occupancy(&self) -> f64 {
        let buffers: u64 = self.occupancy.iter().sum();
        if buffers == 0 {
            return 0.0;
        }
        let words: u64 = self
            .occupancy
            .iter()
            .enumerate()
            .map(|(words, &count)| words as u64 * count)
            .sum();
        words as f64 / buffers as f64
    }

    /// The sample as a JSON value in the series row schema.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("v".to_owned(), Value::Str(SERIES_SCHEMA_VERSION.to_owned())),
            ("bench".to_owned(), Value::Str(self.bench.clone())),
            ("scheme".to_owned(), Value::Str(self.scheme.clone())),
            ("window".to_owned(), Value::U64(self.window)),
            ("op_start".to_owned(), Value::U64(self.op_start)),
            ("op_end".to_owned(), Value::U64(self.op_end)),
            (
                "deltas".to_owned(),
                Value::Object(
                    self.deltas
                        .iter()
                        .map(|(name, v)| (name.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "occupancy".to_owned(),
                Value::Array(self.occupancy.iter().map(|&c| Value::U64(c)).collect()),
            ),
        ])
    }

    /// Parses a sample back from a series row value, `None` when the
    /// shape or version does not match.
    pub fn from_value(value: &Value) -> Option<SeriesSample> {
        if value.get("v").and_then(Value::as_str) != Some(SERIES_SCHEMA_VERSION) {
            return None;
        }
        let deltas_value = value.get("deltas")?;
        let Value::Object(entries) = deltas_value else {
            return None;
        };
        let mut deltas = Vec::with_capacity(entries.len());
        for (name, v) in entries {
            deltas.push((name.clone(), v.as_u64()?));
        }
        deltas.sort_by(|a, b| a.0.cmp(&b.0));
        let occupancy = value
            .get("occupancy")?
            .as_array()?
            .iter()
            .map(Value::as_u64)
            .collect::<Option<Vec<u64>>>()?;
        Some(SeriesSample {
            bench: value.get("bench")?.as_str()?.to_owned(),
            scheme: value.get("scheme")?.as_str()?.to_owned(),
            window: value.get("window")?.as_u64()?,
            op_start: value.get("op_start")?.as_u64()?,
            op_end: value.get("op_end")?.as_u64()?,
            deltas,
            occupancy,
        })
    }

    /// Serializes the sample as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("series rows always serialize")
    }
}

/// Parses one JSONL series line, `None` on malformed input.
pub fn parse_series_line(line: &str) -> Option<SeriesSample> {
    let value: Value = serde_json::from_str(line).ok()?;
    SeriesSample::from_value(&value)
}

/// The windowed sampler: counts replayed ops, diffs counter snapshots
/// at every window boundary, and either keeps each sample or, with a
/// writer attached, streams it as JSONL.
///
/// Protocol: call [`note_op`](Sampler::note_op) once per replayed op
/// (or [`note_ops`](Sampler::note_ops) once per run of at most
/// [`ops_to_boundary`](Sampler::ops_to_boundary) ops); when it returns
/// `true` a window boundary was crossed and the caller must call
/// [`sample`](Sampler::sample) with the live registry. After the
/// replay, [`finish`](Sampler::finish) emits the final partial window
/// and flushes the writer.
pub struct Sampler {
    bench: String,
    scheme: String,
    config: SamplerConfig,
    ops_seen: u64,
    next_boundary: u64,
    window: u64,
    window_start_op: u64,
    prev: Vec<u64>,
    /// Every emitted window, unless a writer streams them.
    samples: Vec<SeriesSample>,
    emitted: u64,
    writer: Option<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("bench", &self.bench)
            .field("scheme", &self.scheme)
            .field("config", &self.config)
            .field("ops_seen", &self.ops_seen)
            .field("emitted", &self.emitted)
            .field("kept", &self.samples.len())
            .field("has_writer", &self.writer.is_some())
            .finish()
    }
}

impl Sampler {
    /// A sampler labelling its rows with `bench`/`scheme`.
    ///
    /// # Panics
    ///
    /// Panics if the config's cadence is 0.
    pub fn new(bench: &str, scheme: &str, config: SamplerConfig) -> Self {
        assert!(config.cadence > 0, "sampler cadence must be positive");
        Sampler {
            bench: bench.to_owned(),
            scheme: scheme.to_owned(),
            config,
            ops_seen: 0,
            next_boundary: config.cadence,
            window: 0,
            window_start_op: 0,
            prev: Vec::new(),
            samples: Vec::new(),
            emitted: 0,
            writer: None,
        }
    }

    /// Attaches a JSONL writer; every subsequent sample streams out as
    /// one line and is not kept.
    pub fn with_writer(mut self, writer: Box<dyn Write + Send>) -> Self {
        self.writer = Some(writer);
        self
    }

    /// Records one replayed op; `true` means a window boundary was hit
    /// and [`sample`](Sampler::sample) must be called.
    ///
    /// The comparison is `>=`, not `==`: if a caller ever skips a
    /// boundary (e.g. a controller without an observability surface has
    /// no registry to sample), the sampler asks again at the next op
    /// instead of silently never sampling again.
    #[inline]
    pub fn note_op(&mut self) -> bool {
        self.note_ops(1)
    }

    /// Ops until [`note_op`](Sampler::note_op) would next return `true`:
    /// the longest run a batched replay may service before it must stop
    /// and check for a window boundary (at least 1, so a skipped
    /// boundary is asked for again at the next op).
    #[inline]
    pub fn ops_to_boundary(&self) -> u64 {
        self.next_boundary.saturating_sub(self.ops_seen).max(1)
    }

    /// Records `n` replayed ops at once; `true` means a window boundary
    /// was hit and [`sample`](Sampler::sample) must be called. With
    /// `n <= ops_to_boundary()` this is exactly `n` calls of
    /// [`note_op`](Sampler::note_op): the boundary can only fall on the
    /// last of them.
    #[inline]
    pub fn note_ops(&mut self, n: u64) -> bool {
        self.ops_seen += n;
        self.ops_seen >= self.next_boundary
    }

    /// Re-snapshots the counter baseline without emitting a window.
    /// Called after a mid-replay counter reset (the warm-up boundary)
    /// so the enclosing window's deltas stay non-negative.
    pub fn rebaseline(&mut self, registry: &MetricRegistry) {
        self.prev.clear();
        self.prev.extend(registry.counters().map(|(_, v)| v));
    }

    /// Closes the current window: diffs `registry`'s counters against
    /// the previous snapshot, records `occupancy`, and streams the
    /// sample to the attached writer, or keeps it when there is none.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the attached writer (never fails
    /// without one).
    pub fn sample(&mut self, registry: &MetricRegistry, occupancy: Vec<u64>) -> io::Result<()> {
        let mut deltas = Vec::new();
        let mut current = Vec::with_capacity(self.prev.len());
        for (i, (name, value)) in registry.counters().enumerate() {
            let before = self.prev.get(i).copied().unwrap_or(0);
            // saturating: a counter reset without rebaseline() clamps
            // to 0 instead of wrapping.
            let delta = value.saturating_sub(before);
            if delta > 0 {
                deltas.push((name.to_owned(), delta));
            }
            current.push(value);
        }
        deltas.sort_by(|a, b| a.0.cmp(&b.0));
        self.prev = current;
        let sample = SeriesSample {
            bench: self.bench.clone(),
            scheme: self.scheme.clone(),
            window: self.window,
            op_start: self.window_start_op,
            op_end: self.ops_seen,
            deltas,
            occupancy,
        };
        self.window += 1;
        self.window_start_op = self.ops_seen;
        self.next_boundary = self.ops_seen + self.config.cadence;
        match &mut self.writer {
            Some(writer) => {
                let line = sample.to_json_line();
                writer.write_all(line.as_bytes())?;
                writer.write_all(b"\n")?;
            }
            None => self.samples.push(sample),
        }
        self.emitted += 1;
        Ok(())
    }

    /// Emits the final partial window and flushes the writer.
    ///
    /// A trailing window is emitted when ops are pending *or* when
    /// counters moved since the last snapshot: a replay's end-of-stream
    /// `flush()` (write-buffer drain, final write-backs) can advance
    /// counters after the last op, and when the op count is an exact
    /// multiple of the cadence there is no pending partial window to
    /// absorb those deltas — without this they would never land in any
    /// window and `--series-out` totals would not reconcile with the
    /// final registry counters. Such a flush-only window has
    /// `op_start == op_end`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the attached writer.
    pub fn finish(&mut self, registry: &MetricRegistry, occupancy: Vec<u64>) -> io::Result<()> {
        if self.ops_seen > self.window_start_op || self.counters_moved(registry) {
            self.sample(registry, occupancy)?;
        }
        self.flush_writer()
    }

    /// `true` if any counter advanced past the previous snapshot
    /// (saturating, mirroring [`sample`](Sampler::sample)'s delta
    /// arithmetic — a reset without rebaseline reads as no movement).
    fn counters_moved(&self, registry: &MetricRegistry) -> bool {
        registry
            .counters()
            .enumerate()
            .any(|(i, (_, value))| value.saturating_sub(self.prev.get(i).copied().unwrap_or(0)) > 0)
    }

    /// Flushes the attached JSONL writer without emitting a window.
    /// Streamed replay calls this at chunk seams so live consumers
    /// (`cache8t watch`) see completed windows promptly; it never
    /// changes what bytes are written, only when.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the attached writer.
    pub fn flush_writer(&mut self) -> io::Result<()> {
        if let Some(writer) = &mut self.writer {
            writer.flush()?;
        }
        Ok(())
    }

    /// The kept samples, oldest first: every window emitted, or none
    /// when a writer streams them.
    pub fn samples(&self) -> &[SeriesSample] {
        &self.samples
    }

    /// Takes the kept samples, oldest first.
    pub fn take_samples(&mut self) -> Vec<SeriesSample> {
        std::mem::take(&mut self.samples)
    }

    /// Total samples emitted (streamed or kept).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Total replayed ops noted so far.
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }
}

/// Splits a per-window signal into phases: maximal runs whose values
/// stay within `tolerance` (absolute) of the running phase mean. Used
/// by `cache8t report-series` to produce phase-resolved cache-behavior
/// profiles — a workload whose miss rate steps from 2% to 9% mid-replay
/// reports as two phases instead of one misleading average.
///
/// Returns half-open `(start, end)` window-index ranges covering the
/// whole input (empty input → no phases). Deterministic: depends only
/// on the values and the tolerance.
pub fn segment_phases(values: &[f64], tolerance: f64) -> Vec<(usize, usize)> {
    let mut phases = Vec::new();
    let mut start = 0usize;
    let mut sum = 0.0f64;
    for (i, &v) in values.iter().enumerate() {
        if i > start {
            let mean = sum / (i - start) as f64;
            if (v - mean).abs() > tolerance {
                phases.push((start, i));
                start = i;
                sum = 0.0;
            }
        }
        sum += v;
    }
    if start < values.len() {
        phases.push((start, values.len()));
    }
    phases
}

/// The block characters used by [`sparkline`], lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders `values` as a unicode sparkline, scaled to the observed
/// min..max range (a flat series renders as all-low).
pub fn sparkline(values: &[f64]) -> String {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= min || !v.is_finite() {
                SPARKS[0]
            } else {
                let t = (v - min) / (max - min);
                let idx = (t * (SPARKS.len() - 1) as f64).round() as usize;
                SPARKS[idx.min(SPARKS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(counts: &[(&str, u64)]) -> MetricRegistry {
        let mut r = MetricRegistry::new();
        for (name, v) in counts {
            let id = r.counter(name);
            r.add(id, *v);
        }
        r
    }

    #[test]
    fn windows_carry_counter_deltas_not_totals() {
        let mut s = Sampler::new("gcc", "WG", SamplerConfig::with_cadence(4));
        let mut r = registry_with(&[("ctrl.reads", 0), ("ctrl.writes", 0)]);
        for _ in 0..4 {
            assert!(!s.note_op() || s.ops_seen() == 4);
        }
        let id = r.counter("ctrl.reads");
        r.add(id, 10);
        s.sample(&r, Vec::new()).unwrap();
        r.add(id, 7);
        for _ in 0..4 {
            s.note_op();
        }
        s.sample(&r, Vec::new()).unwrap();
        let samples = s.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].delta("ctrl.reads"), 10);
        assert_eq!(
            samples[1].delta("ctrl.reads"),
            7,
            "second window is a delta"
        );
        assert_eq!(samples[1].op_start, 4);
        assert_eq!(samples[1].op_end, 8);
    }

    #[test]
    fn note_op_fires_exactly_on_cadence_boundaries() {
        let mut s = Sampler::new("", "6T", SamplerConfig::with_cadence(3));
        let r = MetricRegistry::new();
        let mut fired = Vec::new();
        for i in 1..=9u64 {
            if s.note_op() {
                fired.push(i);
                s.sample(&r, Vec::new()).unwrap();
            }
        }
        assert_eq!(fired, vec![3, 6, 9]);
    }

    #[test]
    fn finish_emits_the_partial_tail_window() {
        let mut s = Sampler::new("", "RMW", SamplerConfig::with_cadence(100));
        let r = registry_with(&[("ctrl.reads", 5)]);
        for _ in 0..42 {
            assert!(!s.note_op());
        }
        s.finish(&r, Vec::new()).unwrap();
        let last = s.samples().last().expect("partial window emitted");
        assert_eq!(last.op_start, 0);
        assert_eq!(last.op_end, 42);
        assert_eq!(last.delta("ctrl.reads"), 5);
        // A second finish with no new ops emits nothing.
        s.finish(&r, Vec::new()).unwrap();
        assert_eq!(s.emitted(), 1);
    }

    #[test]
    fn finish_captures_post_loop_deltas_at_exact_cadence_multiples() {
        // 6 ops at cadence 3: both boundaries fire and there is no
        // pending partial window. A post-loop flush() then moves the
        // counters — finish must still emit a trailing window carrying
        // those deltas or the series would not reconcile.
        let mut s = Sampler::new("", "WG", SamplerConfig::with_cadence(3));
        let mut r = MetricRegistry::new();
        let id = r.counter("wg.writebacks");
        for _ in 0..6 {
            if s.note_op() {
                r.add(id, 2);
                s.sample(&r, Vec::new()).unwrap();
            }
        }
        assert_eq!(s.emitted(), 2);
        r.add(id, 7); // the end-of-replay buffer drain
        s.finish(&r, Vec::new()).unwrap();
        assert_eq!(s.emitted(), 3, "flush deltas get their own window");
        let tail = s.samples().last().unwrap();
        assert_eq!(tail.op_start, 6);
        assert_eq!(tail.op_end, 6, "flush-only window spans zero ops");
        assert_eq!(tail.delta("wg.writebacks"), 7);
        // Window totals reconcile with the final registry counters.
        let total: u64 = s.samples().iter().map(|w| w.delta("wg.writebacks")).sum();
        assert_eq!(total, 11);
        // And with nothing further pending, finish stays idempotent.
        s.finish(&r, Vec::new()).unwrap();
        assert_eq!(s.emitted(), 3);
    }

    #[test]
    fn window_totals_reconcile_at_non_multiple_of_cadence() {
        let mut s = Sampler::new("", "RMW", SamplerConfig::with_cadence(4));
        let mut r = MetricRegistry::new();
        let id = r.counter("ctrl.reads");
        for _ in 0..10 {
            r.add(id, 1);
            if s.note_op() {
                s.sample(&r, Vec::new()).unwrap();
            }
        }
        r.add(id, 3); // post-loop flush movement
        s.finish(&r, Vec::new()).unwrap();
        let total: u64 = s.samples().iter().map(|w| w.delta("ctrl.reads")).sum();
        assert_eq!(total, 13, "every counted event lands in some window");
        let tail = s.samples().last().unwrap();
        assert_eq!(tail.op_start, 8);
        assert_eq!(tail.op_end, 10, "flush deltas merge into the partial tail");
    }

    #[test]
    fn missed_boundary_reasserts_on_the_next_op() {
        let mut s = Sampler::new("", "6T", SamplerConfig::with_cadence(3));
        let r = MetricRegistry::new();
        assert!(!s.note_op());
        assert!(!s.note_op());
        assert!(s.note_op(), "boundary at op 3");
        // The caller skipped sample() (no obs surface): the sampler
        // keeps asking instead of going silent forever.
        assert!(s.note_op());
        s.sample(&r, Vec::new()).unwrap();
        assert!(!s.note_op());
        let last = s.samples().last().unwrap();
        assert_eq!((last.op_start, last.op_end), (0, 4));
    }

    #[test]
    fn bulk_advance_lands_on_the_same_boundaries_as_note_op() {
        let r = MetricRegistry::new();
        let mut per_op = Sampler::new("", "6T", SamplerConfig::with_cadence(5));
        let mut bulk = Sampler::new("", "6T", SamplerConfig::with_cadence(5));
        for _ in 0..23 {
            if per_op.note_op() {
                per_op.sample(&r, Vec::new()).unwrap();
            }
        }
        let mut left = 23u64;
        while left > 0 {
            let n = bulk.ops_to_boundary().min(left);
            if bulk.note_ops(n) {
                bulk.sample(&r, Vec::new()).unwrap();
            }
            left -= n;
        }
        let windows = |s: &Sampler| {
            s.samples()
                .iter()
                .map(|w| (w.op_start, w.op_end))
                .collect::<Vec<_>>()
        };
        assert_eq!(windows(&per_op), windows(&bulk));
        assert_eq!(windows(&bulk), vec![(0, 5), (5, 10), (10, 15), (15, 20)]);
        assert_eq!(bulk.ops_to_boundary(), 2);
        // A skipped boundary is asked for again after a single op.
        assert!(bulk.note_ops(2));
        assert_eq!(bulk.ops_to_boundary(), 1);
    }

    #[test]
    fn rebaseline_absorbs_a_counter_reset() {
        let mut s = Sampler::new("", "WG", SamplerConfig::with_cadence(2));
        let mut r = registry_with(&[("ctrl.writes", 100)]);
        s.rebaseline(&r);
        r.reset();
        let id = r.counter("ctrl.writes");
        r.add(id, 3);
        s.note_op();
        s.note_op();
        s.sample(&r, Vec::new()).unwrap();
        // Without rebaseline the saturating delta would clamp to 0;
        // with it the reset itself must also not produce garbage.
        assert_eq!(s.samples().last().unwrap().delta("ctrl.writes"), 0);
        r.add(id, 9);
        s.note_op();
        s.note_op();
        s.sample(&r, Vec::new()).unwrap();
        assert_eq!(s.samples().last().unwrap().delta("ctrl.writes"), 9);
    }

    #[test]
    fn jsonl_round_trips_through_the_schema() {
        let sample = SeriesSample {
            bench: "gcc".to_owned(),
            scheme: "WG+RB".to_owned(),
            window: 7,
            op_start: 458_752,
            op_end: 524_288,
            deltas: vec![
                ("cache.line_fills".to_owned(), 412),
                ("ctrl.reads".to_owned(), 39_321),
            ],
            occupancy: vec![0, 2, 1],
        };
        let line = sample.to_json_line();
        let back = parse_series_line(&line).expect("own output parses");
        assert_eq!(back, sample);
        // Version mismatch is rejected, not misparsed.
        let other = line.replace("\"v\":\"1\"", "\"v\":\"999\"");
        assert!(parse_series_line(&other).is_none());
        assert!(parse_series_line("not json").is_none());
    }

    #[test]
    fn derived_rates_come_from_window_deltas() {
        let sample = SeriesSample {
            bench: String::new(),
            scheme: "WG".to_owned(),
            window: 0,
            op_start: 0,
            op_end: 100,
            deltas: vec![
                ("cache.dirty_evictions".to_owned(), 3),
                ("cache.line_fills".to_owned(), 10),
                ("ctrl.reads".to_owned(), 60),
                ("ctrl.writes".to_owned(), 40),
                ("wg.grouped_writes".to_owned(), 30),
                ("wg.silent_suppressed".to_owned(), 4),
                ("wg.writebacks".to_owned(), 5),
            ],
            occupancy: vec![1, 0, 3],
        };
        assert_eq!(sample.requests(), 100);
        assert!((sample.miss_rate() - 0.1).abs() < 1e-12);
        assert!((sample.silent_rate() - 0.1).abs() < 1e-12);
        assert_eq!(sample.writeback_traffic(), 8);
        assert!((sample.grouping_efficiency() - 0.75).abs() < 1e-12);
        assert!((sample.mean_occupancy() - 1.5).abs() < 1e-12);
        // Empty windows divide to 0, not NaN.
        let empty = SeriesSample {
            deltas: Vec::new(),
            occupancy: Vec::new(),
            ..sample
        };
        assert_eq!(empty.miss_rate(), 0.0);
        assert_eq!(empty.silent_rate(), 0.0);
        assert_eq!(empty.mean_occupancy(), 0.0);
    }

    #[test]
    fn writer_streams_one_line_per_window() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        let buffer = sink.0.clone();
        let mut s =
            Sampler::new("gcc", "WG", SamplerConfig::with_cadence(2)).with_writer(Box::new(sink));
        let r = MetricRegistry::new();
        for _ in 0..5 {
            if s.note_op() {
                s.sample(&r, Vec::new()).unwrap();
            }
        }
        s.finish(&r, Vec::new()).unwrap();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "2 full windows + 1 partial tail");
        assert!(s.samples().is_empty(), "streamed windows are not kept");
        for line in lines {
            let sample = parse_series_line(line).expect("schema-valid line");
            assert_eq!(sample.scheme, "WG");
            assert_eq!(sample.bench, "gcc");
        }
    }

    #[test]
    fn phase_segmentation_finds_steps_not_noise() {
        // Flat signal: one phase.
        assert_eq!(segment_phases(&[0.1; 6], 0.02), vec![(0, 6)]);
        // A clean step: two phases at the step index.
        let stepped = [0.02, 0.021, 0.019, 0.09, 0.091, 0.09];
        assert_eq!(segment_phases(&stepped, 0.02), vec![(0, 3), (3, 6)]);
        // Noise inside the tolerance does not fragment the phase.
        let noisy = [0.05, 0.06, 0.04, 0.055, 0.045];
        assert_eq!(segment_phases(&noisy, 0.02), vec![(0, 5)]);
        // Empty input: no phases; ranges always tile the input.
        assert!(segment_phases(&[], 0.02).is_empty());
        let three_step = [0.0, 0.0, 0.5, 0.5, 1.0, 1.0];
        let phases = segment_phases(&three_step, 0.1);
        assert_eq!(phases, vec![(0, 2), (2, 4), (4, 6)]);
        assert_eq!(phases.iter().map(|(s, e)| e - s).sum::<usize>(), 6);
    }

    #[test]
    fn sparkline_scales_to_range() {
        assert_eq!(sparkline(&[0.0, 1.0]), "▁█");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▁▁▁", "flat renders low");
        assert_eq!(sparkline(&[]), "");
        let line = sparkline(&[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(line.chars().count(), 5);
    }
}
