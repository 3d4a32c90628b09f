//! A throttled, TTY-aware progress line for long-running batch work.
//!
//! [`ProgressLine`] repaints one `\r`-terminated stderr line at most
//! every ~100 ms, so a sweep over thousands of jobs costs a handful of
//! writes. It draws only when stderr is a terminal, so piped runs and
//! CI logs stay clean.

use std::io::{IsTerminal, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum interval between repaints.
const REPAINT_EVERY: Duration = Duration::from_millis(100);

/// A single in-place progress line on stderr.
///
/// Safe to tick from multiple threads: the repaint throttle lives
/// behind a mutex, and ticks that lose the race or arrive inside the
/// throttle window are simply skipped.
#[derive(Debug)]
pub struct ProgressLine {
    label: &'static str,
    total: usize,
    enabled: bool,
    started: Instant,
    last_paint: Mutex<Option<Instant>>,
}

impl ProgressLine {
    /// A line labelled `label` over `total` work items, drawn when
    /// stderr is a terminal.
    pub fn new(label: &'static str, total: usize) -> Self {
        ProgressLine::drawn(label, total, std::io::stderr().is_terminal())
    }

    fn drawn(label: &'static str, total: usize, enabled: bool) -> Self {
        ProgressLine {
            label,
            total,
            enabled,
            started: Instant::now(),
            last_paint: Mutex::new(None),
        }
    }

    /// Records `done` finished items (`failed` of them failed) and
    /// repaints if the throttle window has passed. The frame appends
    /// the estimated time to completion and a live throughput figure
    /// (Mops/s) when known; the sweep engine derives both from the
    /// batch's wall time.
    pub fn tick(&self, done: usize, failed: usize, eta: Option<Duration>, mops: Option<f64>) {
        if !self.enabled {
            return;
        }
        let Ok(mut last) = self.last_paint.try_lock() else {
            return; // a sibling thread is painting right now
        };
        let now = Instant::now();
        if let Some(previous) = *last {
            if now.duration_since(previous) < REPAINT_EVERY && done < self.total {
                return;
            }
        }
        *last = Some(now);
        let line = Self::render_frame(
            self.label,
            done,
            failed,
            self.total,
            self.started.elapsed(),
            eta,
            mops,
        );
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r{line}\x1b[K");
        let _ = err.flush();
    }

    /// Formats one progress-line frame. Pure so it is unit-testable
    /// without a terminal: a known rate sits between the elapsed time
    /// and the ETA, and an unknown ETA on an incomplete run renders as
    /// `--:--` (the sweep engine has none before its first job
    /// finishes).
    fn render_frame(
        label: &str,
        done: usize,
        failed: usize,
        total: usize,
        elapsed: Duration,
        eta: Option<Duration>,
        mops: Option<f64>,
    ) -> String {
        let failures = if failed > 0 {
            format!(", {failed} failed")
        } else {
            String::new()
        };
        let rate = match mops {
            Some(mops) if mops.is_finite() && mops > 0.0 => format!(", {mops:.1} Mops/s"),
            _ => String::new(),
        };
        let remaining = if done < total {
            match eta {
                Some(eta) => format!(", ~{}s left", eta.as_secs().max(1)),
                None => ", --:-- left".to_string(),
            }
        } else {
            String::new()
        };
        format!(
            "{}: {}/{}{} [{:.1}s{}{}]",
            label,
            done,
            total,
            failures,
            elapsed.as_secs_f64(),
            rate,
            remaining
        )
    }

    /// Ends the line with a newline so later output starts clean.
    pub fn finish(&self) {
        if !self.enabled {
            return;
        }
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err);
        let _ = err.flush();
    }
}

/// A progress reading frozen as data, for shipping over a wire instead
/// of painting a terminal: the serve daemon's `status`/`watch` verbs
/// report pool progress as one of these per update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressSnapshot {
    /// Work items finished (completed + failed).
    pub done: usize,
    /// Work items in the batch.
    pub total: usize,
    /// Items that failed.
    pub failed: usize,
    /// Estimated milliseconds to completion, when known.
    pub eta_ms: Option<u64>,
    /// Throughput since the batch started, in Mops/s, when known.
    pub mops: Option<f64>,
}

impl ProgressSnapshot {
    /// Serializes as a flat JSON object; unknown ETA / throughput are
    /// `null`, never fabricated zeros.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        let opt_u64 = |v: Option<u64>| v.map_or(Value::Null, Value::U64);
        Value::Object(vec![
            ("done".to_owned(), Value::U64(self.done as u64)),
            ("total".to_owned(), Value::U64(self.total as u64)),
            ("failed".to_owned(), Value::U64(self.failed as u64)),
            ("eta_ms".to_owned(), opt_u64(self.eta_ms)),
            (
                "mops".to_owned(),
                match self.mops {
                    Some(m) if m.is_finite() => Value::F64(m),
                    _ => Value::Null,
                },
            ),
        ])
    }

    /// Parses what [`to_value`](ProgressSnapshot::to_value) produced.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_value(value: &serde_json::Value) -> Result<ProgressSnapshot, String> {
        let field = |name: &str| {
            value
                .get(name)
                .and_then(serde_json::Value::as_u64)
                .ok_or_else(|| format!("progress snapshot missing `{name}`"))
        };
        Ok(ProgressSnapshot {
            done: field("done")? as usize,
            total: field("total")? as usize,
            failed: field("failed")? as usize,
            eta_ms: value.get("eta_ms").and_then(serde_json::Value::as_u64),
            mops: value.get("mops").and_then(serde_json::Value::as_f64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_that_does_not_draw_ignores_ticks() {
        let line = ProgressLine::drawn("test", 10, false);
        line.tick(5, 0, None, None); // must be a no-op, not a panic
        line.finish();
        assert!(line.last_paint.lock().unwrap().is_none());
    }

    #[test]
    fn a_drawn_line_paints_every_tick_kind() {
        let line = ProgressLine::drawn("test", 3, true);
        line.tick(1, 0, Some(Duration::from_secs(9)), None);
        assert!(line.last_paint.lock().unwrap().is_some());
        line.tick(2, 1, Some(Duration::from_millis(10)), None); // clamps to ~1s
        line.tick(3, 1, Some(Duration::from_secs(9)), Some(5.0)); // complete: no ETA shown
        line.finish();
    }

    #[test]
    fn unknown_eta_renders_as_placeholder_not_garbage() {
        // No job finished yet: the estimator hands us `None`, and the
        // line must say so instead of a bogus number.
        let frame =
            ProgressLine::render_frame("sweep", 0, 0, 10, Duration::from_secs(2), None, None);
        assert_eq!(frame, "sweep: 0/10 [2.0s, --:-- left]");
        // A known ETA still renders (clamped up to 1s)...
        let frame = ProgressLine::render_frame(
            "sweep",
            3,
            1,
            10,
            Duration::from_secs(2),
            Some(Duration::from_millis(10)),
            None,
        );
        assert_eq!(frame, "sweep: 3/10, 1 failed [2.0s, ~1s left]");
        // ...and a complete run shows no ETA at all, known or not.
        let frame =
            ProgressLine::render_frame("sweep", 10, 0, 10, Duration::from_secs(2), None, None);
        assert_eq!(frame, "sweep: 10/10 [2.0s]");
        let frame = ProgressLine::render_frame(
            "sweep",
            10,
            0,
            10,
            Duration::from_secs(2),
            Some(Duration::from_secs(9)),
            None,
        );
        assert_eq!(frame, "sweep: 10/10 [2.0s]");
    }

    #[test]
    fn rate_renders_from_the_last_window_not_at_all_when_unknown() {
        // A known rate appears between elapsed and ETA.
        let frame = ProgressLine::render_frame(
            "sweep",
            3,
            0,
            10,
            Duration::from_secs(2),
            Some(Duration::from_secs(4)),
            Some(12.34),
        );
        assert_eq!(frame, "sweep: 3/10 [2.0s, 12.3 Mops/s, ~4s left]");
        // Unknown / degenerate rates are omitted, not rendered as 0 or
        // NaN.
        for bogus in [None, Some(0.0), Some(f64::NAN), Some(-1.0)] {
            let frame =
                ProgressLine::render_frame("sweep", 3, 0, 10, Duration::from_secs(2), None, bogus);
            assert_eq!(frame, "sweep: 3/10 [2.0s, --:-- left]");
        }
    }

    #[test]
    fn progress_snapshot_round_trips() {
        let full = ProgressSnapshot {
            done: 3,
            total: 10,
            failed: 1,
            eta_ms: Some(4_200),
            mops: Some(12.5),
        };
        let parsed = ProgressSnapshot::from_value(&full.to_value()).expect("round trip");
        assert_eq!(parsed, full);

        // Unknown ETA / rate survive as absent, not as zeros.
        let sparse = ProgressSnapshot {
            eta_ms: None,
            mops: None,
            ..full
        };
        let value = sparse.to_value();
        assert_eq!(value.get("eta_ms"), Some(&serde_json::Value::Null));
        let parsed = ProgressSnapshot::from_value(&value).expect("round trip");
        assert_eq!(parsed, sparse);

        // NaN rates are dropped at serialization time.
        let nan = ProgressSnapshot {
            mops: Some(f64::NAN),
            ..full
        };
        assert_eq!(nan.to_value().get("mops"), Some(&serde_json::Value::Null));

        let err = ProgressSnapshot::from_value(&serde_json::Value::Object(vec![]))
            .expect_err("empty object");
        assert!(err.contains("done"), "unhelpful error: {err}");
    }
}
