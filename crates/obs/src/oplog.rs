//! Structured JSONL operational log for long-lived processes.
//!
//! Where [`crate::trace`] records *simulator* events on the replay hot
//! path, the oplog records *operational* events: a daemon accepting a
//! connection, admitting a job, repairing a journal, shutting down.
//! Each record is one schema-versioned JSON object per line:
//!
//! ```json
//! {"v":"1","ts_ms":1754650000123,"uptime_ms":452,"level":"info",
//!  "event":"submit","job":"job-1","fingerprint":"3f2a..."}
//! ```
//!
//! `v`, `ts_ms` (unix epoch milliseconds), `uptime_ms` (monotonic
//! milliseconds since the log was opened), `level`, and `event` are
//! always present; `job` threads the owning job id through every
//! record that has one; everything after is event-specific.
//!
//! Records are leveled ([`LogLevel`]) and filtered at emission time:
//! the threshold comes from the `CACHE8T_LOG` environment variable
//! (`off` / `error` / `warn` / `info` / `debug`, default `info`) via
//! [`LogLevel::from_env`], so operators dial verbosity without
//! recompiling. Sinks are stderr or a file (the daemon's `--log-out`);
//! writes are line-atomic behind a mutex and flushed per record, so a
//! `tail -f` of the log never sees a torn line.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde_json::Value;

/// Oplog record schema version (the `"v"` field of every line).
pub const OPLOG_VERSION: &str = "1";

/// Record severity. Ordering is by verbosity: a sink at threshold
/// `Info` emits `Error`, `Warn`, and `Info` records and suppresses
/// `Debug`; `Off` suppresses everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Emit nothing.
    Off,
    /// Failures that lose work or durability.
    Error,
    /// Degraded-but-continuing conditions (journal repair, ...).
    Warn,
    /// Lifecycle events: accept, submit, state transitions, shutdown.
    Info,
    /// Per-request chatter.
    Debug,
}

impl LogLevel {
    /// The wire name of this level.
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    /// Parses a level name (case-insensitive). `None` for unknown
    /// names.
    pub fn parse(name: &str) -> Option<LogLevel> {
        match name.to_ascii_lowercase().as_str() {
            "off" | "none" => Some(LogLevel::Off),
            "error" => Some(LogLevel::Error),
            "warn" | "warning" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }

    /// The threshold from `CACHE8T_LOG`, defaulting to `Info` when the
    /// variable is unset or names an unknown level.
    pub fn from_env() -> LogLevel {
        std::env::var("CACHE8T_LOG")
            .ok()
            .and_then(|v| LogLevel::parse(&v))
            .unwrap_or(LogLevel::Info)
    }
}

/// Emission counters, for the daemon's `metrics` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpLogStats {
    /// Records written to the sink.
    pub emitted: u64,
    /// Records filtered out by the level threshold.
    pub suppressed: u64,
    /// Records lost to sink write errors.
    pub dropped: u64,
}

/// A leveled, schema-versioned JSONL operational log.
///
/// Thread-safe: `record` takes `&self` and serializes writers behind
/// an internal mutex. A disabled log ([`OpLog::disabled`]) costs one
/// branch per record.
pub struct OpLog {
    threshold: LogLevel,
    sink: Option<Mutex<Box<dyn Write + Send>>>,
    epoch: Instant,
    emitted: AtomicU64,
    suppressed: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for OpLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpLog")
            .field("threshold", &self.threshold)
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl OpLog {
    fn new(threshold: LogLevel, sink: Option<Box<dyn Write + Send>>) -> OpLog {
        OpLog {
            threshold,
            sink: sink.map(Mutex::new),
            epoch: Instant::now(),
            emitted: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// A log that writes to stderr.
    pub fn to_stderr(threshold: LogLevel) -> OpLog {
        OpLog::new(threshold, Some(Box::new(std::io::stderr())))
    }

    /// A log that appends to the file at `path` (created if missing).
    ///
    /// # Errors
    ///
    /// Propagates open/create failures.
    pub fn to_file(path: &Path, threshold: LogLevel) -> std::io::Result<OpLog> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(OpLog::new(threshold, Some(Box::new(file))))
    }

    /// A log over an arbitrary writer (tests capture records this way).
    pub fn to_writer(writer: Box<dyn Write + Send>, threshold: LogLevel) -> OpLog {
        OpLog::new(threshold, Some(writer))
    }

    /// A log that drops every record.
    pub fn disabled() -> OpLog {
        OpLog::new(LogLevel::Off, None)
    }

    /// The active threshold.
    pub fn threshold(&self) -> LogLevel {
        self.threshold
    }

    /// Emission counters so far.
    pub fn stats(&self) -> OpLogStats {
        OpLogStats {
            emitted: self.emitted.load(Ordering::Relaxed),
            suppressed: self.suppressed.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Emits one record at `level` for `event`, tagged with `job` when
    /// the event belongs to one, plus event-specific `fields`.
    /// Suppressed records cost one atomic increment.
    pub fn record(
        &self,
        level: LogLevel,
        event: &str,
        job: Option<&str>,
        fields: Vec<(String, Value)>,
    ) {
        let Some(sink) = &self.sink else {
            return;
        };
        if level == LogLevel::Off || level > self.threshold {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let uptime_ms = self.epoch.elapsed().as_millis() as u64;
        let mut object = vec![
            ("v".to_owned(), Value::Str(OPLOG_VERSION.to_owned())),
            ("ts_ms".to_owned(), Value::U64(ts_ms)),
            ("uptime_ms".to_owned(), Value::U64(uptime_ms)),
            ("level".to_owned(), Value::Str(level.name().to_owned())),
            ("event".to_owned(), Value::Str(event.to_owned())),
        ];
        if let Some(job) = job {
            object.push(("job".to_owned(), Value::Str(job.to_owned())));
        }
        object.extend(fields);
        let mut line =
            serde_json::to_string(&Value::Object(object)).expect("oplog records serialize");
        line.push('\n');
        let mut writer = sink.lock().unwrap_or_else(PoisonError::into_inner);
        match writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.flush())
        {
            Ok(()) => {
                self.emitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// [`record`](OpLog::record) at `Error`.
    pub fn error(&self, event: &str, job: Option<&str>, fields: Vec<(String, Value)>) {
        self.record(LogLevel::Error, event, job, fields);
    }

    /// [`record`](OpLog::record) at `Warn`.
    pub fn warn(&self, event: &str, job: Option<&str>, fields: Vec<(String, Value)>) {
        self.record(LogLevel::Warn, event, job, fields);
    }

    /// [`record`](OpLog::record) at `Info`.
    pub fn info(&self, event: &str, job: Option<&str>, fields: Vec<(String, Value)>) {
        self.record(LogLevel::Info, event, job, fields);
    }

    /// [`record`](OpLog::record) at `Debug`.
    pub fn debug(&self, event: &str, job: Option<&str>, fields: Vec<(String, Value)>) {
        self.record(LogLevel::Debug, event, job, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` handle into a shared buffer, so tests can read back
    /// what the log emitted.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf").extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn lines(&self) -> Vec<Value> {
            let bytes = self.0.lock().expect("buf").clone();
            String::from_utf8(bytes)
                .expect("utf8")
                .lines()
                .map(|l| serde_json::from_str(l).expect("each oplog line parses"))
                .collect()
        }
    }

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(LogLevel::parse("DEBUG"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("warning"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("off"), Some(LogLevel::Off));
        assert_eq!(LogLevel::parse("chatty"), None);
        assert!(LogLevel::Error < LogLevel::Debug);
        assert!(LogLevel::Off < LogLevel::Error);
    }

    #[test]
    fn records_carry_schema_fields_and_respect_threshold() {
        let buf = SharedBuf::default();
        let log = OpLog::to_writer(Box::new(buf.clone()), LogLevel::Info);
        log.info(
            "submit",
            Some("job-1"),
            vec![("ops".to_owned(), Value::U64(500))],
        );
        log.debug("verb", None, Vec::new()); // below threshold
        log.warn("journal-repair", Some("job-1"), Vec::new());

        let lines = buf.lines();
        assert_eq!(lines.len(), 2, "debug was suppressed");
        for line in &lines {
            assert_eq!(line.get("v").and_then(Value::as_str), Some(OPLOG_VERSION));
            assert!(line.get("ts_ms").and_then(Value::as_u64).is_some());
            assert!(line.get("uptime_ms").and_then(Value::as_u64).is_some());
            assert!(line.get("level").and_then(Value::as_str).is_some());
            assert!(line.get("event").and_then(Value::as_str).is_some());
        }
        assert_eq!(
            lines[0].get("event").and_then(Value::as_str),
            Some("submit")
        );
        assert_eq!(lines[0].get("job").and_then(Value::as_str), Some("job-1"));
        assert_eq!(lines[0].get("ops").and_then(Value::as_u64), Some(500));
        assert_eq!(lines[1].get("level").and_then(Value::as_str), Some("warn"));

        let stats = log.stats();
        assert_eq!(stats.emitted, 2);
        assert_eq!(stats.suppressed, 1);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn disabled_log_emits_nothing() {
        let log = OpLog::disabled();
        log.error("accept", None, Vec::new());
        assert_eq!(log.stats(), OpLogStats::default());
    }

    #[test]
    fn file_sink_appends_lines() {
        let dir = std::env::temp_dir().join(format!("c8t-oplog-{}", std::process::id()));
        let path = dir.join("op.jsonl");
        {
            let log = OpLog::to_file(&path, LogLevel::Debug).expect("open");
            log.info("accept", None, Vec::new());
            log.debug(
                "verb",
                None,
                vec![("verb".to_owned(), Value::Str("status".to_owned()))],
            );
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
