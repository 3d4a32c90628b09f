//! The append-only checkpoint journal behind resumable sweeps.
//!
//! One journal file per plan fingerprint, one JSONL line per completed
//! benchmark: `{"v", "plan", "slot", "geometry", "benchmark",
//! "result"}`. Lines are appended and flushed the moment a benchmark's
//! profile job finishes (via the sweep engine's completion hook), so
//! every finished benchmark is durable independently of whether the
//! server survives. On restart, the loader replays the valid prefix —
//! a torn final line from a crash mid-append is tolerated and simply
//! re-run — and the sweep re-executes only the missing slots.
//!
//! Because the vendored JSON text→value→text round trip is
//! byte-stable, a document assembled from journalled benchmark values
//! is byte-identical to the one the batch path serializes; the service
//! tests enforce this with `cmp`.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde_json::Value;

use cache8t_exec::SweepPlan;

/// Journal schema version.
pub const JOURNAL_VERSION: &str = "1";

/// A stable 64-bit FNV-1a fingerprint of everything that determines a
/// plan's results: ops, seed, the full profile definitions (not just
/// names — a recalibrated table must not resume from stale results),
/// geometry labels and dimensions, and the sampler cadence. Rendered
/// as 16 hex digits; doubles as the journal file stem.
pub fn plan_fingerprint(plan: &SweepPlan, series_cadence: Option<usize>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&plan.ops.to_le_bytes());
    eat(&plan.seed.to_le_bytes());
    eat(&series_cadence.map_or(0u64, |c| c as u64 + 1).to_le_bytes());
    for profile in &plan.profiles {
        let canonical = serde_json::to_string(profile).expect("workload profiles serialize");
        eat(canonical.as_bytes());
        eat(b"\x1f");
    }
    for point in &plan.geometries {
        eat(point.label.as_bytes());
        eat(&point.geometry.capacity_bytes().to_le_bytes());
        eat(&point.geometry.ways().to_le_bytes());
        eat(&point.geometry.block_bytes().to_le_bytes());
        eat(b"\x1f");
    }
    format!("{hash:016x}")
}

/// The journal file path for `fingerprint` under `dir`.
pub fn journal_path(dir: &Path, fingerprint: &str) -> PathBuf {
    dir.join(format!("{fingerprint}.jsonl"))
}

/// What loading a journal recovered.
#[derive(Debug, Default)]
pub struct JournalLoad {
    /// Benchmark slot → journalled benchmark value (first wins).
    pub slots: HashMap<usize, Value>,
    /// Trailing bytes that did not parse as a complete, valid line —
    /// the torn tail of an interrupted append. They are ignored; the
    /// affected benchmark re-runs.
    pub torn: bool,
}

/// Replays the valid prefix of the journal at `path` against `plan`.
///
/// Unreadable or never-written journals load as empty. A line is valid
/// when it is complete (newline-terminated), parses, matches the
/// journal version and `fingerprint`, and names the geometry/benchmark
/// `plan` actually has at its slot; the first invalid line ends the
/// replay (append-only writes mean everything after a torn write is
/// untrustworthy).
///
/// # Errors
///
/// Only on I/O failures while reading an existing file.
pub fn load_journal(
    path: &Path,
    plan: &SweepPlan,
    fingerprint: &str,
) -> std::io::Result<JournalLoad> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalLoad::default()),
        Err(e) => return Err(e),
    };
    let mut reader = BufReader::new(file);
    let mut load = JournalLoad::default();
    let n_profiles = plan.profiles.len();
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader.read_line(&mut line)?;
        if read == 0 {
            return Ok(load);
        }
        if !line.ends_with('\n') {
            // Torn final line: the writer died mid-append.
            load.torn = true;
            return Ok(load);
        }
        let Some((slot, value)) = parse_entry(line.trim_end(), plan, n_profiles, fingerprint)
        else {
            load.torn = true;
            return Ok(load);
        };
        load.slots.entry(slot).or_insert(value);
    }
}

/// Parses and validates one complete journal line; `None` ends replay.
fn parse_entry(
    line: &str,
    plan: &SweepPlan,
    n_profiles: usize,
    fingerprint: &str,
) -> Option<(usize, Value)> {
    let entry: Value = serde_json::from_str(line).ok()?;
    if entry.get("v").and_then(Value::as_str) != Some(JOURNAL_VERSION)
        || entry.get("plan").and_then(Value::as_str) != Some(fingerprint)
    {
        return None;
    }
    let slot = entry.get("slot").and_then(Value::as_u64)? as usize;
    if slot >= plan.benchmark_count() {
        return None;
    }
    let (g, b) = (slot / n_profiles, slot % n_profiles);
    if entry.get("geometry").and_then(Value::as_str) != Some(&plan.geometries[g].label)
        || entry.get("benchmark").and_then(Value::as_str) != Some(&plan.profiles[b].name)
    {
        return None;
    }
    let result = entry.get("result")?.clone();
    // The benchmark object must at least agree on its own name.
    if result.get("name").and_then(Value::as_str) != Some(&plan.profiles[b].name) {
        return None;
    }
    Some((slot, result))
}

/// Truncates `path` back to its final newline, dropping the torn tail
/// of an interrupted append; returns whether anything was dropped.
/// Missing files are fine.
fn repair_torn_tail(path: &Path) -> std::io::Result<bool> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    if bytes.last().is_none_or(|&b| b == b'\n') {
        return Ok(false);
    }
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(keep as u64)?;
    Ok(true)
}

/// On-disk footprint of a journal directory: how many journal files
/// exist and their total size. The daemon's `serve.journal.bytes`
/// gauge and the `status`/`metrics` journal report come from here —
/// journals are append-only and never collected (pre-GC), so operators
/// need the growth visible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalDirStats {
    /// `*.jsonl` journal files under the directory.
    pub files: u64,
    /// Their sizes summed, in bytes.
    pub bytes: u64,
}

/// Sizes the `*.jsonl` journals under `dir`. A missing or unreadable
/// directory reads as empty: this feeds telemetry, which must never
/// take a request down.
pub fn journal_dir_stats(dir: &Path) -> JournalDirStats {
    let mut stats = JournalDirStats::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return stats;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "jsonl") {
            continue;
        }
        if let Ok(meta) = entry.metadata() {
            if meta.is_file() {
                stats.files += 1;
                stats.bytes += meta.len();
            }
        }
    }
    stats
}

/// An open journal in append mode. Writes are line-atomic from the
/// reader's perspective: each entry is serialized fully, written with
/// one call, and flushed before `append` returns.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
    fingerprint: String,
    repaired: bool,
}

impl Journal {
    /// Opens (creating directories and the file as needed) the journal
    /// for `fingerprint` under `dir`.
    ///
    /// A torn tail left by a crash mid-append is truncated away first:
    /// appending after stray partial bytes would weld the next entry
    /// onto them, making it unreadable on every later load.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(dir: &Path, fingerprint: &str) -> std::io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = journal_path(dir, fingerprint);
        let repaired = repair_torn_tail(&path)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            file: Mutex::new(file),
            fingerprint: fingerprint.to_owned(),
            repaired,
        })
    }

    /// `true` when opening found (and truncated away) the torn tail of
    /// an interrupted append. The daemon counts and logs these.
    pub fn repaired(&self) -> bool {
        self.repaired
    }

    /// Appends one completed benchmark and flushes.
    ///
    /// # Errors
    ///
    /// Propagates write failures; the caller decides whether a dead
    /// journal should fail the job (the server logs and keeps going —
    /// losing durability degrades resume, not correctness).
    pub fn append(
        &self,
        slot: usize,
        geometry: &str,
        benchmark: &str,
        result: &Value,
    ) -> std::io::Result<()> {
        let entry = Value::Object(vec![
            ("v".to_owned(), Value::Str(JOURNAL_VERSION.to_owned())),
            ("plan".to_owned(), Value::Str(self.fingerprint.clone())),
            ("slot".to_owned(), Value::U64(slot as u64)),
            ("geometry".to_owned(), Value::Str(geometry.to_owned())),
            ("benchmark".to_owned(), Value::Str(benchmark.to_owned())),
            ("result".to_owned(), result.clone()),
        ]);
        let mut line = serde_json::to_string(&entry).expect("journal entries serialize");
        line.push('\n');
        let mut file = self.file.lock().expect("journal lock poisoned");
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_exec::GeometryPoint;
    use cache8t_trace::profiles;

    fn plan() -> SweepPlan {
        SweepPlan {
            profiles: vec![
                profiles::by_name("gcc").expect("profile"),
                profiles::by_name("mcf").expect("profile"),
            ],
            geometries: vec![GeometryPoint::named("baseline").expect("geometry")],
            ops: 1_000,
            seed: 9,
        }
    }

    fn bench_value(name: &str) -> Value {
        Value::Object(vec![
            ("name".to_owned(), Value::Str(name.to_owned())),
            ("payload".to_owned(), Value::U64(42)),
        ])
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let base = plan_fingerprint(&plan(), None);
        assert_eq!(base, plan_fingerprint(&plan(), None), "deterministic");
        assert_eq!(base.len(), 16);

        let mut other = plan();
        other.seed = 10;
        assert_ne!(base, plan_fingerprint(&other, None), "seed changes it");
        let mut other = plan();
        other.ops = 1_001;
        assert_ne!(base, plan_fingerprint(&other, None), "ops changes it");
        let mut other = plan();
        other.profiles.pop();
        assert_ne!(base, plan_fingerprint(&other, None), "profiles change it");
        assert_ne!(
            base,
            plan_fingerprint(&plan(), Some(500)),
            "cadence changes it"
        );
    }

    #[test]
    fn journal_round_trips_and_resumes() {
        let dir = std::env::temp_dir().join(format!("c8t-journal-{}", std::process::id()));
        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let journal = Journal::open(&dir, &fp).expect("open");
        journal
            .append(0, "baseline", "gcc", &bench_value("gcc"))
            .expect("append");
        journal
            .append(1, "baseline", "mcf", &bench_value("mcf"))
            .expect("append");

        let load = load_journal(&journal_path(&dir, &fp), &plan, &fp).expect("load");
        assert!(!load.torn);
        assert_eq!(load.slots.len(), 2);
        assert_eq!(
            load.slots[&0].get("name").and_then(Value::as_str),
            Some("gcc")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_journal_loads_empty() {
        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let load = load_journal(Path::new("/nonexistent/never.jsonl"), &plan, &fp).expect("load");
        assert!(load.slots.is_empty());
        assert!(!load.torn);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("c8t-journal-torn-{}", std::process::id()));
        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let journal = Journal::open(&dir, &fp).expect("open");
        journal
            .append(0, "baseline", "gcc", &bench_value("gcc"))
            .expect("append");
        // Simulate a crash mid-append: a partial second line with no
        // trailing newline.
        let path = journal_path(&dir, &fp);
        let mut file = OpenOptions::new().append(true).open(&path).expect("open");
        file.write_all(br#"{"v":"1","plan":""#).expect("tear");
        drop(file);

        let load = load_journal(&path, &plan, &fp).expect("load");
        assert!(load.torn, "the torn tail must be reported");
        assert_eq!(load.slots.len(), 1, "the valid prefix survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_a_torn_journal_repairs_the_tail() {
        let dir = std::env::temp_dir().join(format!("c8t-journal-repair-{}", std::process::id()));
        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let journal = Journal::open(&dir, &fp).expect("open");
        journal
            .append(0, "baseline", "gcc", &bench_value("gcc"))
            .expect("append");
        drop(journal);
        let path = journal_path(&dir, &fp);
        let mut file = OpenOptions::new().append(true).open(&path).expect("open");
        file.write_all(br#"{"v":"1","pl"#).expect("tear");
        drop(file);

        // A fresh open (the restart path) must drop the torn bytes so
        // the next append starts a clean line.
        let journal = Journal::open(&dir, &fp).expect("reopen");
        assert!(journal.repaired(), "the torn tail was truncated at open");
        journal
            .append(1, "baseline", "mcf", &bench_value("mcf"))
            .expect("append");
        let load = load_journal(&path, &plan, &fp).expect("load");
        assert!(!load.torn, "the repaired journal has no torn tail");
        assert_eq!(load.slots.len(), 2, "both entries survive the crash");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_journals_report_no_repair() {
        let dir = std::env::temp_dir().join(format!("c8t-journal-clean-{}", std::process::id()));
        let fp = plan_fingerprint(&plan(), None);
        let journal = Journal::open(&dir, &fp).expect("open");
        assert!(!journal.repaired(), "a fresh journal needs no repair");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_stats_sum_journal_files_only() {
        let dir = std::env::temp_dir().join(format!("c8t-journal-stats-{}", std::process::id()));
        assert_eq!(journal_dir_stats(&dir), JournalDirStats::default());

        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let journal = Journal::open(&dir, &fp).expect("open");
        journal
            .append(0, "baseline", "gcc", &bench_value("gcc"))
            .expect("append");
        std::fs::write(dir.join("not-a-journal.txt"), b"ignored").expect("write");

        let stats = journal_dir_stats(&dir);
        assert_eq!(stats.files, 1, "non-journal files are excluded");
        let on_disk = std::fs::metadata(journal_path(&dir, &fp))
            .expect("metadata")
            .len();
        assert_eq!(stats.bytes, on_disk);
        assert!(stats.bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_or_mismatched_lines_end_replay() {
        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        // Wrong fingerprint.
        assert!(parse_entry(
            r#"{"v":"1","plan":"deadbeefdeadbeef","slot":0,"geometry":"baseline","benchmark":"gcc","result":{"name":"gcc"}}"#,
            &plan, 2, &fp,
        )
        .is_none());
        // Slot out of range.
        let line = format!(
            r#"{{"v":"1","plan":"{fp}","slot":7,"geometry":"baseline","benchmark":"gcc","result":{{"name":"gcc"}}}}"#
        );
        assert!(parse_entry(&line, &plan, 2, &fp).is_none());
        // Benchmark name disagrees with the slot.
        let line = format!(
            r#"{{"v":"1","plan":"{fp}","slot":0,"geometry":"baseline","benchmark":"mcf","result":{{"name":"mcf"}}}}"#
        );
        assert!(parse_entry(&line, &plan, 2, &fp).is_none());
        // A valid line parses.
        let line = format!(
            r#"{{"v":"1","plan":"{fp}","slot":1,"geometry":"baseline","benchmark":"mcf","result":{{"name":"mcf"}}}}"#
        );
        let (slot, value) = parse_entry(&line, &plan, 2, &fp).expect("valid");
        assert_eq!(slot, 1);
        assert_eq!(value.get("name").and_then(Value::as_str), Some("mcf"));
    }
}
