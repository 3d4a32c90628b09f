//! The append-only checkpoint journal behind resumable sweeps.
//!
//! One journal file per plan fingerprint, one JSONL line per completed
//! benchmark: `{"v", "plan", "slot", "geometry", "benchmark",
//! "result"}`. Lines are appended and flushed the moment a benchmark's
//! profile job finishes (via the sweep engine's completion hook), so
//! every finished benchmark is durable independently of whether the
//! server survives. On restart, [`Journal::resume`] reads the file
//! once, replays its valid prefix and cuts the file back to it — a torn
//! final line from a crash mid-append, or a complete line that fails
//! validation, is dropped with everything after it and simply re-run —
//! and the sweep re-executes only the missing slots.
//!
//! Because the vendored JSON text→value→text round trip is
//! byte-stable, a document assembled from journalled benchmark values
//! is byte-identical to the one the batch path serializes; the service
//! tests enforce this with `cmp`.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

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

/// Replays the valid prefix of a journal's `bytes` against `plan`:
/// the restored slots (benchmark slot → journalled benchmark value,
/// first line per slot wins) and the prefix's length in bytes.
///
/// A line is valid when it is complete (newline-terminated), parses,
/// matches the journal version and `fingerprint`, and names the
/// geometry/benchmark `plan` actually has at its slot; the first
/// invalid line ends the prefix (append-only writes mean everything
/// after a torn or foreign line is untrustworthy).
fn valid_prefix(
    bytes: &[u8],
    plan: &SweepPlan,
    fingerprint: &str,
) -> (HashMap<usize, Value>, usize) {
    let n_profiles = plan.profiles.len();
    let mut slots = HashMap::new();
    let mut end = 0;
    while let Some(len) = bytes[end..].iter().position(|&b| b == b'\n') {
        let line = std::str::from_utf8(&bytes[end..end + len]).ok();
        let Some((slot, value)) =
            line.and_then(|line| parse_entry(line.trim_end(), plan, n_profiles, fingerprint))
        else {
            break;
        };
        slots.entry(slot).or_insert(value);
        end += len + 1;
    }
    (slots, end)
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
}

/// What [`Journal::resume`] recovered from a plan's journal.
#[derive(Debug)]
pub struct Resume {
    /// Benchmark slot → journalled benchmark value (first line per slot
    /// wins).
    pub slots: HashMap<usize, Value>,
    /// `true` when bytes past the valid prefix were truncated away. The
    /// daemon counts and logs these repairs.
    pub repaired: bool,
    /// The journal, open for appending after the valid prefix, or why it
    /// could not be opened (the job then runs without one).
    pub journal: io::Result<Journal>,
}

impl Journal {
    /// Reads the journal for `fingerprint` under `dir` once, replays its
    /// valid prefix against `plan`, truncates the file at the end of
    /// that prefix, and opens it for appending (creating directories
    /// and the file as needed).
    ///
    /// Truncating is what keeps later resumes whole: appending after a
    /// torn tail would weld the next entry onto it, and appending after
    /// a complete line that fails validation (another journal version,
    /// say) would put every later entry past the end of the replay. A
    /// file that cannot be read restores nothing and is not opened.
    pub fn resume(dir: &Path, plan: &SweepPlan, fingerprint: &str) -> Resume {
        let path = journal_path(dir, fingerprint);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                return Resume {
                    slots: HashMap::new(),
                    repaired: false,
                    journal: Err(e),
                }
            }
        };
        let (slots, valid) = valid_prefix(&bytes, plan, fingerprint);
        let journal = std::fs::create_dir_all(dir)
            .and_then(|()| OpenOptions::new().create(true).append(true).open(&path))
            .and_then(|file| {
                if valid < bytes.len() {
                    file.set_len(valid as u64)?;
                }
                Ok(Journal {
                    file: Mutex::new(file),
                    fingerprint: fingerprint.to_owned(),
                })
            });
        Resume {
            slots,
            repaired: valid < bytes.len() && journal.is_ok(),
            journal,
        }
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
        // A torn line left by a panicked append is cut, with every line
        // after it, by the next resume; those benchmarks re-run.
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("c8t-journal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// Appends raw bytes to the journal file, as a crash or a foreign
    /// writer would leave them.
    fn append_raw(path: &Path, bytes: &[u8]) {
        let mut file = OpenOptions::new().append(true).open(path).expect("open");
        file.write_all(bytes).expect("append raw bytes");
    }

    #[test]
    fn journal_round_trips_and_resumes() {
        let dir = temp_dir("round-trip");
        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let journal = Journal::resume(&dir, &plan, &fp).journal.expect("open");
        journal
            .append(0, "baseline", "gcc", &bench_value("gcc"))
            .expect("append");
        journal
            .append(1, "baseline", "mcf", &bench_value("mcf"))
            .expect("append");
        drop(journal);

        let resume = Journal::resume(&dir, &plan, &fp);
        assert!(!resume.repaired);
        assert_eq!(resume.slots.len(), 2);
        assert_eq!(
            resume.slots[&0].get("name").and_then(Value::as_str),
            Some("gcc")
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_journal_loads_empty() {
        let dir = temp_dir("missing");
        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let resume = Journal::resume(&dir, &plan, &fp);
        assert!(resume.slots.is_empty());
        assert!(!resume.repaired);
        assert!(resume.journal.is_ok(), "the directory and file are created");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = temp_dir("torn");
        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let journal = Journal::resume(&dir, &plan, &fp).journal.expect("open");
        journal
            .append(0, "baseline", "gcc", &bench_value("gcc"))
            .expect("append");
        // Simulate a crash mid-append: a partial second line with no
        // trailing newline.
        let path = journal_path(&dir, &fp);
        append_raw(&path, br#"{"v":"1","plan":""#);

        let resume = Journal::resume(&dir, &plan, &fp);
        assert!(resume.repaired, "the torn tail must be reported");
        assert_eq!(resume.slots.len(), 1, "the valid prefix survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_a_torn_journal_repairs_the_tail() {
        let dir = temp_dir("repair");
        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let journal = Journal::resume(&dir, &plan, &fp).journal.expect("open");
        journal
            .append(0, "baseline", "gcc", &bench_value("gcc"))
            .expect("append");
        drop(journal);
        let path = journal_path(&dir, &fp);
        append_raw(&path, br#"{"v":"1","pl"#);

        // A fresh resume (the restart path) must drop the torn bytes so
        // the next append starts a clean line.
        let resume = Journal::resume(&dir, &plan, &fp);
        assert!(resume.repaired, "the torn tail was truncated at open");
        let journal = resume.journal.expect("reopen");
        journal
            .append(1, "baseline", "mcf", &bench_value("mcf"))
            .expect("append");
        let resume = Journal::resume(&dir, &plan, &fp);
        assert!(!resume.repaired, "the repaired journal has no torn tail");
        assert_eq!(resume.slots.len(), 2, "both entries survive the crash");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_journals_report_no_repair() {
        let dir = temp_dir("clean");
        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let resume = Journal::resume(&dir, &plan, &fp);
        assert!(!resume.repaired, "a fresh journal needs no repair");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A complete line that fails validation (here another journal
    /// version) ends the replay, so it is cut away with everything after
    /// it: the next run's appends then replay on the following resume.
    #[test]
    fn a_line_failing_validation_is_cut_with_everything_after_it() {
        let dir = temp_dir("foreign");
        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let journal = Journal::resume(&dir, &plan, &fp).journal.expect("open");
        journal
            .append(0, "baseline", "gcc", &bench_value("gcc"))
            .expect("append");
        let path = journal_path(&dir, &fp);
        let prefix = std::fs::metadata(&path).expect("metadata").len();
        let foreign = format!(
            "{{\"v\":\"0\",\"plan\":\"{fp}\",\"slot\":1,\"geometry\":\"baseline\",\"benchmark\":\"mcf\",\"result\":{{\"name\":\"mcf\"}}}}\n"
        );
        append_raw(&path, foreign.as_bytes());
        journal
            .append(1, "baseline", "mcf", &bench_value("mcf"))
            .expect("append");
        drop(journal);

        let resume = Journal::resume(&dir, &plan, &fp);
        assert_eq!(resume.slots.len(), 1, "replay stops at the foreign line");
        assert!(resume.repaired, "the foreign line and its suffix are cut");
        assert_eq!(
            std::fs::metadata(&path).expect("metadata").len(),
            prefix,
            "the file ends at the valid prefix"
        );
        // The resumed run re-appends the missing slot; the next resume
        // restores everything.
        resume
            .journal
            .expect("reopen")
            .append(1, "baseline", "mcf", &bench_value("mcf"))
            .expect("append");
        let resume = Journal::resume(&dir, &plan, &fp);
        assert!(!resume.repaired);
        assert_eq!(resume.slots.len(), 2, "every slot restores");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn directory_stats_sum_journal_files_only() {
        let dir = temp_dir("stats");
        assert_eq!(journal_dir_stats(&dir), JournalDirStats::default());

        let plan = plan();
        let fp = plan_fingerprint(&plan, None);
        let journal = Journal::resume(&dir, &plan, &fp).journal.expect("open");
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
