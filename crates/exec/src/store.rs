//! Where a sweep job's trace comes from.
//!
//! A sweep replays the *same* synthetic trace against many cache
//! configurations (the paper's own methodology: one Pin trace, many
//! cache models). Each sweep job opens its profile's trace once with
//! [`TraceStore::open`] and hands every chunk to all of its consumers,
//! so the store keeps no trace in memory: a trace lives exactly as long
//! as the job replaying it.
//!
//! With a directory configured the store is backed by the existing
//! `C8TT` on-disk format (see `cache8t_trace`'s `io` module), so later
//! opens — a daemon's later jobs, later invocations — read the file
//! instead of generating. A truncated, corrupt, or wrong-length cache
//! file is never fatal: the source falls back to the generator, and a
//! whole-trace generation rewrites the file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cache8t_obs::{timeline, Span};
use cache8t_sim::CacheGeometry;
use cache8t_trace::{
    ChunkedGenerator, ProfiledGenerator, TraceChunk, TraceFileReader, TraceGenerator,
    WorkloadProfile,
};

use crate::stream::ChunkSource;

/// Environment variable selecting the on-disk location: a directory
/// path, or `off` to run without disk backing.
pub const STORE_ENV_VAR: &str = "CACHE8T_TRACE_STORE";

/// The conventional on-disk location (`cache8t sweep --trace-store`,
/// CI). Disk backing is opt-in: generating a synthetic trace is cheap,
/// and on slow filesystems reading a cached multi-megabyte `C8TT` file
/// can cost more than regenerating it.
pub const DEFAULT_STORE_DIR: &str = "results/traces";

/// Cumulative counters describing how opened traces were produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Traces the generator produced, from the first op or from the
    /// last good chunk of a damaged cache file.
    pub generated: u64,
    /// Always 0: the store keeps no trace in memory between opens. The
    /// field stays for callers that still read it.
    pub mem_hits: u64,
    /// Traces served whole from a valid on-disk cache file.
    pub disk_hits: u64,
    /// Corrupt/truncated/wrong-length cache files that were regenerated.
    pub recovered: u64,
    /// Cache files that could not be written (best-effort, non-fatal).
    pub write_errors: u64,
    /// Chunks the generator produced; a trace opened without a chunk
    /// size is one chunk.
    pub chunks_generated: u64,
}

/// The source of every sweep job's trace: a generator, optionally
/// backed by `C8TT` files.
#[derive(Debug, Default)]
pub struct TraceStore {
    dir: Option<PathBuf>,
    generated: AtomicU64,
    disk_hits: AtomicU64,
    recovered: AtomicU64,
    write_errors: AtomicU64,
    chunks_generated: AtomicU64,
}

impl TraceStore {
    /// A store without disk backing: every open generates.
    pub fn in_memory() -> Self {
        TraceStore::default()
    }

    /// A store backed by `C8TT` files under `dir` (created lazily).
    pub fn persistent(dir: impl Into<PathBuf>) -> Self {
        TraceStore {
            dir: Some(dir.into()),
            ..TraceStore::default()
        }
    }

    /// The harness default: no disk backing, unless the
    /// `CACHE8T_TRACE_STORE` environment variable names a directory
    /// (`off` explicitly selects none).
    pub fn from_env() -> Self {
        match std::env::var(STORE_ENV_VAR) {
            Ok(v) if v.eq_ignore_ascii_case("off") => TraceStore::in_memory(),
            Ok(v) if !v.is_empty() => TraceStore::persistent(v),
            _ => TraceStore::in_memory(),
        }
    }

    /// The backing directory, if disk backing is enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Opens one pass over the trace of `profile` at `seed` with `ops`
    /// operations, generated at the paper's reference geometry so every
    /// cache configuration replays the same trace. The source yields
    /// chunks of `chunk_ops` ops, or the whole trace as one chunk when
    /// `chunk_ops` is `None`.
    ///
    /// A valid cache file for the key serves every chunk; otherwise the
    /// generator does. A file that turns out to be damaged mid-stream
    /// hands over to a generator resumed at the failed chunk, so every
    /// path yields the identical op sequence. A whole-trace generation
    /// is written to the backing directory for later opens.
    pub fn open<'a>(
        &'a self,
        profile: &'a WorkloadProfile,
        seed: u64,
        ops: usize,
        chunk_ops: Option<usize>,
    ) -> TraceSource<'a> {
        let path = self.path_for(profile, seed, ops);
        let file = path
            .as_deref()
            .and_then(|path| self.open_file(path, ops as u64));
        TraceSource {
            store: self,
            profile,
            seed,
            total_ops: ops as u64,
            chunk_ops: chunk_ops.unwrap_or(ops).max(1),
            path,
            file,
            generator: None,
            next_op: 0,
        }
    }

    /// Snapshot of the store counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            generated: self.generated.load(Ordering::Relaxed),
            mem_hits: 0,
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            chunks_generated: self.chunks_generated.load(Ordering::Relaxed),
        }
    }

    /// The cache-file path a key maps to (for tests and tooling).
    pub fn path_for(&self, profile: &WorkloadProfile, seed: u64, ops: usize) -> Option<PathBuf> {
        self.dir.as_ref().map(|dir| {
            let sanitized: String = profile
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            dir.join(format!(
                "{sanitized}-{:016x}-s{seed}-n{ops}.c8tt",
                profile.fingerprint()
            ))
        })
    }

    /// Opens and validates the header of a cache file. `None` means
    /// "generate": no file, or an unusable one (counted as recovered).
    fn open_file(&self, path: &Path, ops: u64) -> Option<TraceFileReader<io::BufReader<fs::File>>> {
        let problem = match fs::File::open(path) {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::NotFound | io::ErrorKind::NotADirectory
                ) =>
            {
                return None
            }
            Err(e) => format!("unreadable: {e}"),
            Ok(file) => match TraceFileReader::open(io::BufReader::new(file)) {
                Ok(reader) if reader.op_count() == ops => return Some(reader),
                Ok(reader) => format!(
                    "wrong length: {} ops cached, {ops} expected",
                    reader.op_count()
                ),
                Err(e) => e.to_string(),
            },
        };
        // Never fatal: a damaged cache entry costs one regeneration,
        // not the sweep.
        self.recovered.fetch_add(1, Ordering::Relaxed);
        eprintln!("trace store: regenerating {} ({problem})", path.display());
        None
    }

    /// Best-effort atomic write: temp file in the same directory, then
    /// rename, so concurrent processes never observe a torn file.
    fn persist(path: &Path, trace: &TraceChunk) -> io::Result<()> {
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        fs::create_dir_all(dir)?;
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let mut writer = io::BufWriter::new(fs::File::create(&tmp)?);
        trace.write_to(&mut writer)?;
        io::Write::flush(&mut writer)?;
        drop(writer);
        fs::rename(&tmp, path)
    }
}

/// One pass over a stored trace (see [`TraceStore::open`]): a
/// [`ChunkSource`] that reads the cache file while it is valid and
/// generates otherwise.
pub struct TraceSource<'a> {
    store: &'a TraceStore,
    profile: &'a WorkloadProfile,
    seed: u64,
    total_ops: u64,
    chunk_ops: usize,
    path: Option<PathBuf>,
    file: Option<TraceFileReader<io::BufReader<fs::File>>>,
    /// Built on the first generated chunk, resumed where the file left
    /// off.
    generator: Option<ChunkedGenerator<ProfiledGenerator>>,
    /// Global index of the next chunk's first op.
    next_op: u64,
}

impl std::fmt::Debug for TraceSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSource")
            .field("profile", &self.profile.name)
            .field("seed", &self.seed)
            .field("total_ops", &self.total_ops)
            .field("chunk_ops", &self.chunk_ops)
            .field("next_op", &self.next_op)
            .field("from_file", &self.file.is_some())
            .finish()
    }
}

impl TraceSource<'_> {
    /// The next chunk from the open file, or `None` when there is no
    /// file or it failed mid-stream (the caller then generates).
    fn chunk_from_file(&mut self) -> Option<TraceChunk> {
        let reader = self.file.as_mut()?;
        match reader.read_chunk(self.chunk_ops) {
            // `Ok(None)` (end of file) cannot happen: the header holds
            // `total_ops` ops and `next_chunk` stops there.
            Ok(chunk) => {
                if reader.remaining() == 0 {
                    self.store.disk_hits.fetch_add(1, Ordering::Relaxed);
                    timeline::instant("trace-disk-hit", "store");
                }
                chunk
            }
            Err(e) => {
                self.store.recovered.fetch_add(1, Ordering::Relaxed);
                let path = self.path.as_deref().unwrap_or_else(|| Path::new("?"));
                eprintln!(
                    "trace store: regenerating {} from op {} ({e})",
                    path.display(),
                    self.next_op
                );
                self.file = None;
                None
            }
        }
    }

    fn chunk_from_generator(&mut self) -> TraceChunk {
        let _span = Span::labelled("store.generate", "store", || {
            format!("generate {}", self.profile.name)
        });
        if self.generator.is_none() {
            self.store.generated.fetch_add(1, Ordering::Relaxed);
            let mut generator = ProfiledGenerator::new(
                self.profile.clone(),
                CacheGeometry::paper_baseline(),
                self.seed,
            );
            for _ in 0..self.next_op {
                generator.next_op();
            }
            self.generator = Some(ChunkedGenerator::resume(
                generator,
                self.chunk_ops,
                self.total_ops,
                self.next_op,
            ));
        }
        self.store.chunks_generated.fetch_add(1, Ordering::Relaxed);
        self.generator
            .as_mut()
            .and_then(ChunkedGenerator::next_chunk)
            .expect("the source stops at the end of the trace")
    }
}

impl ChunkSource for TraceSource<'_> {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        if self.next_op >= self.total_ops {
            return None;
        }
        let chunk = match self.chunk_from_file() {
            Some(chunk) => chunk,
            None => {
                let chunk = self.chunk_from_generator();
                if chunk.len() as u64 == self.total_ops {
                    if let Some(path) = &self.path {
                        if let Err(e) = TraceStore::persist(path, &chunk) {
                            self.store.write_errors.fetch_add(1, Ordering::Relaxed);
                            eprintln!("trace store: cannot write {} ({e})", path.display());
                        }
                    }
                }
                chunk
            }
        };
        self.next_op = chunk.end_op();
        Some(Arc::new(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_trace::{profiles, MemOp, Trace};

    fn profile() -> WorkloadProfile {
        profiles::by_name("gcc").expect("gcc in suite")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cache8t-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The trace as a materialized run generates it.
    fn generated(seed: u64, ops: usize) -> Trace {
        ProfiledGenerator::new(profile(), CacheGeometry::paper_baseline(), seed).collect(ops)
    }

    /// Drains one open of the store, checking that the chunks tile the
    /// trace in order.
    fn drain(
        store: &TraceStore,
        profile: &WorkloadProfile,
        seed: u64,
        ops: usize,
        chunk_ops: Option<usize>,
    ) -> (Vec<MemOp>, u64) {
        let mut source = store.open(profile, seed, ops, chunk_ops);
        let (mut all, mut instructions, mut expected_start) = (Vec::new(), 0, 0);
        while let Some(chunk) = source.next_chunk() {
            assert_eq!(chunk.start_op(), expected_start, "chunks tile in order");
            expected_start = chunk.end_op();
            all.extend_from_slice(chunk.ops());
            instructions += chunk.instructions();
        }
        assert_eq!(all.len(), ops);
        (all, instructions)
    }

    #[test]
    fn every_chunking_yields_the_generated_trace() {
        let store = TraceStore::in_memory();
        let trace = generated(13, 5_000);
        for chunk_ops in [
            None,
            Some(64),
            Some(1_000),
            Some(4_096),
            Some(5_000),
            Some(9_999),
        ] {
            let (ops, instructions) = drain(&store, &profile(), 13, 5_000, chunk_ops);
            assert_eq!(&ops[..], trace.ops(), "chunk_ops={chunk_ops:?}");
            assert_eq!(instructions, trace.instructions());
        }
        let s = store.stats();
        assert_eq!((s.generated, s.disk_hits), (6, 0), "each open generates");
        assert_eq!(s.chunks_generated, 1 + 79 + 5 + 2 + 1 + 1);
    }

    #[test]
    fn distinct_keys_get_distinct_traces() {
        let store = TraceStore::in_memory();
        let (a, _) = drain(&store, &profile(), 3, 500, None);
        let (b, _) = drain(&store, &profile(), 4, 500, None);
        assert_ne!(a, b);
        // Same name, different parameters: the fingerprint must split
        // the cache files.
        let mut tweaked = profile();
        tweaked.silent_fraction += 0.1;
        let (d, _) = drain(&store, &tweaked, 3, 500, None);
        assert_ne!(a, d);
        let disk = TraceStore::persistent("unused");
        assert_ne!(
            disk.path_for(&profile(), 3, 500),
            disk.path_for(&tweaked, 3, 500)
        );
    }

    #[test]
    fn persistent_store_round_trips_through_disk() {
        let dir = temp_dir("roundtrip");
        let first = TraceStore::persistent(&dir);
        let a = drain(&first, &profile(), 7, 400, None);
        assert_eq!(first.stats().generated, 1);
        assert!(first
            .path_for(&profile(), 7, 400)
            .expect("persistent store has paths")
            .is_file());

        // A fresh store (a new invocation) reads the same trace from
        // disk, whole or chunk by chunk.
        let second = TraceStore::persistent(&dir);
        assert_eq!(a, drain(&second, &profile(), 7, 400, None));
        assert_eq!(a, drain(&second, &profile(), 7, 400, Some(64)));
        let s = second.stats();
        assert_eq!((s.generated, s.disk_hits, s.chunks_generated), (0, 2, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_generation_is_not_persisted() {
        // Only a whole-trace generation writes the file: a chunked open
        // never holds the trace to write it.
        let dir = temp_dir("streamed");
        let store = TraceStore::persistent(&dir);
        drain(&store, &profile(), 7, 400, Some(100));
        assert!(!store.path_for(&profile(), 7, 400).expect("path").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_cache_files_are_regenerated_not_fatal() {
        let dir = temp_dir("corrupt");
        let store = TraceStore::persistent(&dir);
        let expected = drain(&store, &profile(), 9, 300, None);
        let path = store.path_for(&profile(), 9, 300).expect("path");
        let valid = fs::read(&path).expect("cache file exists");
        let reopen = || {
            let store = TraceStore::persistent(&dir);
            assert_eq!(drain(&store, &profile(), 9, 300, None), expected);
            store.stats()
        };

        // Truncated mid-record: the header validates, the read dies.
        fs::write(&path, &valid[..valid.len() / 2]).expect("truncate");
        let s = reopen();
        assert_eq!((s.recovered, s.generated, s.disk_hits), (1, 1, 0));

        // Outright garbage (bad magic).
        fs::write(&path, b"this is not a trace").expect("garbage");
        let s = reopen();
        assert_eq!((s.recovered, s.generated, s.disk_hits), (1, 1, 0));

        // A stale file of the wrong length is also replaced...
        let mut short = Vec::new();
        generated(9, 100).write_to(&mut short).expect("vec write");
        fs::write(&path, &short).expect("stale");
        let s = reopen();
        assert_eq!((s.recovered, s.generated, s.disk_hits), (1, 1, 0));

        // ...and the rewritten file is valid again.
        let s = reopen();
        assert_eq!((s.recovered, s.generated, s.disk_hits), (0, 0, 1));
        assert_eq!(fs::read(&path).expect("rewritten"), valid);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_file_falls_back_to_generation_mid_stream() {
        let dir = temp_dir("stream-corrupt");
        let store = TraceStore::persistent(&dir);
        let expected = drain(&store, &profile(), 8, 1_500, None);
        // Truncate mid-record so the header still validates but a later
        // chunk read dies.
        let path = store.path_for(&profile(), 8, 1_500).expect("path");
        let bytes = fs::read(&path).expect("cache file exists");
        fs::write(&path, &bytes[..bytes.len() - bytes.len() / 3]).expect("truncate");

        let store = TraceStore::persistent(&dir);
        let streamed = drain(&store, &profile(), 8, 1_500, Some(200));
        assert_eq!(streamed, expected, "fallback must stay identical");
        let s = store.stats();
        assert_eq!((s.recovered, s.generated, s.disk_hits), (1, 1, 0));
        assert!(
            s.chunks_generated > 0 && s.chunks_generated < 8,
            "early chunks came from disk: {s:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_degrades_to_generation() {
        // A file used as the "directory" makes every write fail.
        let blocker =
            std::env::temp_dir().join(format!("cache8t-store-blocker-{}", std::process::id()));
        fs::write(&blocker, b"occupied").expect("blocker file");
        let store = TraceStore::persistent(blocker.join("sub"));
        let (ops, _) = drain(&store, &profile(), 2, 200, None);
        assert_eq!(ops, generated(2, 200).ops());
        let s = store.stats();
        assert_eq!((s.write_errors, s.recovered), (1, 0));
        let _ = fs::remove_file(&blocker);
    }
}
