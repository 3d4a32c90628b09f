//! Generate-once trace store shared by every sweep job.
//!
//! A sweep replays the *same* synthetic trace against many cache
//! configurations (the paper's own methodology: one Pin trace, many
//! cache models), so the store keys traces by everything that affects
//! generation — profile parameters, seed, and length — and hands out
//! `Arc<Trace>` clones. The first requester generates (or loads), every
//! concurrent requester blocks on the same cell, and later requesters
//! hit memory.
//!
//! With a directory configured the store is additionally backed by the
//! existing `C8TT` on-disk format (see `cache8t_trace`'s `io` module),
//! so repeated *invocations* skip generation entirely. A truncated,
//! corrupt, or wrong-length cache file is never fatal: the trace is
//! regenerated and the file rewritten.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cache8t_obs::{timeline, Span};
use cache8t_sim::CacheGeometry;
use cache8t_trace::{
    ChunkedGenerator, ProfiledGenerator, Trace, TraceChunk, TraceFileReader, TraceGenerator,
    WorkloadProfile,
};

use crate::stream::ChunkSource;

/// Environment variable selecting the on-disk location: a directory
/// path, or `off` to force a purely in-memory store.
pub const STORE_ENV_VAR: &str = "CACHE8T_TRACE_STORE";

/// The conventional on-disk location (`cache8t sweep --trace-store`,
/// CI). Disk backing is opt-in: generating a synthetic trace is cheap
/// enough that the in-process `Arc<Trace>` cache is the right default,
/// and on slow filesystems reading a cached multi-megabyte `C8TT` file
/// can cost more than regenerating it.
pub const DEFAULT_STORE_DIR: &str = "results/traces";

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TraceKey {
    name: String,
    fingerprint: u64,
    seed: u64,
    ops: usize,
}

/// Cumulative counters describing how requests were satisfied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Traces generated from scratch.
    pub generated: u64,
    /// Requests served from an already-resident `Arc<Trace>`.
    pub mem_hits: u64,
    /// Traces loaded from a valid on-disk cache file.
    pub disk_hits: u64,
    /// Corrupt/truncated/wrong-length cache files that were regenerated.
    pub recovered: u64,
    /// Cache files that could not be written (best-effort, non-fatal).
    pub write_errors: u64,
    /// Chunks generated by streaming cursors (shared frontier and
    /// private catch-up generators combined).
    pub stream_chunks_generated: u64,
    /// Streaming chunk requests served from the shared recent-chunk
    /// window without regenerating.
    pub stream_mem_hits: u64,
    /// Streaming chunk requests served from an on-disk `C8TT` file.
    pub stream_disk_chunks: u64,
    /// Times a lagging cursor had to restart a private generator from
    /// the seed because its next chunk had aged out of the shared
    /// window.
    pub stream_restarts: u64,
}

/// Streaming-mode counters, shared by every cursor of every stream a
/// store hands out (cursors outlive the `&TraceStore` borrow, so these
/// live behind an `Arc` rather than in the store itself).
#[derive(Debug, Default)]
struct StreamCounters {
    chunks_generated: AtomicU64,
    mem_hits: AtomicU64,
    disk_chunks: AtomicU64,
    restarts: AtomicU64,
}

/// Thread-safe, generate-once cache of synthetic traces.
#[derive(Debug, Default)]
pub struct TraceStore {
    dir: Option<PathBuf>,
    cells: Mutex<HashMap<TraceKey, Arc<OnceLock<Arc<Trace>>>>>,
    streams: Mutex<HashMap<(TraceKey, usize), Arc<StreamState>>>,
    generated: AtomicU64,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    recovered: AtomicU64,
    write_errors: AtomicU64,
    stream_counters: Arc<StreamCounters>,
}

impl TraceStore {
    /// A purely in-memory store (no disk backing).
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

    /// The harness default: in-memory, unless the `CACHE8T_TRACE_STORE`
    /// environment variable names a directory to back the store with
    /// (`off` explicitly selects in-memory).
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

    /// Returns the trace for `profile` at `seed` with `ops` operations,
    /// generating it (at the paper's reference geometry, so every cache
    /// configuration replays the same trace) on first request.
    /// Concurrent requests for the same key generate exactly once.
    pub fn get(&self, profile: &WorkloadProfile, seed: u64, ops: usize) -> Arc<Trace> {
        let key = TraceKey {
            name: profile.name.clone(),
            fingerprint: profile.fingerprint(),
            seed,
            ops,
        };
        let cell = {
            // Recover from a poisoned map rather than propagating a
            // panic into every pool worker that shares the store: the
            // map itself is always left structurally valid (the guarded
            // section only does entry/clone), so the poison flag is the
            // only thing wrong.
            let mut cells = self
                .cells
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(cells.entry(key.clone()).or_default())
        };
        if let Some(trace) = cell.get() {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            timeline::instant("trace-mem-hit", "store");
            return Arc::clone(trace);
        }
        Arc::clone(cell.get_or_init(|| Arc::new(self.load_or_generate(&key, profile))))
    }

    /// Opens (or joins) a streaming view of the trace for `profile` at
    /// `seed` with `ops` operations, chunked at `chunk_ops`. Call
    /// [`TraceStream::cursor`] per consumer; every cursor yields the
    /// same chunk sequence that materializing the trace and slicing it
    /// would, while holding only a bounded window of chunks in memory.
    ///
    /// Dedup works per chunk instead of per trace: cursors moving
    /// roughly together (the five sweep units of one benchmark) share a
    /// single frontier generator and a recent-chunk window, so the
    /// stream is typically generated once no matter how many consumers
    /// replay it. A cursor that falls behind the window restarts a
    /// private generator from the seed (counted in
    /// [`StoreStats::stream_restarts`]) and stays memoized at its own
    /// position from then on. When the store is disk-backed and a valid
    /// `C8TT` file for the key exists (written by an earlier
    /// materialized run), cursors read chunks from the file instead of
    /// generating.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_ops == 0`.
    pub fn stream(
        &self,
        profile: &WorkloadProfile,
        seed: u64,
        ops: usize,
        chunk_ops: usize,
    ) -> TraceStream {
        assert!(chunk_ops > 0, "chunk size must be at least one op");
        let key = TraceKey {
            name: profile.name.clone(),
            fingerprint: profile.fingerprint(),
            seed,
            ops,
        };
        let state = {
            let mut streams = self
                .streams
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(streams.entry((key.clone(), chunk_ops)).or_insert_with(|| {
                Arc::new(StreamState {
                    profile: profile.clone(),
                    seed,
                    total_ops: ops as u64,
                    chunk_ops,
                    path: self.path_for(profile, seed, ops),
                    frontier: Mutex::new(None),
                    counters: Arc::clone(&self.stream_counters),
                })
            }))
        };
        TraceStream { state }
    }

    /// Snapshot of the store counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            generated: self.generated.load(Ordering::Relaxed),
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            stream_chunks_generated: self
                .stream_counters
                .chunks_generated
                .load(Ordering::Relaxed),
            stream_mem_hits: self.stream_counters.mem_hits.load(Ordering::Relaxed),
            stream_disk_chunks: self.stream_counters.disk_chunks.load(Ordering::Relaxed),
            stream_restarts: self.stream_counters.restarts.load(Ordering::Relaxed),
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

    fn load_or_generate(&self, key: &TraceKey, profile: &WorkloadProfile) -> Trace {
        let path = self.path_for(profile, key.seed, key.ops);
        if let Some(path) = &path {
            match Self::load(path, key.ops) {
                Ok(Some(trace)) => {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    timeline::instant("trace-disk-hit", "store");
                    return trace;
                }
                Ok(None) => {} // no cache file yet
                Err(reason) => {
                    // Never fatal: a damaged cache entry costs one
                    // regeneration, not the sweep.
                    self.recovered.fetch_add(1, Ordering::Relaxed);
                    eprintln!("trace store: regenerating {} ({reason})", path.display());
                }
            }
        }
        let span = Span::labelled("store.generate", "store", || {
            format!("generate {}", key.name)
        });
        let trace =
            ProfiledGenerator::new(profile.clone(), CacheGeometry::paper_baseline(), key.seed)
                .collect(key.ops);
        drop(span);
        self.generated.fetch_add(1, Ordering::Relaxed);
        if let Some(path) = &path {
            if let Err(e) = Self::persist(path, &trace) {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("trace store: cannot write {} ({e})", path.display());
            }
        }
        trace
    }

    /// Loads and validates a cache file. `Ok(None)` means "no file";
    /// `Err` carries the reason the file is unusable.
    fn load(path: &Path, expected_ops: usize) -> Result<Option<Trace>, String> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::NotFound | io::ErrorKind::NotADirectory
                ) =>
            {
                return Ok(None)
            }
            Err(e) => return Err(format!("unreadable: {e}")),
        };
        let trace = Trace::read_from(bytes.as_slice()).map_err(|e| e.to_string())?;
        if trace.len() != expected_ops {
            return Err(format!(
                "wrong length: {} ops cached, {expected_ops} expected",
                trace.len()
            ));
        }
        Ok(Some(trace))
    }

    /// Best-effort atomic write: temp file in the same directory, then
    /// rename, so concurrent processes never observe a torn file.
    fn persist(path: &Path, trace: &Trace) -> io::Result<()> {
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

/// How many recently generated chunks the shared frontier retains for
/// consumers trailing slightly behind the fastest cursor. The window is
/// the streaming store's entire chunk-memory footprint per stream:
/// `SHARED_WINDOW_CHUNKS × chunk_ops × sizeof(MemOp)`.
pub const SHARED_WINDOW_CHUNKS: usize = 8;

/// The generate-ahead frontier one stream's cursors share: a single
/// chunked generator plus the window of its most recent output.
struct Frontier {
    generator: ChunkedGenerator<ProfiledGenerator>,
    /// Recent chunks, oldest first; covers chunk indices
    /// `[next_index - window.len(), next_index)`.
    window: VecDeque<Arc<TraceChunk>>,
    /// Chunk index the generator produces next.
    next_index: u64,
}

/// Everything a stream's cursors share, behind one `Arc`.
struct StreamState {
    profile: WorkloadProfile,
    seed: u64,
    total_ops: u64,
    chunk_ops: usize,
    path: Option<PathBuf>,
    /// Lazily built: a stream served entirely from disk never pays for
    /// a generator.
    frontier: Mutex<Option<Frontier>>,
    counters: Arc<StreamCounters>,
}

impl StreamState {
    fn chunk_count(&self) -> u64 {
        self.total_ops.div_ceil(self.chunk_ops as u64)
    }

    fn fresh_generator(&self) -> ProfiledGenerator {
        ProfiledGenerator::new(
            self.profile.clone(),
            CacheGeometry::paper_baseline(),
            self.seed,
        )
    }
}

impl std::fmt::Debug for StreamState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamState")
            .field("profile", &self.profile.name)
            .field("seed", &self.seed)
            .field("total_ops", &self.total_ops)
            .field("chunk_ops", &self.chunk_ops)
            .finish_non_exhaustive()
    }
}

/// A streaming view of one stored trace (see [`TraceStore::stream`]).
/// Cheap to clone; every clone shares the same frontier and counters.
#[derive(Debug, Clone)]
pub struct TraceStream {
    state: Arc<StreamState>,
}

impl TraceStream {
    /// Opens an independent cursor over the stream. Each replay job
    /// (scheme unit, stream-stats unit) takes its own cursor; cursors
    /// deduplicate generation through the shared frontier.
    pub fn cursor(&self) -> StreamCursor {
        StreamCursor {
            state: Arc::clone(&self.state),
            next_index: 0,
            file: None,
            file_checked: false,
            private: None,
        }
    }

    /// Total operations in the stream.
    pub fn total_ops(&self) -> u64 {
        self.state.total_ops
    }

    /// Configured chunk size in ops.
    pub fn chunk_ops(&self) -> usize {
        self.state.chunk_ops
    }
}

/// A sequential [`ChunkSource`] over a [`TraceStream`].
///
/// Resolution order per chunk: the shared recent-chunk window, then the
/// shared frontier generator (advancing it), then — for cursors that
/// fell more than [`SHARED_WINDOW_CHUNKS`] behind — a private generator
/// restarted from the seed and kept memoized at this cursor's position.
/// When a valid on-disk `C8TT` file exists the cursor reads records
/// from it instead, falling back to generation if the file turns out to
/// be damaged mid-stream. Every path yields the identical chunk
/// sequence.
pub struct StreamCursor {
    state: Arc<StreamState>,
    next_index: u64,
    file: Option<TraceFileReader<io::BufReader<fs::File>>>,
    file_checked: bool,
    private: Option<ChunkedGenerator<ProfiledGenerator>>,
}

impl std::fmt::Debug for StreamCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamCursor")
            .field("state", &self.state)
            .field("next_index", &self.next_index)
            .field("from_file", &self.file.is_some())
            .field("private", &self.private.is_some())
            .finish()
    }
}

impl StreamCursor {
    /// Lazily opens the backing `C8TT` file, validating its header
    /// against the stream key. Any problem simply means "no disk".
    fn open_file(&mut self) {
        self.file_checked = true;
        let Some(path) = &self.state.path else { return };
        let Ok(file) = fs::File::open(path) else {
            return;
        };
        match TraceFileReader::open(io::BufReader::new(file)) {
            Ok(reader) if reader.op_count() == self.state.total_ops => self.file = Some(reader),
            Ok(_) | Err(_) => {} // wrong length or bad header: generate
        }
    }

    /// Reads the chunk at `self.next_index` from the open file, or
    /// `None` on a mid-stream read error (the caller falls back to
    /// generation).
    fn chunk_from_file(&mut self) -> Option<TraceChunk> {
        let reader = self.file.as_mut()?;
        debug_assert_eq!(
            reader.position(),
            self.next_index * self.state.chunk_ops as u64
        );
        match reader.read_chunk(self.state.chunk_ops) {
            // `None` (end of file) cannot happen: `next_chunk` stops at
            // the stream's chunk count, and the file holds that many ops.
            Ok(chunk) => chunk,
            Err(e) => {
                let path = self.state.path.as_deref().unwrap_or_else(|| Path::new("?"));
                eprintln!(
                    "trace store: stream falling back to generation for {} ({e})",
                    path.display()
                );
                self.file = None;
                None
            }
        }
    }

    /// Produces the chunk at `self.next_index` from the cursor's
    /// private generator, creating (and fast-forwarding) it first if
    /// needed.
    fn chunk_from_private(&mut self) -> Arc<TraceChunk> {
        let counters = Arc::clone(&self.state.counters);
        if self.private.is_none() {
            counters.restarts.fetch_add(1, Ordering::Relaxed);
            let span = Span::labelled("store.stream_restart", "store", || {
                format!("stream restart {}", self.state.profile.name)
            });
            let mut generator = self.state.fresh_generator();
            let skip = self.next_index * self.state.chunk_ops as u64;
            for _ in 0..skip {
                generator.next_op();
            }
            drop(span);
            self.private = Some(ChunkedGenerator::resume(
                generator,
                self.state.chunk_ops,
                self.state.total_ops,
                skip,
            ));
        }
        let chunk = self
            .private
            .as_mut()
            .expect("just ensured")
            .next_chunk()
            .expect("cursor index is within the stream");
        counters.chunks_generated.fetch_add(1, Ordering::Relaxed);
        Arc::new(chunk)
    }
}

impl ChunkSource for StreamCursor {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        if self.next_index >= self.state.chunk_count() {
            return None;
        }
        // Disk first: a file written by an earlier materialized run
        // serves every cursor without any generation.
        if self.file.is_some() || (!self.file_checked && self.private.is_none()) {
            if !self.file_checked {
                self.open_file();
            }
            if self.file.is_some() {
                if let Some(chunk) = self.chunk_from_file() {
                    self.state
                        .counters
                        .disk_chunks
                        .fetch_add(1, Ordering::Relaxed);
                    self.next_index += 1;
                    return Some(Arc::new(chunk));
                }
                // Mid-stream file failure: fall through to generation.
            }
        }
        // A cursor that went private stays private — it is memoized at
        // exactly this position.
        if self.private.is_some() {
            let chunk = self.chunk_from_private();
            self.next_index += 1;
            return Some(chunk);
        }
        // Shared path: window hit, frontier advance, or fall behind.
        let index = self.next_index;
        let shared = {
            let mut guard = self
                .state
                .frontier
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let frontier = guard.get_or_insert_with(|| Frontier {
                generator: ChunkedGenerator::new(
                    self.state.fresh_generator(),
                    self.state.chunk_ops,
                    self.state.total_ops,
                ),
                window: VecDeque::with_capacity(SHARED_WINDOW_CHUNKS),
                next_index: 0,
            });
            let window_start = frontier.next_index - frontier.window.len() as u64;
            if index >= window_start && index < frontier.next_index {
                let chunk = Arc::clone(&frontier.window[(index - window_start) as usize]);
                self.state.counters.mem_hits.fetch_add(1, Ordering::Relaxed);
                timeline::instant("stream-chunk-hit", "store");
                Some(chunk)
            } else if index == frontier.next_index {
                let chunk = Arc::new(
                    ChunkedGenerator::next_chunk(&mut frontier.generator)
                        .expect("cursor index is within the stream"),
                );
                if frontier.window.len() == SHARED_WINDOW_CHUNKS {
                    frontier.window.pop_front();
                }
                frontier.window.push_back(Arc::clone(&chunk));
                frontier.next_index += 1;
                self.state
                    .counters
                    .chunks_generated
                    .fetch_add(1, Ordering::Relaxed);
                Some(chunk)
            } else {
                // Aged out of the window: go private outside the lock.
                None
            }
        };
        let chunk = shared.unwrap_or_else(|| self.chunk_from_private());
        self.next_index += 1;
        Some(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache8t_trace::profiles;

    fn profile() -> WorkloadProfile {
        profiles::by_name("gcc").expect("gcc in suite")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cache8t-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_store_generates_once_and_shares() {
        let store = TraceStore::in_memory();
        let a = store.get(&profile(), 3, 500);
        let b = store.get(&profile(), 3, 500);
        assert!(Arc::ptr_eq(&a, &b));
        let s = store.stats();
        assert_eq!((s.generated, s.mem_hits, s.disk_hits), (1, 1, 0));
    }

    #[test]
    fn distinct_keys_get_distinct_traces() {
        let store = TraceStore::in_memory();
        let a = store.get(&profile(), 3, 500);
        let b = store.get(&profile(), 4, 500);
        let c = store.get(&profile(), 3, 600);
        assert_ne!(a.as_ref(), b.as_ref());
        assert_ne!(a.len(), c.len());
        // Same name, different parameters: the fingerprint must split them.
        let mut tweaked = profile();
        tweaked.silent_fraction += 0.1;
        let d = store.get(&tweaked, 3, 500);
        assert_ne!(a.as_ref(), d.as_ref());
        assert_eq!(store.stats().generated, 4);
    }

    #[test]
    fn persistent_store_round_trips_through_disk() {
        let dir = temp_dir("roundtrip");
        let first = TraceStore::persistent(&dir);
        let a = store_get_cloned(&first, 7, 400);
        assert_eq!(first.stats().generated, 1);
        assert!(first
            .path_for(&profile(), 7, 400)
            .expect("persistent store has paths")
            .is_file());

        // A fresh store (a new invocation) loads the same stream from disk.
        let second = TraceStore::persistent(&dir);
        let b = store_get_cloned(&second, 7, 400);
        assert_eq!(a, b, "disk round-trip must be replay-identical");
        let s = second.stats();
        assert_eq!((s.generated, s.disk_hits), (0, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    fn store_get_cloned(store: &TraceStore, seed: u64, ops: usize) -> Trace {
        store.get(&profile(), seed, ops).as_ref().clone()
    }

    #[test]
    fn corrupt_cache_file_is_regenerated_not_fatal() {
        let dir = temp_dir("corrupt");
        let path = {
            let store = TraceStore::persistent(&dir);
            let _ = store.get(&profile(), 9, 300);
            store.path_for(&profile(), 9, 300).expect("path")
        };

        // Truncate mid-record.
        let bytes = fs::read(&path).expect("cache file exists");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let store = TraceStore::persistent(&dir);
        let truncated = store.get(&profile(), 9, 300);
        assert_eq!(truncated.len(), 300);
        let s = store.stats();
        assert_eq!((s.recovered, s.generated), (1, 1));

        // Outright garbage (bad magic).
        fs::write(&path, b"this is not a trace").expect("garbage");
        let store = TraceStore::persistent(&dir);
        let garbage = store.get(&profile(), 9, 300);
        assert_eq!(garbage.as_ref(), truncated.as_ref());
        assert_eq!(store.stats().recovered, 1);

        // A stale file of the wrong length is also replaced...
        let short = TraceStore::in_memory().get(&profile(), 9, 100);
        let mut buffer = Vec::new();
        short.write_to(&mut buffer).expect("vec write");
        fs::write(&path, &buffer).expect("stale");
        let store = TraceStore::persistent(&dir);
        assert_eq!(store.get(&profile(), 9, 300).len(), 300);
        assert_eq!(store.stats().recovered, 1);

        // ...and the rewritten file is valid again.
        let store = TraceStore::persistent(&dir);
        let _ = store.get(&profile(), 9, 300);
        let s = store.stats();
        assert_eq!((s.disk_hits, s.recovered), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    fn drain_cursor(mut cursor: StreamCursor) -> (Vec<cache8t_trace::MemOp>, u64) {
        let mut ops = Vec::new();
        let mut instructions = 0;
        let mut expected_start = 0u64;
        while let Some(chunk) = cursor.next_chunk() {
            assert_eq!(chunk.start_op(), expected_start, "chunks tile in order");
            expected_start = chunk.end_op();
            ops.extend_from_slice(chunk.ops());
            instructions += chunk.instructions();
        }
        (ops, instructions)
    }

    #[test]
    fn streamed_chunks_match_the_materialized_trace() {
        let store = TraceStore::in_memory();
        let trace = store.get(&profile(), 13, 5_000);
        for chunk_ops in [64usize, 1_000, 4_096, 5_000, 9_999] {
            let stream = store.stream(&profile(), 13, 5_000, chunk_ops);
            let (ops, instructions) = drain_cursor(stream.cursor());
            assert_eq!(&ops[..], trace.ops(), "chunk_ops={chunk_ops}");
            assert_eq!(instructions, trace.instructions());
        }
    }

    #[test]
    fn concurrent_cursors_share_the_frontier() {
        let store = TraceStore::in_memory();
        let stream = store.stream(&profile(), 21, 4_000, 256);
        // Two cursors in lockstep: the second should ride the window.
        let mut a = stream.cursor();
        let mut b = stream.cursor();
        let mut ops_a = Vec::new();
        let mut ops_b = Vec::new();
        loop {
            match (a.next_chunk(), b.next_chunk()) {
                (Some(ca), Some(cb)) => {
                    assert!(Arc::ptr_eq(&ca, &cb), "window hit shares the chunk");
                    ops_a.extend_from_slice(ca.ops());
                    ops_b.extend_from_slice(cb.ops());
                }
                (None, None) => break,
                other => panic!("cursors desynced: {other:?}"),
            }
        }
        assert_eq!(ops_a, ops_b);
        let s = store.stats();
        let chunks = 4_000u64.div_ceil(256);
        assert_eq!(s.stream_chunks_generated, chunks, "generated once");
        assert_eq!(s.stream_mem_hits, chunks, "second cursor hit the window");
        assert_eq!(s.stream_restarts, 0);
    }

    #[test]
    fn lagging_cursor_restarts_privately_with_identical_chunks() {
        let store = TraceStore::in_memory();
        let stream = store.stream(&profile(), 5, 4_000, 128);
        // Cursor A drains the whole stream, pushing the window far past
        // the start.
        let (ops_a, instr_a) = drain_cursor(stream.cursor());
        // Cursor B starts afterwards: chunk 0 has aged out, so it must
        // restart privately — and still see the identical stream.
        let (ops_b, instr_b) = drain_cursor(stream.cursor());
        assert_eq!(ops_a, ops_b);
        assert_eq!(instr_a, instr_b);
        let s = store.stats();
        assert_eq!(s.stream_restarts, 1);
        assert!(s.stream_chunks_generated >= 2 * 4_000 / 128);
    }

    #[test]
    fn streaming_reads_persisted_files_chunk_by_chunk() {
        let dir = temp_dir("stream-disk");
        let store = TraceStore::persistent(&dir);
        // A materialized run writes the C8TT file...
        let trace = store.get(&profile(), 31, 2_000);
        // ...and a streaming run on a fresh store serves chunks from it
        // without generating anything.
        let fresh = TraceStore::persistent(&dir);
        let stream = fresh.stream(&profile(), 31, 2_000, 300);
        let (ops, instructions) = drain_cursor(stream.cursor());
        assert_eq!(&ops[..], trace.ops());
        assert_eq!(instructions, trace.instructions());
        let s = fresh.stats();
        assert_eq!(s.stream_disk_chunks, 2_000u64.div_ceil(300));
        assert_eq!(s.stream_chunks_generated, 0);
        assert_eq!(s.stream_restarts, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_stream_file_falls_back_to_generation() {
        let dir = temp_dir("stream-corrupt");
        let expected = {
            let store = TraceStore::persistent(&dir);
            let trace = store.get(&profile(), 8, 1_500);
            let path = store.path_for(&profile(), 8, 1_500).expect("path");
            // Truncate mid-record so the header still validates but a
            // later chunk read dies.
            let bytes = fs::read(&path).expect("cache file exists");
            fs::write(&path, &bytes[..bytes.len() - bytes.len() / 3]).expect("truncate");
            trace.as_ref().clone()
        };
        let store = TraceStore::persistent(&dir);
        let stream = store.stream(&profile(), 8, 1_500, 200);
        let (ops, instructions) = drain_cursor(stream.cursor());
        assert_eq!(&ops[..], expected.ops(), "fallback must stay identical");
        assert_eq!(instructions, expected.instructions());
        let s = store.stats();
        assert!(s.stream_disk_chunks > 0, "early chunks came from disk");
        assert!(s.stream_restarts >= 1, "fallback restarted a generator");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_map_recovers_instead_of_cascading_panics() {
        let store = Arc::new(TraceStore::in_memory());
        let poisoner = Arc::clone(&store);
        // Panic while holding the map lock, as a crashing pool worker
        // would; the panic must stay contained to that thread.
        let result = std::thread::spawn(move || {
            let _guard = poisoner.cells.lock().unwrap();
            panic!("worker died mid-lookup");
        })
        .join();
        assert!(result.is_err(), "the poisoning thread must have panicked");
        // Every later requester still gets its trace.
        let trace = store.get(&profile(), 5, 100);
        assert_eq!(trace.len(), 100);
        assert_eq!(store.stats().generated, 1);
    }

    #[test]
    fn unwritable_dir_degrades_to_memory_only() {
        // A file used as the "directory" makes every write fail.
        let blocker =
            std::env::temp_dir().join(format!("cache8t-store-blocker-{}", std::process::id()));
        fs::write(&blocker, b"occupied").expect("blocker file");
        let store = TraceStore::persistent(blocker.join("sub"));
        let trace = store.get(&profile(), 2, 200);
        assert_eq!(trace.len(), 200);
        assert_eq!(store.stats().write_errors, 1);
        let _ = fs::remove_file(&blocker);
    }
}
