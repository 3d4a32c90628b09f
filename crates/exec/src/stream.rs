//! Streamed replay plumbing: chunk sources and double-buffered prefetch.
//!
//! The materialized path hands the replay loop a whole `&Trace`; the
//! streaming path hands it a [`ChunkSource`] — anything that yields the
//! trace's [`TraceChunk`]s in order. [`PrefetchedChunks`] wraps a source
//! with a producer thread and a zero-capacity (rendezvous) channel, so at
//! any moment at most two chunks are alive: the one the replay loop is
//! consuming and the one the producer is generating (or holding) behind
//! it. That is the whole memory story of a streamed replay — RSS is
//! bounded by `2 × chunk_ops × sizeof(MemOp)` plus the controller, for any
//! trace length.

use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;

use cache8t_trace::{ChunkedGenerator, TraceChunk, TraceGenerator};

/// A source of trace chunks in stream order.
///
/// `next_chunk` returns `None` at end of stream. Chunks arrive as
/// `Arc<TraceChunk>`, so a source can hand a chunk to a consumer on
/// another thread ([`PrefetchedChunks`]) without copying it. A sweep
/// job's source is a [`TraceSource`](crate::TraceSource).
pub trait ChunkSource {
    /// Produces the next chunk, or `None` when the stream is exhausted.
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>>;
}

/// A [`ChunkedGenerator`] is a chunk source: it generates on demand.
impl<G: TraceGenerator> ChunkSource for ChunkedGenerator<G> {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        ChunkedGenerator::next_chunk(self).map(Arc::new)
    }
}

/// An in-memory chunk list is a chunk source (used by tests and by the
/// lockstep conformance harness).
impl ChunkSource for std::vec::IntoIter<Arc<TraceChunk>> {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        self.next()
    }
}

/// Double-buffered prefetch over a [`ChunkSource`].
///
/// A producer thread drains the source into a zero-capacity
/// [`sync_channel`]: while the consumer replays chunk *k*, the producer
/// is already generating chunk *k + 1* and blocks handing it over until
/// the consumer has dropped chunk *k* and asks for the next one.
/// Generation and replay overlap, and the number of resident chunks never
/// exceeds two. (A capacity-1 channel would let a producer that outruns
/// replay park *k + 1* in the channel and start on *k + 2*: three live
/// chunks.)
///
/// Dropping the prefetcher mid-stream shuts the producer down cleanly:
/// the receiver closes, the producer's blocked send fails, and the
/// thread is joined.
#[derive(Debug)]
pub struct PrefetchedChunks {
    receiver: Option<Receiver<Arc<TraceChunk>>>,
    producer: Option<JoinHandle<()>>,
}

impl PrefetchedChunks {
    /// Spawns the producer thread over `source`.
    pub fn spawn<S: ChunkSource + Send + 'static>(mut source: S) -> Self {
        let (sender, receiver) = sync_channel::<Arc<TraceChunk>>(0);
        let producer = std::thread::Builder::new()
            .name("chunk-prefetch".to_owned())
            .spawn(move || {
                while let Some(chunk) = source.next_chunk() {
                    // Err means the consumer dropped the receiver —
                    // replay is over (or abandoned), stop producing.
                    if sender.send(chunk).is_err() {
                        break;
                    }
                }
            })
            .expect("spawning the chunk-prefetch thread");
        PrefetchedChunks {
            receiver: Some(receiver),
            producer: Some(producer),
        }
    }
}

impl ChunkSource for PrefetchedChunks {
    fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
        self.receiver.as_ref()?.recv().ok()
    }
}

impl Drop for PrefetchedChunks {
    fn drop(&mut self) {
        // Close the channel first so a producer blocked in send() wakes
        // up and exits, then join it. A producer that panicked already
        // poisoned nothing — the channel just closes early.
        drop(self.receiver.take());
        if let Some(handle) = self.producer.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Weak;

    use super::*;
    use cache8t_sim::CacheGeometry;
    use cache8t_trace::{profiles, ProfiledGenerator};

    fn chunked(seed: u64, chunk_ops: usize, total: u64) -> ChunkedGenerator<ProfiledGenerator> {
        let profile = profiles::by_name("gcc").expect("gcc profile exists");
        let generator =
            ProfiledGenerator::new(profile.clone(), CacheGeometry::paper_baseline(), seed);
        ChunkedGenerator::new(generator, chunk_ops, total)
    }

    fn drain(mut source: impl ChunkSource) -> Vec<Arc<TraceChunk>> {
        let mut chunks = Vec::new();
        while let Some(chunk) = source.next_chunk() {
            chunks.push(chunk);
        }
        chunks
    }

    #[test]
    fn prefetch_preserves_the_chunk_sequence() {
        let direct = drain(chunked(5, 1000, 4_321));
        let prefetched = drain(PrefetchedChunks::spawn(chunked(5, 1000, 4_321)));
        assert_eq!(direct.len(), prefetched.len());
        for (a, b) in direct.iter().zip(prefetched.iter()) {
            assert_eq!(a.as_ref(), b.as_ref());
        }
    }

    #[test]
    fn dropping_midstream_stops_the_producer() {
        let mut p = PrefetchedChunks::spawn(chunked(5, 64, 1_000_000));
        let first = p.next_chunk().expect("stream has chunks");
        assert_eq!(first.start_op(), 0);
        // Dropping with the producer blocked on a full channel must not
        // hang or leak the thread.
        drop(p);
    }

    /// A source that tracks every chunk it has handed out and records
    /// the most ever alive at once, counting the one it is producing.
    struct LiveCounting {
        inner: ChunkedGenerator<ProfiledGenerator>,
        handed_out: Vec<Weak<TraceChunk>>,
        peak: Arc<AtomicUsize>,
    }

    impl ChunkSource for LiveCounting {
        fn next_chunk(&mut self) -> Option<Arc<TraceChunk>> {
            self.handed_out.retain(|w| w.strong_count() > 0);
            let live = self.handed_out.len() + 1;
            self.peak.fetch_max(live, Ordering::SeqCst);
            let chunk = ChunkSource::next_chunk(&mut self.inner)?;
            self.handed_out.push(Arc::downgrade(&chunk));
            Some(chunk)
        }
    }

    #[test]
    fn at_most_two_chunks_live_under_a_slow_consumer() {
        let peak = Arc::new(AtomicUsize::new(0));
        let mut p = PrefetchedChunks::spawn(LiveCounting {
            inner: chunked(5, 256, 256 * 12),
            handed_out: Vec::new(),
            peak: Arc::clone(&peak),
        });
        let mut chunks = 0;
        while let Some(chunk) = p.next_chunk() {
            // Replay is far slower than generating 256 ops, so the
            // producer is always ready and waiting at the handover.
            std::thread::sleep(std::time::Duration::from_millis(15));
            assert_eq!(chunk.start_op(), chunks * 256);
            chunks += 1;
        }
        drop(p);
        assert_eq!(chunks, 12);
        assert_eq!(peak.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let mut p = PrefetchedChunks::spawn(chunked(5, 64, 0));
        assert!(p.next_chunk().is_none());
    }
}
