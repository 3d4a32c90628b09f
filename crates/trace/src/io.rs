//! Trace serialization: a compact, versioned binary format.
//!
//! Generated traces are deterministic given a seed, but saving them is
//! useful for cross-tool comparisons and for replaying identical streams
//! outside this workspace. The format is little-endian:
//!
//! ```text
//! magic  "C8TT"          4 bytes
//! version u16            currently 1
//! instructions u64
//! op_count u64
//! ops:   kind u8 (0 = read, 1 = write), addr u64, value u64 (writes only)
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use cache8t_sim::{AccessKind, Address};

use crate::{MemOp, Trace, TraceChunk};

const MAGIC: [u8; 4] = *b"C8TT";
const VERSION: u16 = 1;

/// Errors produced when reading a serialized trace.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReadTraceError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The stream does not start with the `C8TT` magic.
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// The stream uses a format version this build cannot read.
    UnsupportedVersion {
        /// The version found.
        found: u16,
    },
    /// An operation record had an invalid kind byte.
    InvalidKind {
        /// The byte found.
        found: u8,
    },
    /// The header is inconsistent (more ops than instructions).
    InconsistentHeader {
        /// Declared operation count.
        ops: u64,
        /// Declared instruction count.
        instructions: u64,
    },
    /// The stream ended before the declared operation count was read —
    /// a truncated or partially-written file. Unlike a bare
    /// [`Io`](ReadTraceError::Io) error this pinpoints *where* the
    /// stream died, which is what a pool worker reports instead of
    /// panicking.
    Truncated {
        /// Complete operations read before the stream ended.
        read_ops: u64,
        /// Operation count the header declared.
        declared_ops: u64,
        /// The underlying end-of-stream error.
        source: io::Error,
    },
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "trace i/o failed: {e}"),
            ReadTraceError::BadMagic { found } => {
                write!(f, "not a cache8t trace (magic {found:02x?})")
            }
            ReadTraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace format version {found}")
            }
            ReadTraceError::InvalidKind { found } => {
                write!(f, "invalid operation kind byte {found:#04x}")
            }
            ReadTraceError::InconsistentHeader { ops, instructions } => {
                write!(
                    f,
                    "header declares {ops} ops but only {instructions} instructions"
                )
            }
            ReadTraceError::Truncated {
                read_ops,
                declared_ops,
                source,
            } => {
                write!(
                    f,
                    "trace truncated: stream ended after {read_ops} of {declared_ops} declared ops ({source})"
                )
            }
        }
    }
}

impl Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            ReadTraceError::Truncated { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

impl Trace {
    /// Serializes the trace to `writer` (a `&mut` reference works too).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_to<W: Write>(&self, writer: W) -> io::Result<()> {
        write_c8tt(writer, self.ops(), self.instructions())
    }

    /// Deserializes a trace from `reader` (a `&mut` reference works too).
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure, bad magic, an
    /// unsupported version, or a malformed record.
    pub fn read_from<R: Read>(reader: R) -> Result<Trace, ReadTraceError> {
        let mut file = TraceFileReader::open(reader)?;
        let instructions = file.instructions();
        let count = file.op_count();
        let mut ops = Vec::with_capacity(count.min(1 << 24) as usize);
        file.read_ops(&mut ops, count)?;
        Ok(Trace::new(ops, instructions))
    }
}

impl TraceChunk {
    /// Serializes the chunk as a C8TT file: the bytes
    /// [`Trace::write_to`] writes for a trace of the same ops and
    /// instructions. A chunk that holds a whole trace (a stream cut into
    /// one chunk) saves it without first copying it into a [`Trace`].
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_to<W: Write>(&self, writer: W) -> io::Result<()> {
        write_c8tt(writer, self.ops(), self.instructions())
    }
}

fn write_c8tt<W: Write>(mut writer: W, ops: &[MemOp], instructions: u64) -> io::Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&instructions.to_le_bytes())?;
    writer.write_all(&(ops.len() as u64).to_le_bytes())?;
    for op in ops {
        match op.kind {
            AccessKind::Read => {
                writer.write_all(&[0u8])?;
                writer.write_all(&op.addr.raw().to_le_bytes())?;
            }
            AccessKind::Write => {
                writer.write_all(&[1u8])?;
                writer.write_all(&op.addr.raw().to_le_bytes())?;
                writer.write_all(&op.value.to_le_bytes())?;
            }
        }
    }
    Ok(())
}

/// An incremental C8TT reader: validates the header up front, then yields
/// operation records on demand without materializing the whole trace.
///
/// This is the disk side of the streaming pipeline — a replay can pull one
/// chunk's worth of ops at a time from a persisted trace file, keeping
/// memory bounded by the chunk size rather than the trace length.
/// [`Trace::read_from`] is now a thin wrapper that drains a
/// `TraceFileReader` in one call, so both paths parse records identically.
pub struct TraceFileReader<R> {
    reader: R,
    instructions: u64,
    op_count: u64,
    position: u64,
}

impl<R: Read> TraceFileReader<R> {
    /// Reads and validates the C8TT header, leaving the reader positioned
    /// at the first operation record.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure, bad magic, an
    /// unsupported version, or an inconsistent header.
    pub fn open(mut reader: R) -> Result<Self, ReadTraceError> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(ReadTraceError::BadMagic { found: magic });
        }
        let mut u16buf = [0u8; 2];
        reader.read_exact(&mut u16buf)?;
        let version = u16::from_le_bytes(u16buf);
        if version != VERSION {
            return Err(ReadTraceError::UnsupportedVersion { found: version });
        }
        let mut u64buf = [0u8; 8];
        reader.read_exact(&mut u64buf)?;
        let instructions = u64::from_le_bytes(u64buf);
        reader.read_exact(&mut u64buf)?;
        let op_count = u64::from_le_bytes(u64buf);
        if op_count > instructions {
            return Err(ReadTraceError::InconsistentHeader {
                ops: op_count,
                instructions,
            });
        }
        Ok(TraceFileReader {
            reader,
            instructions,
            op_count,
            position: 0,
        })
    }

    /// Total instructions declared by the header.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total operations declared by the header.
    #[inline]
    pub fn op_count(&self) -> u64 {
        self.op_count
    }

    /// Index of the next operation record to be read.
    #[inline]
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Operations left to read.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.op_count - self.position
    }

    /// Reads up to `n` operation records into `ops` (appending), stopping
    /// early only at the declared end of the trace. Returns the number of
    /// records read.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure or malformed records;
    /// EOF inside the op stream is reported as
    /// [`Truncated`](ReadTraceError::Truncated) with the dying record.
    pub fn read_ops(&mut self, ops: &mut Vec<MemOp>, n: u64) -> Result<u64, ReadTraceError> {
        let take = n.min(self.remaining());
        let mut u64buf = [0u8; 8];
        for _ in 0..take {
            // Any EOF inside the op stream means the file was truncated
            // mid-write: report which record died so a batch job can say
            // more than "unexpected end of file".
            let record = self.position;
            let declared = self.op_count;
            let classify = |e: io::Error| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    ReadTraceError::Truncated {
                        read_ops: record,
                        declared_ops: declared,
                        source: e,
                    }
                } else {
                    ReadTraceError::Io(e)
                }
            };
            let mut kind = [0u8; 1];
            self.reader.read_exact(&mut kind).map_err(classify)?;
            self.reader.read_exact(&mut u64buf).map_err(classify)?;
            let addr = Address::new(u64::from_le_bytes(u64buf));
            match kind[0] {
                0 => ops.push(MemOp::read(addr)),
                1 => {
                    self.reader.read_exact(&mut u64buf).map_err(classify)?;
                    ops.push(MemOp::write(addr, u64::from_le_bytes(u64buf)));
                }
                found => return Err(ReadTraceError::InvalidKind { found }),
            }
            self.position += 1;
        }
        Ok(take)
    }

    /// Reads up to `max_ops` records as one [`TraceChunk`], `None` once
    /// every record has been read. The header's instruction total is
    /// pro-rated over chunks with telescoping floors, so the chunks'
    /// instruction counts sum exactly to [`instructions`](Self::instructions).
    ///
    /// # Errors
    ///
    /// As [`read_ops`](Self::read_ops).
    pub fn read_chunk(&mut self, max_ops: usize) -> Result<Option<TraceChunk>, ReadTraceError> {
        if self.remaining() == 0 {
            return Ok(None);
        }
        let start_op = self.position;
        // Sized up front (a whole-trace chunk would otherwise grow to
        // twice its length), but never past 2^24 ops on the header's word.
        let len = (max_ops as u64).min(self.remaining()).min(1 << 24);
        let mut ops = Vec::with_capacity(len as usize);
        self.read_ops(&mut ops, max_ops as u64)?;
        let (instructions, total) = (self.instructions as u128, self.op_count as u128);
        let upto = |op: u64| (instructions * op as u128 / total) as u64;
        let chunk_instructions = upto(self.position) - upto(start_op);
        Ok(Some(TraceChunk::new(ops, start_op, chunk_instructions)))
    }
}

impl<R> fmt::Debug for TraceFileReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceFileReader")
            .field("instructions", &self.instructions)
            .field("op_count", &self.op_count)
            .field("position", &self.position)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            vec![
                MemOp::read(Address::new(0x40)),
                MemOp::write(Address::new(0x48), 0xDEAD_BEEF),
                MemOp::read(Address::new(0x1000)),
                MemOp::write(Address::new(0x1008), u64::MAX),
            ],
            17,
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample();
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).expect("vec write cannot fail");
        let back = Trace::read_from(buffer.as_slice()).expect("valid stream");
        assert_eq!(back, trace);
    }

    #[test]
    fn whole_trace_chunk_writes_the_trace_bytes() {
        let trace = sample();
        let chunk = TraceChunk::new(trace.ops().to_vec(), 0, trace.instructions());
        let (mut from_trace, mut from_chunk) = (Vec::new(), Vec::new());
        trace
            .write_to(&mut from_trace)
            .expect("vec write cannot fail");
        chunk
            .write_to(&mut from_chunk)
            .expect("vec write cannot fail");
        assert_eq!(from_chunk, from_trace);
    }

    #[test]
    fn roundtrip_preserves_instructions_and_write_values() {
        // `instructions` rides in the header, not in the op records, and
        // write values occupy the optional third field — both are easy
        // to drop in a format change, so pin them explicitly.
        let trace = Trace::new(
            vec![
                MemOp::write(Address::new(0x40), 0),
                MemOp::write(Address::new(0x48), 1),
                MemOp::write(Address::new(0x50), 0x0123_4567_89AB_CDEF),
                MemOp::write(Address::new(0x58), u64::MAX),
                MemOp::read(Address::new(0x60)),
            ],
            123_456_789,
        );
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).expect("vec write");
        let back = Trace::read_from(buffer.as_slice()).expect("valid stream");
        assert_eq!(back.instructions(), 123_456_789);
        let values: Vec<u64> = back.iter().map(|op| op.value).collect();
        assert_eq!(values[..4], [0, 1, 0x0123_4567_89AB_CDEF, u64::MAX]);
        assert_eq!(back, trace);
    }

    #[test]
    fn generated_trace_roundtrips_with_full_fidelity() {
        // The real thing, not a hand-built sample: a profiled generator
        // stream with its silent-write structure and instruction count.
        use crate::{profiles, ProfiledGenerator, TraceGenerator};
        let profile = profiles::by_name("gcc").expect("suite profile");
        let trace =
            ProfiledGenerator::new(profile, cache8t_sim::CacheGeometry::paper_baseline(), 9)
                .collect(5_000);
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).expect("vec write");
        let back = Trace::read_from(buffer.as_slice()).expect("valid stream");
        assert_eq!(back.instructions(), trace.instructions());
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.iter().zip(back.iter()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = Trace::default();
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).expect("vec write cannot fail");
        assert_eq!(Trace::read_from(buffer.as_slice()).expect("valid"), trace);
    }

    #[test]
    fn reads_are_17_bytes_smaller_than_writes_would_be() {
        // Header 22 bytes + read (9) + write (17).
        let trace = Trace::new(
            vec![
                MemOp::read(Address::new(1)),
                MemOp::write(Address::new(2), 3),
            ],
            2,
        );
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).expect("vec write");
        assert_eq!(buffer.len(), 22 + 9 + 17);
    }

    #[test]
    fn chunked_reads_match_a_single_read() {
        use crate::{profiles, ProfiledGenerator, TraceGenerator};
        let profile = profiles::by_name("mcf").expect("suite profile");
        let trace =
            ProfiledGenerator::new(profile, cache8t_sim::CacheGeometry::paper_baseline(), 4)
                .collect(3_000);
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).expect("vec write");

        for chunk in [1u64, 7, 256, 1024, 3_000, 10_000] {
            let mut file = TraceFileReader::open(buffer.as_slice()).expect("valid header");
            assert_eq!(file.instructions(), trace.instructions());
            assert_eq!(file.op_count(), 3_000);
            let mut ops = Vec::new();
            loop {
                let got = file.read_ops(&mut ops, chunk).expect("valid records");
                if got == 0 {
                    break;
                }
                assert!(got <= chunk);
            }
            assert_eq!(file.remaining(), 0);
            assert_eq!(file.position(), 3_000);
            assert_eq!(&ops[..], trace.ops(), "chunk={chunk}");

            // `read_chunk` tiles the file, and its pro-rated
            // instruction counts add up to the header total.
            let mut file = TraceFileReader::open(buffer.as_slice()).expect("valid header");
            let mut ops = Vec::new();
            let mut instructions = 0;
            while let Some(piece) = file.read_chunk(chunk as usize).expect("valid records") {
                assert_eq!(piece.start_op(), ops.len() as u64, "chunk={chunk}");
                assert!(!piece.is_empty() && piece.len() as u64 <= chunk);
                ops.extend_from_slice(piece.ops());
                instructions += piece.instructions();
            }
            assert_eq!(&ops[..], trace.ops(), "chunk={chunk}");
            assert_eq!(instructions, trace.instructions(), "chunk={chunk}");
        }
    }

    #[test]
    fn file_reader_reports_truncation_mid_chunk() {
        let mut buffer = Vec::new();
        sample().write_to(&mut buffer).expect("vec write");
        buffer.truncate(buffer.len() - 3);
        let mut file = TraceFileReader::open(buffer.as_slice()).expect("header intact");
        let mut ops = Vec::new();
        let err = file.read_ops(&mut ops, 4).unwrap_err();
        assert!(matches!(
            err,
            ReadTraceError::Truncated {
                read_ops: 3,
                declared_ops: 4,
                ..
            }
        ));
        assert_eq!(ops.len(), 3, "complete records before the cut are kept");
    }

    #[test]
    fn bad_magic_is_reported() {
        let err = Trace::read_from(&b"NOPE............."[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic { .. }));
        assert!(err.to_string().contains("not a cache8t trace"));
    }

    #[test]
    fn unsupported_version_is_reported() {
        let mut buffer = Vec::new();
        sample().write_to(&mut buffer).expect("vec write");
        buffer[4] = 0xFF;
        let err = Trace::read_from(buffer.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::UnsupportedVersion { .. }));
    }

    #[test]
    fn truncation_reports_the_dying_record() {
        let mut buffer = Vec::new();
        sample().write_to(&mut buffer).expect("vec write");
        // Cut into the value field of the last write (op index 3).
        buffer.truncate(buffer.len() - 3);
        let err = Trace::read_from(buffer.as_slice()).unwrap_err();
        assert!(matches!(
            err,
            ReadTraceError::Truncated {
                read_ops: 3,
                declared_ops: 4,
                ..
            }
        ));
        assert!(std::error::Error::source(&err).is_some());
        let msg = err.to_string();
        assert!(msg.contains("truncated"), "got: {msg}");
        assert!(msg.contains("3 of 4"), "got: {msg}");
    }

    #[test]
    fn truncated_header_is_a_plain_io_error() {
        // EOF before the op stream starts is still `Io`: there is no
        // record context to report yet.
        let mut buffer = Vec::new();
        sample().write_to(&mut buffer).expect("vec write");
        buffer.truncate(10);
        let err = Trace::read_from(buffer.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::Io(_)));
    }

    #[test]
    fn invalid_kind_is_reported() {
        let trace = Trace::new(vec![MemOp::read(Address::new(8))], 1);
        let mut buffer = Vec::new();
        trace.write_to(&mut buffer).expect("vec write");
        buffer[22] = 7; // corrupt the kind byte of the first op
        let err = Trace::read_from(buffer.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::InvalidKind { found: 7 }));
    }

    #[test]
    fn inconsistent_header_is_reported() {
        let mut buffer = Vec::new();
        sample().write_to(&mut buffer).expect("vec write");
        // Declare more ops than instructions.
        buffer[6..14].copy_from_slice(&1u64.to_le_bytes());
        let err = Trace::read_from(buffer.as_slice()).unwrap_err();
        assert!(matches!(err, ReadTraceError::InconsistentHeader { .. }));
    }
}
