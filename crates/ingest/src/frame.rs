//! The DTF1 on-disk container: file header, frame codec and the recovery
//! scanner.
//!
//! # Layout
//!
//! ```text
//! file  := "DTF1" varint(cores) frame*
//! frame := 0xDF varint(core) varint(body_len) u64le(fnv1a64(core_varint ++ body)) body
//! body  := flags:u8 varint(count) [varint(raw_len) if compressed] payload
//! ```
//!
//! `payload` is `count` delta-encoded records (optionally `dlz`-compressed,
//! see [`crate::lz`]); each record is
//!
//! ```text
//! record := flags:u8 varint(gap) zigzag_varint(line - prev_line) [value: 64 bytes]
//! ```
//!
//! with `prev_line` resetting to 0 at every frame boundary, so each frame
//! decodes independently — the property both the bounded-memory reader and
//! torn-tail recovery rely on. The checksum covers the core id and the
//! whole body, so a flipped bit anywhere except the un-checksummed marker
//! and length (whose corruption misframes the stream and trips the marker
//! or checksum instead) is detected. Recovery semantics mirror the fabric
//! journal (`DJR1`): an incomplete frame at end-of-file is a torn tail —
//! dropped and reported, not an error — while a checksum mismatch on a
//! complete frame is always a typed [`DiceError::TraceParse`].

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

use dice_obs::{fnv1a64, fnv1a64_extend, DiceError, DiceResult};
use dice_workloads::TraceRecord;

use crate::lz;
use crate::varint::{get_varint, put_varint, unzigzag, zigzag};

/// File magic (also the version: a breaking layout change bumps to DTF2).
pub const MAGIC: [u8; 4] = *b"DTF1";
/// First byte of every frame.
pub const FRAME_MARKER: u8 = 0xDF;
/// Hard cap on one frame's stored body, enforced on read before any
/// allocation: together with the one-frame-in-flight reader this bounds
/// resident memory regardless of file size.
pub const MAX_BODY_BYTES: usize = 4 << 20;
/// Hard cap on one frame's decompressed payload.
pub const MAX_RAW_BYTES: usize = 16 << 20;
/// Most streams a file may carry (sanity bound on the header).
pub const MAX_CORES: u32 = 1024;

/// Frame flag: payload is `dlz`-compressed.
pub const FLAG_COMPRESSED: u8 = 0x01;

/// Record flag: the access is a write.
const REC_WRITE: u8 = 0x01;
/// Record flag: a 64-byte value payload follows.
const REC_VALUE: u8 = 0x02;

/// One ingested record: the sim-visible access plus an optional 64-byte
/// value payload. The simulator synthesizes values from its `ValueProfile`
/// model, so payloads are carried for future value-exact replay and for
/// format round-trip fidelity; the streaming reader skips them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtfRecord {
    /// The access (instruction gap, line address, read/write).
    pub rec: TraceRecord,
    /// Optional cache-line contents at the time of the access.
    pub value: Option<[u8; 64]>,
}

impl DtfRecord {
    /// A value-less record.
    #[must_use]
    pub fn plain(rec: TraceRecord) -> Self {
        Self { rec, value: None }
    }
}

fn parse_err(path: &str, frame: u64, reason: impl Into<String>) -> DiceError {
    DiceError::TraceParse {
        path: path.to_owned(),
        line: frame,
        reason: reason.into(),
    }
}

/// Writes the file header. `cores` is the number of independent streams.
///
/// # Errors
///
/// Returns [`DiceError::Config`] for a zero or absurd core count and
/// [`DiceError::Io`] on write failure.
pub fn write_header(w: &mut impl Write, cores: u32) -> DiceResult<()> {
    if cores == 0 || cores > MAX_CORES {
        return Err(DiceError::Config {
            field: "dtf cores".to_owned(),
            reason: format!("must be 1..={MAX_CORES}, got {cores}"),
        });
    }
    let mut head = MAGIC.to_vec();
    put_varint(&mut head, u64::from(cores));
    w.write_all(&head)
        .map_err(|e| DiceError::io("write dtf header", &e))
}

/// Reads and validates the file header, returning the stream count.
///
/// # Errors
///
/// Returns [`DiceError::TraceParse`] on a bad magic or core count and
/// [`DiceError::Io`] on read failure.
pub fn read_header(r: &mut impl Read, path: &str) -> DiceResult<u32> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)
        .map_err(|e| DiceError::io(format!("read dtf header {path}"), &e))?;
    if magic != MAGIC {
        return Err(parse_err(path, 0, format!("bad magic {magic:02x?}")));
    }
    // The core count is a varint ≤ MAX_CORES, so at most 2 bytes.
    let mut buf = Vec::with_capacity(2);
    let mut byte = [0u8; 1];
    loop {
        r.read_exact(&mut byte)
            .map_err(|e| DiceError::io(format!("read dtf header {path}"), &e))?;
        buf.push(byte[0]);
        if byte[0] & 0x80 == 0 {
            break;
        }
        if buf.len() > 10 {
            return Err(parse_err(path, 0, "unterminated core-count varint"));
        }
    }
    let mut pos = 0;
    let cores = get_varint(&buf, &mut pos)
        .filter(|c| *c >= 1 && *c <= u64::from(MAX_CORES))
        .ok_or_else(|| parse_err(path, 0, "core count out of range"))?;
    Ok(cores as u32)
}

/// Byte length of the header for a given core count (frames start here).
#[must_use]
pub fn header_len(cores: u32) -> u64 {
    let mut v = Vec::with_capacity(2);
    put_varint(&mut v, u64::from(cores));
    MAGIC.len() as u64 + v.len() as u64
}

/// Encodes `records` into a raw (uncompressed) frame payload.
fn encode_payload(records: &[DtfRecord]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(records.len() * 4);
    let mut prev_line = 0u64;
    for r in records {
        let mut flags = 0u8;
        if r.rec.write {
            flags |= REC_WRITE;
        }
        if r.value.is_some() {
            flags |= REC_VALUE;
        }
        payload.push(flags);
        put_varint(&mut payload, r.rec.gap);
        let delta = r.rec.line.wrapping_sub(prev_line) as i64;
        put_varint(&mut payload, zigzag(delta));
        prev_line = r.rec.line;
        if let Some(v) = &r.value {
            payload.extend_from_slice(v);
        }
    }
    payload
}

/// Decodes a raw payload of `count` records. `keep_values` controls
/// whether value payloads are materialized (the streaming reader drops
/// them; the unpacker keeps them).
fn decode_payload(
    payload: &[u8],
    count: u64,
    keep_values: bool,
    out: &mut Vec<DtfRecord>,
    path: &str,
    frame: u64,
) -> DiceResult<()> {
    out.clear();
    let count = usize::try_from(count)
        .ok()
        .filter(|c| *c <= payload.len())
        .ok_or_else(|| parse_err(path, frame, "record count exceeds payload size"))?;
    out.reserve(count);
    let mut pos = 0usize;
    let mut prev_line = 0u64;
    for i in 0..count {
        let bad = |what: &str| parse_err(path, frame, format!("record {i}: {what}"));
        let flags = *payload.get(pos).ok_or_else(|| bad("truncated flags"))?;
        pos += 1;
        if flags & !(REC_WRITE | REC_VALUE) != 0 {
            return Err(bad(&format!("unknown flag bits {flags:#04x}")));
        }
        let gap = get_varint(payload, &mut pos).ok_or_else(|| bad("bad gap varint"))?;
        let zz = get_varint(payload, &mut pos).ok_or_else(|| bad("bad delta varint"))?;
        let line = prev_line.wrapping_add(unzigzag(zz) as u64);
        prev_line = line;
        let value = if flags & REC_VALUE != 0 {
            let bytes = payload
                .get(pos..pos + 64)
                .ok_or_else(|| bad("truncated value payload"))?;
            pos += 64;
            if keep_values {
                let mut v = [0u8; 64];
                v.copy_from_slice(bytes);
                Some(v)
            } else {
                None
            }
        } else {
            None
        };
        out.push(DtfRecord {
            rec: TraceRecord {
                gap,
                line,
                write: flags & REC_WRITE != 0,
            },
            value,
        });
    }
    if pos != payload.len() {
        return Err(parse_err(
            path,
            frame,
            format!("{} trailing bytes after last record", payload.len() - pos),
        ));
    }
    Ok(())
}

/// Encodes one complete frame (header + checksum + body) for stream
/// `core`. With `compress` set the payload is `dlz`-compressed when that
/// actually shrinks it; incompressible frames stay raw.
///
/// # Panics
///
/// Panics if the encoded payload exceeds [`MAX_RAW_BYTES`] — the writer's
/// per-frame record cap keeps real frames orders of magnitude below it.
#[must_use]
pub fn encode_frame(core: u32, records: &[DtfRecord], compress: bool) -> Vec<u8> {
    let payload = encode_payload(records);
    assert!(
        payload.len() <= MAX_RAW_BYTES,
        "frame payload {} exceeds MAX_RAW_BYTES",
        payload.len()
    );
    let mut body = Vec::with_capacity(payload.len() + 8);
    let compressed = if compress {
        let c = lz::compress(&payload);
        if c.len() < payload.len() {
            Some(c)
        } else {
            None
        }
    } else {
        None
    };
    match &compressed {
        Some(c) => {
            body.push(FLAG_COMPRESSED);
            put_varint(&mut body, records.len() as u64);
            put_varint(&mut body, payload.len() as u64);
            body.extend_from_slice(c);
        }
        None => {
            body.push(0);
            put_varint(&mut body, records.len() as u64);
            body.extend_from_slice(&payload);
        }
    }
    let mut core_bytes = Vec::with_capacity(2);
    put_varint(&mut core_bytes, u64::from(core));
    let checksum = fnv1a64_extend(fnv1a64(&core_bytes), &body);
    let mut frame = Vec::with_capacity(body.len() + 16);
    frame.push(FRAME_MARKER);
    frame.extend_from_slice(&core_bytes);
    put_varint(&mut frame, body.len() as u64);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Verifies a frame body's checksum and decodes its records into `out`.
/// `scratch` is the reusable decompression buffer.
///
/// # Errors
///
/// Returns [`DiceError::TraceParse`] on checksum mismatch, unknown flags,
/// malformed compression or record encoding.
#[allow(clippy::too_many_arguments)]
pub fn decode_body(
    core: u32,
    checksum: u64,
    body: &[u8],
    keep_values: bool,
    out: &mut Vec<DtfRecord>,
    scratch: &mut Vec<u8>,
    path: &str,
    frame: u64,
) -> DiceResult<()> {
    let mut core_bytes = Vec::with_capacity(2);
    put_varint(&mut core_bytes, u64::from(core));
    let got = fnv1a64_extend(fnv1a64(&core_bytes), body);
    if got != checksum {
        return Err(parse_err(
            path,
            frame,
            format!("checksum mismatch (stored {checksum:016x}, computed {got:016x})"),
        ));
    }
    let flags = *body
        .first()
        .ok_or_else(|| parse_err(path, frame, "empty frame body"))?;
    if flags & !FLAG_COMPRESSED != 0 {
        return Err(parse_err(
            path,
            frame,
            format!("unknown frame flags {flags:#04x}"),
        ));
    }
    let mut pos = 1usize;
    let count = get_varint(body, &mut pos)
        .ok_or_else(|| parse_err(path, frame, "bad record-count varint"))?;
    if flags & FLAG_COMPRESSED != 0 {
        let raw_len = get_varint(body, &mut pos)
            .ok_or_else(|| parse_err(path, frame, "bad raw-length varint"))?;
        let raw_len = usize::try_from(raw_len)
            .ok()
            .filter(|l| *l <= MAX_RAW_BYTES)
            .ok_or_else(|| parse_err(path, frame, "raw length exceeds MAX_RAW_BYTES"))?;
        lz::decompress_into(&body[pos..], raw_len, scratch, path, frame)?;
        decode_payload(scratch, count, keep_values, out, path, frame)
    } else {
        decode_payload(&body[pos..], count, keep_values, out, path, frame)
    }
}

/// One step of the frame scanner.
#[derive(Debug)]
pub enum FrameStep {
    /// Clean end of file at a frame boundary.
    Eof,
    /// An incomplete frame at end of file (interrupted writer): `dropped`
    /// bytes from the frame's start to EOF.
    Torn {
        /// Bytes between the torn frame's marker and end of file.
        dropped: u64,
    },
    /// A complete frame header; the body is `body_len` bytes starting at
    /// the reader's current position.
    Frame {
        /// Stream id.
        core: u32,
        /// Stored body length.
        body_len: usize,
        /// Stored checksum (over core varint + body).
        checksum: u64,
    },
}

/// Reads the next frame header at the reader's position. Returns
/// [`FrameStep::Torn`] (not an error) when the file ends mid-frame, in
/// the style of the fabric journal's torn-tail recovery.
///
/// # Errors
///
/// Returns [`DiceError::TraceParse`] on a bad marker or an oversized body
/// length — corruption, as opposed to truncation — and [`DiceError::Io`]
/// on read failure.
pub fn next_frame_header(
    r: &mut (impl BufRead + Seek),
    file_len: u64,
    path: &str,
    frame: u64,
) -> DiceResult<FrameStep> {
    let start = r
        .stream_position()
        .map_err(|e| DiceError::io(format!("seek dtf {path}"), &e))?;
    let mut byte = [0u8; 1];
    match r.read_exact(&mut byte) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(FrameStep::Eof),
        Err(e) => return Err(DiceError::io(format!("read dtf {path}"), &e)),
    }
    if byte[0] != FRAME_MARKER {
        return Err(parse_err(
            path,
            frame,
            format!("bad frame marker {:#04x} at offset {start}", byte[0]),
        ));
    }
    // core varint, body_len varint, 8-byte checksum. Any EOF in here (or
    // in the body, judged by the caller via file_len) is a torn tail.
    let read_varint = |r: &mut dyn Read| -> DiceResult<Option<u64>> {
        let mut buf = Vec::with_capacity(10);
        let mut b = [0u8; 1];
        loop {
            match r.read_exact(&mut b) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
                Err(e) => return Err(DiceError::io(format!("read dtf {path}"), &e)),
            }
            buf.push(b[0]);
            if b[0] & 0x80 == 0 {
                let mut pos = 0;
                return get_varint(&buf, &mut pos)
                    .map(Some)
                    .ok_or_else(|| parse_err(path, frame, "overlong varint in frame header"));
            }
            if buf.len() >= 10 {
                return Err(parse_err(
                    path,
                    frame,
                    "unterminated varint in frame header",
                ));
            }
        }
    };
    let Some(core) = read_varint(r)? else {
        return Ok(FrameStep::Torn {
            dropped: file_len - start,
        });
    };
    let Some(body_len) = read_varint(r)? else {
        return Ok(FrameStep::Torn {
            dropped: file_len - start,
        });
    };
    let core = u32::try_from(core)
        .ok()
        .filter(|c| *c < MAX_CORES)
        .ok_or_else(|| parse_err(path, frame, format!("core id {core} out of range")))?;
    let body_len = usize::try_from(body_len)
        .ok()
        .filter(|l| *l <= MAX_BODY_BYTES)
        .ok_or_else(|| {
            parse_err(
                path,
                frame,
                format!("body length {body_len} exceeds MAX_BODY_BYTES"),
            )
        })?;
    let mut ck = [0u8; 8];
    match r.read_exact(&mut ck) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Ok(FrameStep::Torn {
                dropped: file_len - start,
            })
        }
        Err(e) => return Err(DiceError::io(format!("read dtf {path}"), &e)),
    }
    let here = r
        .stream_position()
        .map_err(|e| DiceError::io(format!("seek dtf {path}"), &e))?;
    if here + body_len as u64 > file_len {
        return Ok(FrameStep::Torn {
            dropped: file_len - start,
        });
    }
    Ok(FrameStep::Frame {
        core,
        body_len,
        checksum: u64::from_le_bytes(ck),
    })
}

/// A forward walk over one `.dtf` file's frames: the open file, its
/// stream count, the number of the last frame header read (1-based; every
/// error names it) and the reused body and decompression buffers.
/// [`scan`], [`read_core_records`] and the streaming reader all step
/// through a file with it.
#[derive(Debug)]
pub(crate) struct FrameCursor {
    r: BufReader<File>,
    path: String,
    cores: u32,
    file_len: u64,
    frame_no: u64,
    body: Vec<u8>,
    scratch: Vec<u8>,
}

impl FrameCursor {
    /// Opens `path` and reads its header; the cursor then stands on the
    /// first frame.
    fn open(path: &Path) -> DiceResult<Self> {
        let shown = path.display().to_string();
        let file = File::open(path).map_err(|e| DiceError::io(format!("open dtf {shown}"), &e))?;
        let file_len = file
            .metadata()
            .map_err(|e| DiceError::io(format!("stat dtf {shown}"), &e))?
            .len();
        let mut r = BufReader::new(file);
        let cores = read_header(&mut r, &shown)?;
        Ok(Self {
            r,
            path: shown,
            cores,
            file_len,
            frame_no: 0,
            body: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// [`open`](Self::open) for reading stream `file_core`, which the
    /// header must declare ([`DiceError::Config`] otherwise).
    pub(crate) fn open_stream(path: &Path, file_core: u32) -> DiceResult<Self> {
        let cursor = Self::open(path)?;
        if file_core >= cursor.cores {
            return Err(DiceError::Config {
                field: "dtf core".to_owned(),
                reason: format!("stream {file_core} requested, file has {}", cursor.cores),
            });
        }
        Ok(cursor)
    }

    /// Steps to the next frame of stream `want`, seeking past other
    /// streams' bodies, then checks and decodes it into `out`. With
    /// `want` `None` every frame is taken, and one naming a stream the
    /// header does not declare is an error. Returns the frame's header,
    /// or how the file ended.
    pub(crate) fn next(
        &mut self,
        want: Option<u32>,
        keep_values: bool,
        out: &mut Vec<DtfRecord>,
    ) -> DiceResult<FrameStep> {
        loop {
            self.frame_no += 1;
            let step = next_frame_header(&mut self.r, self.file_len, &self.path, self.frame_no)?;
            let FrameStep::Frame {
                core,
                body_len,
                checksum,
            } = step
            else {
                return Ok(step);
            };
            match want {
                Some(want) if want != core => {
                    self.r
                        .seek_relative(body_len as i64)
                        .map_err(|e| DiceError::io(format!("seek dtf {}", self.path), &e))?;
                    continue;
                }
                None if core >= self.cores => {
                    return Err(self.error(format!(
                        "frame for core {core} but header declares {}",
                        self.cores
                    )));
                }
                _ => {}
            }
            self.body.resize(body_len, 0);
            self.r
                .read_exact(&mut self.body)
                .map_err(|e| DiceError::io(format!("read dtf {}", self.path), &e))?;
            decode_body(
                core,
                checksum,
                &self.body,
                keep_values,
                out,
                &mut self.scratch,
                &self.path,
                self.frame_no,
            )?;
            return Ok(step);
        }
    }

    /// Seeks back to the first frame and restarts the frame count.
    pub(crate) fn rewind(&mut self) -> DiceResult<()> {
        self.frame_no = 0;
        self.r
            .seek(SeekFrom::Start(header_len(self.cores)))
            .map_err(|e| DiceError::io(format!("seek dtf {}", self.path), &e))?;
        Ok(())
    }

    /// A [`DiceError::TraceParse`] naming the file and the last frame
    /// header read.
    pub(crate) fn error(&self, reason: impl Into<String>) -> DiceError {
        parse_err(&self.path, self.frame_no, reason)
    }

    /// Capacity of the reused body and decompression buffers.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.body.capacity() + self.scratch.capacity()
    }
}

/// Per-stream statistics collected by [`scan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStat {
    /// Records in this stream.
    pub records: u64,
    /// Lowest line address (0 when empty).
    pub min_line: u64,
    /// Highest line address (0 when empty).
    pub max_line: u64,
}

impl CoreStat {
    /// `max - min + 1`, the per-core footprint bound fed to the sim's
    /// prefetcher-reach heuristic (0 when the stream is empty).
    #[must_use]
    pub fn footprint_lines(&self) -> u64 {
        if self.records == 0 {
            0
        } else {
            self.max_line - self.min_line + 1
        }
    }
}

/// Everything a full validation pass over a `.dtf` file learns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanInfo {
    /// Stream count from the header.
    pub cores: u32,
    /// Total records across all streams.
    pub records: u64,
    /// Complete frames.
    pub frames: u64,
    /// Frames stored `dlz`-compressed.
    pub compressed_frames: u64,
    /// Per-stream statistics.
    pub per_core: Vec<CoreStat>,
    /// Bytes dropped as a torn tail (0 for a cleanly finished file).
    pub dropped_bytes: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Sum of decoded (raw) payload bytes.
    pub raw_payload_bytes: u64,
}

/// Validates every frame of `path`: checksums, flags, record encodings.
/// With `strict` set a torn tail is an error; otherwise it is truncated
/// away and reported in [`ScanInfo::dropped_bytes`] (recovery semantics,
/// matching the fabric journal).
///
/// # Errors
///
/// Returns [`DiceError::Io`] on I/O failure and [`DiceError::TraceParse`]
/// on any corruption (and, under `strict`, on a torn tail).
pub fn scan(path: impl AsRef<Path>, strict: bool) -> DiceResult<ScanInfo> {
    let mut frames = FrameCursor::open(path.as_ref())?;
    let mut info = ScanInfo {
        cores: frames.cores,
        records: 0,
        frames: 0,
        compressed_frames: 0,
        per_core: vec![CoreStat::default(); frames.cores as usize],
        dropped_bytes: 0,
        file_bytes: frames.file_len,
        raw_payload_bytes: 0,
    };
    let mut records = Vec::new();
    loop {
        match frames.next(None, false, &mut records)? {
            FrameStep::Eof => break,
            FrameStep::Torn { dropped } => {
                if strict {
                    return Err(frames.error(format!("torn tail: {dropped} trailing bytes")));
                }
                info.dropped_bytes = dropped;
                break;
            }
            FrameStep::Frame { core, .. } => {
                let mut count_var = Vec::with_capacity(10);
                put_varint(&mut count_var, records.len() as u64);
                if frames.body.first() == Some(&FLAG_COMPRESSED) {
                    info.compressed_frames += 1;
                    // The decoder left the decompressed payload in scratch.
                    info.raw_payload_bytes += frames.scratch.len() as u64;
                } else {
                    info.raw_payload_bytes += (frames.body.len() - 1 - count_var.len()) as u64;
                }
                let stat = &mut info.per_core[core as usize];
                for dr in &records {
                    if stat.records == 0 {
                        stat.min_line = dr.rec.line;
                        stat.max_line = dr.rec.line;
                    } else {
                        stat.min_line = stat.min_line.min(dr.rec.line);
                        stat.max_line = stat.max_line.max(dr.rec.line);
                    }
                    stat.records += 1;
                }
                info.records += records.len() as u64;
                info.frames += 1;
            }
        }
    }
    Ok(info)
}

/// Fully decodes the records of one stream (values included) — the
/// unpacker's workhorse, and the reference the streamed reader is
/// compared against in tests. Every frame of the file is checked, the
/// other streams' too, so damage anywhere fails the read as it fails
/// [`scan`]. Torn tails are truncated away (recovery semantics).
///
/// # Errors
///
/// Returns [`DiceError::Io`] on I/O failure, [`DiceError::TraceParse`] on
/// corruption, or [`DiceError::Config`] when `file_core` is outside the
/// header's stream count.
pub fn read_core_records(path: impl AsRef<Path>, file_core: u32) -> DiceResult<Vec<DtfRecord>> {
    let mut frames = FrameCursor::open_stream(path.as_ref(), file_core)?;
    let mut out = Vec::new();
    let mut records = Vec::new();
    while let FrameStep::Frame { core, .. } = frames.next(None, true, &mut records)? {
        if core == file_core {
            out.append(&mut records);
        }
    }
    Ok(out)
}

/// FNV-1a over a whole file's bytes — the content hash that keys cached
/// cell results to the exact trace bytes they were computed from.
///
/// # Errors
///
/// Returns [`DiceError::Io`] on I/O failure.
pub fn file_content_hash(path: impl AsRef<Path>) -> DiceResult<u64> {
    let path = path.as_ref();
    let shown = path.display().to_string();
    let mut f = File::open(path).map_err(|e| DiceError::io(format!("open dtf {shown}"), &e))?;
    let mut h = fnv1a64(&[]);
    let mut buf = vec![0u8; 64 << 10];
    loop {
        let n = f
            .read(&mut buf)
            .map_err(|e| DiceError::io(format!("read dtf {shown}"), &e))?;
        if n == 0 {
            return Ok(h);
        }
        h = fnv1a64_extend(h, &buf[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(n: u64) -> Vec<DtfRecord> {
        (0..n)
            .map(|i| {
                DtfRecord::plain(TraceRecord {
                    gap: i % 7,
                    line: 1000 + (i * 37) % 90,
                    write: i % 3 == 0,
                })
            })
            .collect()
    }

    #[test]
    fn frame_round_trips_raw_and_compressed() {
        for compress in [false, true] {
            let original = recs(100);
            let frame = encode_frame(2, &original, compress);
            assert_eq!(frame[0], FRAME_MARKER);
            let mut pos = 1usize;
            let core = get_varint(&frame, &mut pos).unwrap() as u32;
            let body_len = get_varint(&frame, &mut pos).unwrap() as usize;
            let checksum = u64::from_le_bytes(frame[pos..pos + 8].try_into().unwrap());
            pos += 8;
            let body = &frame[pos..];
            assert_eq!(body.len(), body_len);
            let mut out = Vec::new();
            let mut scratch = Vec::new();
            decode_body(core, checksum, body, true, &mut out, &mut scratch, "<t>", 1).unwrap();
            assert_eq!(out, original);
        }
    }

    #[test]
    fn values_round_trip_and_can_be_skipped() {
        let mut original = recs(5);
        original[2].value = Some([0xAB; 64]);
        original[4].value = Some(core::array::from_fn(|i| i as u8));
        let frame = encode_frame(0, &original, true);
        let mut pos = 1usize;
        let core = get_varint(&frame, &mut pos).unwrap() as u32;
        let _len = get_varint(&frame, &mut pos).unwrap();
        let checksum = u64::from_le_bytes(frame[pos..pos + 8].try_into().unwrap());
        let body = &frame[pos + 8..];
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        decode_body(core, checksum, body, true, &mut out, &mut scratch, "<t>", 1).unwrap();
        assert_eq!(out, original);
        decode_body(
            core,
            checksum,
            body,
            false,
            &mut out,
            &mut scratch,
            "<t>",
            1,
        )
        .unwrap();
        assert!(out.iter().all(|r| r.value.is_none()));
        assert_eq!(
            out.iter().map(|r| r.rec).collect::<Vec<_>>(),
            original.iter().map(|r| r.rec).collect::<Vec<_>>()
        );
    }

    #[test]
    fn checksum_mismatch_is_typed() {
        let frame = encode_frame(1, &recs(10), false);
        let mut pos = 1usize;
        let core = get_varint(&frame, &mut pos).unwrap() as u32;
        let _len = get_varint(&frame, &mut pos).unwrap();
        let checksum = u64::from_le_bytes(frame[pos..pos + 8].try_into().unwrap());
        let mut body = frame[pos + 8..].to_vec();
        body[3] ^= 0x40;
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        let err = decode_body(
            core,
            checksum,
            &body,
            true,
            &mut out,
            &mut scratch,
            "<t>",
            7,
        )
        .unwrap_err();
        assert_eq!(err.class(), dice_obs::ErrorClass::TraceParse);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn delta_encoding_shrinks_sequential_streams() {
        let seq: Vec<DtfRecord> = (0..1000)
            .map(|i| {
                DtfRecord::plain(TraceRecord {
                    gap: 2,
                    line: 0x4000_0000 + i,
                    write: false,
                })
            })
            .collect();
        let frame = encode_frame(0, &seq, true);
        // flags+gap+delta ≈ 3 bytes raw, and dlz collapses the repetition.
        assert!(
            frame.len() < 400,
            "sequential frame is {} bytes",
            frame.len()
        );
    }
}
