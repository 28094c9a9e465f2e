//! Bounded-memory streaming: one decoded frame in flight per core stream.
//!
//! [`DtfCoreStream`] implements [`RecordSource`] directly over the file,
//! so a multi-gigabyte `.dtf` trace drives the simulator with a few
//! hundred kilobytes resident (frame payload + decode scratch + decoded
//! records of a single frame, all capped by
//! [`MAX_BODY_BYTES`](crate::frame::MAX_BODY_BYTES) /
//! [`MAX_RAW_BYTES`](crate::frame::MAX_RAW_BYTES)). [`TraceBinding`]
//! captures the validation pass over a file — stream count, per-core
//! footprints and the FNV-1a content hash — as plain `Debug`-rendered
//! data, which is exactly what flows into the runner's disk-cache key, so
//! a cached cell can never outlive a changed trace file; its
//! [`open_core`](TraceBinding::open_core) hands the simulator one looping
//! record stream per core.

use std::fs::File;
use std::io::Read as _;
use std::io::{BufReader, Seek, SeekFrom};
use std::path::Path;

use dice_obs::{DiceError, DiceResult};
use dice_workloads::{RecordSource, TraceRecord};

use crate::frame::{self, next_frame_header, CoreStat, DtfRecord, FrameStep};

/// A validated, content-hashed reference to a `.dtf` trace file: the
/// form in which a file-backed workload travels through `WorkloadSet`,
/// the runner and its disk cache. All fields are part of the derived
/// `Debug` output on purpose — the runner fingerprints cells by
/// `format!("{cfg:?}|{workload:?}")`, so the content hash (and everything
/// else here) keys cached results automatically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBinding {
    path: String,
    content_hash: u64,
    cores: u32,
    records: u64,
    core_records: Vec<u64>,
    core_footprints: Vec<u64>,
    dropped_bytes: u64,
    preload: bool,
}

impl TraceBinding {
    /// Scans and validates `path` (every frame checksum, every record
    /// encoding; a torn tail is truncated away and reported), computes
    /// the content hash, and captures per-stream statistics.
    ///
    /// # Errors
    ///
    /// Returns [`DiceError::Io`] on I/O failure, [`DiceError::TraceParse`]
    /// on corruption, or [`DiceError::Config`] when the file holds no
    /// records at all.
    pub fn open(path: impl AsRef<Path>) -> DiceResult<Self> {
        let path = path.as_ref();
        let info = frame::scan(path, false)?;
        if info.records == 0 {
            return Err(DiceError::Config {
                field: "dtf trace".to_owned(),
                reason: format!("{} holds no records", path.display()),
            });
        }
        let content_hash = frame::file_content_hash(path)?;
        Ok(Self {
            path: path.display().to_string(),
            content_hash,
            cores: info.cores,
            records: info.records,
            core_records: info.per_core.iter().map(|c| c.records).collect(),
            core_footprints: info
                .per_core
                .iter()
                .map(CoreStat::footprint_lines)
                .collect(),
            dropped_bytes: info.dropped_bytes,
            preload: false,
        })
    }

    /// Switches the binding to preload mode: [`open_core`](Self::open_core)
    /// decodes each stream into memory up front instead of streaming
    /// frames. Used by the byte-identity harness (streamed vs in-memory)
    /// and small traces; the flag is `Debug`-visible, so the two modes
    /// never share a cache entry.
    #[must_use]
    pub fn with_preload(mut self, preload: bool) -> Self {
        self.preload = preload;
        self
    }

    /// The trace file path as bound.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// FNV-1a hash of the file's bytes at bind time.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Streams recorded in the file.
    #[must_use]
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Total records across all streams.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records in stream `file_core`.
    #[must_use]
    pub fn core_records(&self, file_core: u32) -> u64 {
        self.core_records
            .get(file_core as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Torn-tail bytes truncated away at bind time.
    #[must_use]
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }

    /// Maps a simulated core onto a recorded stream (`core % cores`).
    #[must_use]
    pub fn map_core(&self, core: u32) -> u32 {
        core % self.cores
    }

    /// Opens a fresh record stream for simulated core `core` (file stream
    /// [`map_core`](Self::map_core)`(core)`, so a trace recorded on fewer
    /// cores still drives every core deterministically). The stream loops
    /// at end of trace, since simulation windows often exceed trace
    /// length. It is a bounded-memory [`DtfCoreStream`], or the stream's
    /// records decoded up front in preload mode; both yield the same
    /// records and footprint, so the two modes run byte-identically.
    ///
    /// # Errors
    ///
    /// Returns [`DiceError::Config`] when the mapped stream holds no
    /// records, or any I/O or parse error of the file.
    pub fn open_core(&self, core: u32) -> DiceResult<Box<dyn RecordSource + Send>> {
        let file_core = self.map_core(core);
        let empty = || DiceError::Config {
            field: "dtf trace".to_owned(),
            reason: format!(
                "{}: stream {file_core} (for core {core}) holds no records",
                self.path
            ),
        };
        if self.core_records(file_core) == 0 {
            return Err(empty());
        }
        let footprint = self.core_footprints[file_core as usize];
        if self.preload {
            let records: Vec<TraceRecord> = frame::read_core_records(&self.path, file_core)?
                .into_iter()
                .map(|r| r.rec)
                .collect();
            if records.is_empty() {
                return Err(empty());
            }
            return Ok(Box::new(Preloaded {
                records,
                pos: 0,
                footprint,
            }));
        }
        Ok(Box::new(DtfCoreStream::open(
            &self.path, file_core, footprint,
        )?))
    }
}

/// Preload mode's stream: one file stream's records in memory, looping.
struct Preloaded {
    records: Vec<TraceRecord>,
    pos: usize,
    footprint: u64,
}

impl RecordSource for Preloaded {
    fn next_record(&mut self) -> TraceRecord {
        let r = self.records[self.pos];
        self.pos = (self.pos + 1) % self.records.len();
        r
    }

    fn footprint_lines(&self) -> u64 {
        self.footprint
    }
}

/// A bounded-memory [`RecordSource`] over one stream of a `.dtf` file:
/// holds exactly one decoded frame, skips other cores' frames by seeking
/// past their bodies, and loops to the first frame at end of trace
/// (truncating any torn tail, like the fabric journal's recovery).
#[derive(Debug)]
pub struct DtfCoreStream {
    r: BufReader<File>,
    path: String,
    file_core: u32,
    /// Offset of the first frame (just past the header).
    first_frame: u64,
    file_len: u64,
    footprint: u64,
    /// Decoded records of the current frame (values dropped).
    buf: Vec<DtfRecord>,
    pos: usize,
    /// Frames decoded since the last loop restart (error context + the
    /// empty-pass guard).
    frame_no: u64,
    /// Reused frame-body buffer.
    body: Vec<u8>,
    /// Reused decompression buffer.
    scratch: Vec<u8>,
}

impl DtfCoreStream {
    /// Opens one stream. `footprint` is the per-stream footprint from the
    /// binding's scan (max line − min line + 1).
    ///
    /// # Errors
    ///
    /// Returns [`DiceError::Io`] on I/O failure or [`DiceError::TraceParse`]
    /// on a bad header.
    pub fn open(path: impl AsRef<Path>, file_core: u32, footprint: u64) -> DiceResult<Self> {
        let path = path.as_ref();
        let shown = path.display().to_string();
        let file = File::open(path).map_err(|e| DiceError::io(format!("open dtf {shown}"), &e))?;
        let file_len = file
            .metadata()
            .map_err(|e| DiceError::io(format!("stat dtf {shown}"), &e))?
            .len();
        let mut r = BufReader::new(file);
        let cores = frame::read_header(&mut r, &shown)?;
        if file_core >= cores {
            return Err(DiceError::Config {
                field: "dtf core".to_owned(),
                reason: format!("stream {file_core} requested, file has {cores}"),
            });
        }
        let first_frame = frame::header_len(cores);
        Ok(Self {
            r,
            path: shown,
            file_core,
            first_frame,
            file_len,
            footprint,
            buf: Vec::new(),
            pos: 0,
            frame_no: 0,
            body: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Current resident-buffer bytes (capacities of the three reusable
    /// buffers). Bounded by the per-frame caps for any file size — the
    /// memory contract the bounded-memory test pins down.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.body.capacity()
            + self.scratch.capacity()
            + self.buf.capacity() * std::mem::size_of::<DtfRecord>()
    }

    /// Decodes the next frame belonging to this stream into `buf`,
    /// looping to the first frame at end of file.
    fn refill(&mut self) -> DiceResult<()> {
        let mut looped = false;
        loop {
            self.frame_no += 1;
            match next_frame_header(&mut self.r, self.file_len, &self.path, self.frame_no)? {
                FrameStep::Eof | FrameStep::Torn { .. } => {
                    if looped {
                        // A full pass found no frame for this stream even
                        // though the binding said there was one: the file
                        // changed underneath us.
                        return Err(DiceError::TraceParse {
                            path: self.path.clone(),
                            line: self.frame_no,
                            reason: format!(
                                "no frames for stream {} in a full pass",
                                self.file_core
                            ),
                        });
                    }
                    looped = true;
                    self.frame_no = 0;
                    self.r
                        .seek(SeekFrom::Start(self.first_frame))
                        .map_err(|e| DiceError::io(format!("seek dtf {}", self.path), &e))?;
                }
                FrameStep::Frame {
                    core,
                    body_len,
                    checksum,
                } => {
                    if core != self.file_core {
                        self.r
                            .seek_relative(body_len as i64)
                            .map_err(|e| DiceError::io(format!("seek dtf {}", self.path), &e))?;
                        continue;
                    }
                    self.body.resize(body_len, 0);
                    self.r
                        .read_exact(&mut self.body)
                        .map_err(|e| DiceError::io(format!("read dtf {}", self.path), &e))?;
                    frame::decode_body(
                        core,
                        checksum,
                        &self.body,
                        false,
                        &mut self.buf,
                        &mut self.scratch,
                        &self.path,
                        self.frame_no,
                    )?;
                    if self.buf.is_empty() {
                        continue; // legal but useless frame; keep scanning
                    }
                    self.pos = 0;
                    return Ok(());
                }
            }
        }
    }
}

impl RecordSource for DtfCoreStream {
    /// # Panics
    ///
    /// Panics (with the typed error's message) if the file turns
    /// unreadable or corrupt *mid-run* — the binding validated it at open
    /// time, so this means the file changed underneath the simulation.
    /// The runner's per-cell `catch_unwind` turns that into a failed
    /// cell, not a dead sweep.
    fn next_record(&mut self) -> TraceRecord {
        if self.pos >= self.buf.len() {
            if let Err(e) = self.refill() {
                panic!("streamed trace failed mid-run: {e}");
            }
        }
        let r = self.buf[self.pos].rec;
        self.pos += 1;
        r
    }

    fn footprint_lines(&self) -> u64 {
        self.footprint
    }
}
