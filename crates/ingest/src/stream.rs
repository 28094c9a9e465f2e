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
//! [`DtfCoreStream`] per core, the only way a bound file's records reach
//! it.

use std::path::Path;

use dice_obs::{DiceError, DiceResult};
use dice_workloads::{RecordSource, TraceRecord};

use crate::frame::{self, CoreStat, DtfRecord, FrameCursor, FrameStep};

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
        })
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

    /// Opens a fresh bounded-memory [`DtfCoreStream`] for simulated core
    /// `core` (file stream [`map_core`](Self::map_core)`(core)`, so a
    /// trace recorded on fewer cores still drives every core
    /// deterministically). The stream loops at end of trace, since
    /// simulation windows often exceed trace length.
    ///
    /// # Errors
    ///
    /// Returns [`DiceError::Config`] when the mapped stream holds no
    /// records, or any I/O or parse error of the file.
    pub fn open_core(&self, core: u32) -> DiceResult<Box<dyn RecordSource + Send>> {
        let file_core = self.map_core(core);
        if self.core_records(file_core) == 0 {
            return Err(DiceError::Config {
                field: "dtf trace".to_owned(),
                reason: format!(
                    "{}: stream {file_core} (for core {core}) holds no records",
                    self.path
                ),
            });
        }
        let footprint = self.core_footprints[file_core as usize];
        Ok(Box::new(DtfCoreStream::open(
            &self.path, file_core, footprint,
        )?))
    }
}

/// A bounded-memory [`RecordSource`] over one stream of a `.dtf` file:
/// holds exactly one decoded frame, skips other cores' frames by seeking
/// past their bodies, and loops to the first frame at end of trace
/// (truncating any torn tail, like the fabric journal's recovery).
#[derive(Debug)]
pub struct DtfCoreStream {
    frames: FrameCursor,
    file_core: u32,
    footprint: u64,
    /// Decoded records of the current frame (values dropped).
    buf: Vec<DtfRecord>,
    pos: usize,
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
        Ok(Self {
            frames: FrameCursor::open_stream(path.as_ref(), file_core)?,
            file_core,
            footprint,
            buf: Vec::new(),
            pos: 0,
        })
    }

    /// Current resident-buffer bytes (capacities of the frame-body,
    /// decompression and decoded-record buffers). Bounded by the
    /// per-frame caps for any file size — the memory contract the
    /// bounded-memory test pins down.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.frames.resident_bytes() + self.buf.capacity() * std::mem::size_of::<DtfRecord>()
    }

    /// Decodes the next frame belonging to this stream into `buf`,
    /// looping to the first frame at end of file.
    fn refill(&mut self) -> DiceResult<()> {
        let mut looped = false;
        loop {
            match self
                .frames
                .next(Some(self.file_core), false, &mut self.buf)?
            {
                // A legal but useless empty frame; keep scanning.
                FrameStep::Frame { .. } if self.buf.is_empty() => {}
                FrameStep::Frame { .. } => {
                    self.pos = 0;
                    return Ok(());
                }
                // A full pass found no frame for this stream even though
                // the binding said there was one: the file changed
                // underneath us.
                FrameStep::Eof | FrameStep::Torn { .. } if looped => {
                    return Err(self.frames.error(format!(
                        "no frames for stream {} in a full pass",
                        self.file_core
                    )));
                }
                FrameStep::Eof | FrameStep::Torn { .. } => {
                    looped = true;
                    self.frames.rewind()?;
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
