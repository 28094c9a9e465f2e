//! Writing `.dtf` files: the frame-buffering writer and the single-stream
//! packer the `dice-ingest` CLI is built on.

use std::io::{BufWriter, Write};
use std::path::Path;

use dice_obs::{DiceError, DiceResult};
use dice_workloads::TraceRecord;

use crate::frame::{encode_frame, write_header, DtfRecord, MAX_CORES};

/// Records per frame before the writer flushes. 4096 value-less records
/// encode to ≤ ~50 KB raw — far under the reader's per-frame caps — while
/// amortizing the 10–12-byte frame header to noise.
pub const FRAME_RECORDS: usize = 4096;

/// What [`DtfWriter::finish`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteStats {
    /// Records written across all streams.
    pub records: u64,
    /// Frames emitted.
    pub frames: u64,
    /// Bytes written (header + frames).
    pub bytes: u64,
}

/// Streams records into a `.dtf` file, buffering [`FRAME_RECORDS`] per
/// core before encoding a frame, so packing is itself bounded-memory.
#[derive(Debug)]
pub struct DtfWriter {
    w: BufWriter<std::fs::File>,
    compress: bool,
    pending: Vec<Vec<DtfRecord>>,
    frame_records: usize,
    records: u64,
    frames: u64,
    bytes: u64,
}

impl DtfWriter {
    /// Creates `path` and writes the header for `cores` streams.
    ///
    /// # Errors
    ///
    /// Returns [`DiceError::Config`] for a zero/oversized core count and
    /// [`DiceError::Io`] on file-system failure.
    pub fn create(path: impl AsRef<Path>, cores: u32, compress: bool) -> DiceResult<Self> {
        if cores == 0 || cores > MAX_CORES {
            return Err(DiceError::Config {
                field: "dtf cores".to_owned(),
                reason: format!("must be 1..={MAX_CORES}, got {cores}"),
            });
        }
        let path = path.as_ref();
        let shown = path.display().to_string();
        let file = std::fs::File::create(path)
            .map_err(|e| DiceError::io(format!("create dtf {shown}"), &e))?;
        let mut w = BufWriter::new(file);
        write_header(&mut w, cores)?;
        let mut count_probe = Vec::with_capacity(2);
        crate::varint::put_varint(&mut count_probe, u64::from(cores));
        Ok(Self {
            w,
            compress,
            pending: vec![Vec::new(); cores as usize],
            frame_records: FRAME_RECORDS,
            records: 0,
            frames: 0,
            bytes: 4 + count_probe.len() as u64,
        })
    }

    /// Overrides the per-frame record count (tests use tiny frames to
    /// force multi-frame files cheaply).
    #[must_use]
    pub fn with_frame_records(mut self, n: usize) -> Self {
        self.frame_records = n.max(1);
        self
    }

    /// Appends one record to stream `core`, flushing a frame when the
    /// stream's buffer is full.
    ///
    /// # Errors
    ///
    /// Returns [`DiceError::Config`] for an out-of-range core and
    /// [`DiceError::Io`] on write failure.
    pub fn push(&mut self, core: u32, rec: DtfRecord) -> DiceResult<()> {
        let Some(pending) = self.pending.get_mut(core as usize) else {
            return Err(DiceError::Config {
                field: "dtf core".to_owned(),
                reason: format!("stream {core} out of range ({})", self.pending.len()),
            });
        };
        pending.push(rec);
        if pending.len() >= self.frame_records {
            self.flush_core(core)?;
        }
        Ok(())
    }

    /// Value-less convenience for [`push`](Self::push).
    ///
    /// # Errors
    ///
    /// As [`push`](Self::push).
    pub fn push_record(&mut self, core: u32, rec: TraceRecord) -> DiceResult<()> {
        self.push(core, DtfRecord::plain(rec))
    }

    fn flush_core(&mut self, core: u32) -> DiceResult<()> {
        let pending = &mut self.pending[core as usize];
        if pending.is_empty() {
            return Ok(());
        }
        let frame = encode_frame(core, pending, self.compress);
        self.records += pending.len() as u64;
        pending.clear();
        self.frames += 1;
        self.bytes += frame.len() as u64;
        self.w
            .write_all(&frame)
            .map_err(|e| DiceError::io("write dtf frame", &e))
    }

    /// Flushes every stream's tail frame and the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`DiceError::Io`] on write failure.
    pub fn finish(mut self) -> DiceResult<WriteStats> {
        for core in 0..self.pending.len() as u32 {
            self.flush_core(core)?;
        }
        self.w.flush().map_err(|e| DiceError::io("flush dtf", &e))?;
        Ok(WriteStats {
            records: self.records,
            frames: self.frames,
            bytes: self.bytes,
        })
    }
}

/// Packs a single-stream record list into `path` (stream 0).
///
/// # Errors
///
/// Propagates [`DtfWriter`] errors.
pub fn pack_records(
    path: impl AsRef<Path>,
    records: &[TraceRecord],
    compress: bool,
) -> DiceResult<WriteStats> {
    let mut w = DtfWriter::create(path, 1, compress)?;
    for r in records {
        w.push_record(0, *r)?;
    }
    w.finish()
}
