//! dice-ingest — streamed real-trace ingestion for the DICE simulator.
//!
//! Every workload the simulator ran before this crate was synthetic.
//! dice-ingest opens the "any trace a user brings" axis with a zero-
//! dependency framed container, **DTF1**:
//!
//! ```text
//! file  := "DTF1" varint(cores) frame*
//! frame := 0xDF varint(core) varint(body_len) u64le(checksum) body
//! body  := flags varint(count) [varint(raw_len)] payload
//! ```
//!
//! * **Delta + varint record encoding** — per record: a flags byte
//!   (read/write, value-payload present), the instruction gap as a
//!   varint, and the line address zigzag-delta-encoded against the
//!   previous record in the frame (sequential streams collapse to ~3
//!   bytes/record before compression). An optional 64-byte value payload
//!   rides behind a flag bit.
//! * **Per-frame integrity** — every frame carries its body length and an
//!   FNV-1a checksum over the stream id and body; a flipped bit anywhere
//!   is a typed [`DiceError::TraceParse`](dice_obs::DiceError), while an
//!   incomplete frame at end-of-file is a *torn tail*, truncated away on
//!   recovery exactly like the fabric journal's `DJR1` records.
//! * **Optional `dlz` block compression** — a bounds-checked LZ-style
//!   byte compressor ([`lz`]); frames store whichever of raw/compressed
//!   is smaller.
//! * **Bounded-memory streaming** — [`DtfCoreStream`] holds one decoded
//!   frame per core stream and seeks past other cores' frames, so trace
//!   size never affects resident memory; it loops at end-of-trace, and a
//!   sweep driven by a streamed file is byte-identical to the same
//!   records preloaded into memory.
//! * **Cache-safe bindings** — [`TraceBinding`] validates a file once,
//!   records per-stream footprints and the file's FNV-1a content hash,
//!   and travels inside `WorkloadSet` where its `Debug` rendering feeds
//!   the runner's disk-cache key: change the file, change the key.
//!   [`TraceBinding::open_core`] is how the simulator gets its per-core
//!   record streams, and `.dtf` is the only trace format it reads.
//!
//! The `dice-ingest` CLI (in `crates/bench`, next to `experiments`)
//! packs text/synthetic traces into `.dtf`, inspects them, and runs
//! streamed-vs-in-memory equivalence sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod lz;
pub mod stream;
pub mod varint;
pub mod writer;

pub use frame::{
    file_content_hash, read_core_records, scan, CoreStat, DtfRecord, FrameStep, ScanInfo,
    FLAG_COMPRESSED, FRAME_MARKER, MAGIC, MAX_BODY_BYTES, MAX_CORES, MAX_RAW_BYTES,
};
pub use stream::{DtfCoreStream, TraceBinding};
pub use writer::{pack_records, DtfWriter, WriteStats, FRAME_RECORDS};
