//! The coordinator's write-ahead sweep journal.
//!
//! A coordinator crash used to lose every in-flight sweep: accepted specs
//! lived only in the jobs map, gathered cell results only in sweep-thread
//! locals. The journal makes both durable. Three record kinds are
//! appended, each **fsync'd before the action it describes is
//! acknowledged**:
//!
//! * `accepted` — a sweep spec was admitted (written before the 202);
//! * `cell` — one cell reached its final outcome (the run object,
//!   exactly the element [`render_runs`](dice_serve::render_runs) emits);
//! * `done` — the sweep finished (with its degraded reason, if any).
//!
//! On restart the coordinator replays the journal: finished sweeps are
//! reconstructed in place (their reports re-render byte-identically from
//! the journaled run objects — `RunReport` JSON is lossless), and
//! unfinished sweeps resume with only their **missing** cells
//! re-scattered.
//!
//! # Framing
//!
//! Zero-dep, append-only, binary-framed with a text payload:
//!
//! ```text
//! [magic u32 LE][payload len u32 LE][fnv1a64(payload) u64 LE][payload JSON]
//! ```
//!
//! A `kill -9` can tear the last frame mid-write; recovery scans frames
//! until the first bad magic, bad checksum, oversized length or
//! unparseable payload, **truncates the file back to the last good
//! frame**, and reports how many bytes were dropped. A torn tail is
//! therefore indistinguishable from the record never having been written
//! — the cell simply re-runs.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dice_obs::Json;
use dice_runner::fnv1a64;

/// Frame magic: `"DJR1"` little-endian (journal format v1).
const MAGIC: u32 = u32::from_le_bytes(*b"DJR1");

/// Sanity cap on one payload; anything larger is a torn length field.
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// One durable journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A sweep spec was admitted under `sweep` (the job id).
    Accepted {
        /// The sweep's job id ([`dice_serve::sweep_key`]).
        sweep: u64,
        /// The canonical spec JSON ([`dice_serve::SweepSpec::to_json`]).
        spec: Json,
    },
    /// One cell reached a final outcome.
    Cell {
        /// The owning sweep's job id.
        sweep: u64,
        /// The cell's run object (`{"tag", "workload", "report" |
        /// "error" | "timed_out_ms"}`).
        run: Json,
    },
    /// The sweep finished assembling.
    Done {
        /// The sweep's job id.
        sweep: u64,
        /// The typed degradation reason, when the fabric could not
        /// gather every cell from a live worker.
        degraded: Option<String>,
    },
}

impl JournalRecord {
    fn to_json(&self) -> Json {
        let sweep_field = |sweep: u64| ("sweep".to_owned(), Json::str(format!("{sweep:016x}")));
        match self {
            JournalRecord::Accepted { sweep, spec } => Json::Obj(vec![
                ("record".into(), Json::str("accepted")),
                sweep_field(*sweep),
                ("spec".into(), spec.clone()),
            ]),
            JournalRecord::Cell { sweep, run } => Json::Obj(vec![
                ("record".into(), Json::str("cell")),
                sweep_field(*sweep),
                ("run".into(), run.clone()),
            ]),
            JournalRecord::Done { sweep, degraded } => {
                let mut pairs = vec![
                    ("record".to_owned(), Json::str("done")),
                    sweep_field(*sweep),
                ];
                if let Some(reason) = degraded {
                    pairs.push(("degraded".to_owned(), Json::str(reason)));
                }
                Json::Obj(pairs)
            }
        }
    }

    fn from_json(doc: &Json) -> Option<JournalRecord> {
        let sweep = u64::from_str_radix(doc.get("sweep")?.as_str()?, 16).ok()?;
        match doc.get("record")?.as_str()? {
            "accepted" => Some(JournalRecord::Accepted {
                sweep,
                spec: doc.get("spec")?.clone(),
            }),
            "cell" => Some(JournalRecord::Cell {
                sweep,
                run: doc.get("run")?.clone(),
            }),
            "done" => Some(JournalRecord::Done {
                sweep,
                degraded: doc
                    .get("degraded")
                    .and_then(Json::as_str)
                    .map(str::to_owned),
            }),
            _ => None,
        }
    }
}

/// What [`Journal::open`] recovered from an existing file.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn tail truncated away (0 for a clean shutdown).
    pub dropped_bytes: u64,
}

/// An open, append-only sweep journal.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
    path: PathBuf,
    appended: AtomicU64,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path`, replays its
    /// intact frames, truncates any torn tail, and leaves the file
    /// positioned for appending.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures opening, reading or truncating the file.
    /// Torn or corrupt frames are **not** errors — they are dropped and
    /// counted in [`Recovery::dropped_bytes`].
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Journal, Recovery)> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut recovery = Recovery::default();
        let mut offset = 0usize;
        while let Some((record, next)) = read_frame(&bytes, offset) {
            recovery.records.push(record);
            offset = next;
        }
        if offset < bytes.len() {
            recovery.dropped_bytes = (bytes.len() - offset) as u64;
            file.set_len(offset as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Journal {
                file: Mutex::new(file),
                path,
                appended: AtomicU64::new(0),
            },
            recovery,
        ))
    }

    /// The journal's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this handle (replayed frames excluded).
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Appends one record and fsyncs before returning: once this call
    /// succeeds the record survives `kill -9`.
    ///
    /// # Errors
    ///
    /// Propagates the write or sync failure; the caller decides whether
    /// durability loss is fatal (the coordinator degrades to serving
    /// without a journal rather than refusing sweeps).
    pub fn append(&self, record: &JournalRecord) -> io::Result<()> {
        let payload = record.to_json().render().into_bytes();
        let mut frame = Vec::with_capacity(16 + payload.len());
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let mut file = self.file.lock().expect("journal file poisoned");
        file.write_all(&frame)?;
        file.sync_data()?;
        self.appended.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Reads the frame at `offset`; `None` for a torn, corrupt or absent
/// frame (recovery stops there).
fn read_frame(bytes: &[u8], offset: usize) -> Option<(JournalRecord, usize)> {
    let header = bytes.get(offset..offset + 16)?;
    let magic = u32::from_le_bytes(header[0..4].try_into().ok()?);
    if magic != MAGIC {
        return None;
    }
    let len = u32::from_le_bytes(header[4..8].try_into().ok()?);
    if len > MAX_PAYLOAD {
        return None;
    }
    let sum = u64::from_le_bytes(header[8..16].try_into().ok()?);
    let start = offset + 16;
    let payload = bytes.get(start..start + len as usize)?;
    if fnv1a64(payload) != sum {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    let record = JournalRecord::from_json(&Json::parse(text).ok()?)?;
    Some((record, start + len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A journal path in a fresh scratch directory, and a guard that
    /// removes the directory when the test ends.
    fn scratch(name: &str) -> (PathBuf, Scratch) {
        let dir =
            std::env::temp_dir().join(format!("dice-journal-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        (dir.join("sweeps.journal"), Scratch(dir))
    }

    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Accepted {
                sweep: 0xdead_beef,
                spec: Json::parse(r#"{"orgs":["base"],"workloads":["gcc"]}"#).expect("spec"),
            },
            JournalRecord::Cell {
                sweep: 0xdead_beef,
                run: Json::parse(r#"{"tag":"base","workload":"gcc","error":"boom"}"#).expect("run"),
            },
            JournalRecord::Done {
                sweep: 0xdead_beef,
                degraded: Some("2 cells had no live worker".into()),
            },
            JournalRecord::Done {
                sweep: 0x1234,
                degraded: None,
            },
        ]
    }

    #[test]
    fn append_replay_round_trips() {
        let (path, _dir) = scratch("roundtrip");
        let records = sample_records();
        {
            let (journal, recovery) = Journal::open(&path).expect("open");
            assert!(recovery.records.is_empty());
            for r in &records {
                journal.append(r).expect("append");
            }
            assert_eq!(journal.appended(), records.len() as u64);
        }
        let (_, recovery) = Journal::open(&path).expect("reopen");
        assert_eq!(recovery.records, records);
        assert_eq!(recovery.dropped_bytes, 0);
    }

    /// The crash contract, proven exhaustively: truncating the journal at
    /// **every** byte offset yields a clean prefix of the appended
    /// records — never an error, never a mangled record — and the file is
    /// usable for appends afterwards.
    #[test]
    fn truncation_at_every_offset_recovers_a_clean_prefix() {
        let (path, _dir) = scratch("torn");
        let records = sample_records();
        {
            let (journal, _) = Journal::open(&path).expect("open");
            for r in &records {
                journal.append(r).expect("append");
            }
        }
        let full = std::fs::read(&path).expect("read journal");

        // Frame boundaries, so we know how many records each prefix holds.
        let mut boundaries = vec![0usize];
        let mut offset = 0;
        while let Some((_, next)) = read_frame(&full, offset) {
            boundaries.push(next);
            offset = next;
        }
        assert_eq!(boundaries.len(), records.len() + 1);

        let (torn, _torn_dir) = scratch("torn-case");
        for cut in 0..=full.len() {
            std::fs::write(&torn, &full[..cut]).expect("write torn copy");
            let (journal, recovery) = Journal::open(&torn).expect("recovery must never error");
            let expect_n = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(
                recovery.records,
                records[..expect_n],
                "cut at {cut} of {}",
                full.len()
            );
            let good_prefix = boundaries[expect_n];
            assert_eq!(
                recovery.dropped_bytes,
                (cut - good_prefix) as u64,
                "cut at {cut}"
            );
            // The truncated file must accept appends and replay them.
            journal
                .append(&records[records.len() - 1])
                .expect("append after recovery");
            drop(journal);
            let (_, again) = Journal::open(&torn).expect("reopen");
            assert_eq!(again.records.len(), expect_n + 1);
            assert_eq!(again.dropped_bytes, 0);
        }
    }

    #[test]
    fn garbled_tail_is_dropped_not_propagated() {
        let (path, _dir) = scratch("garbled");
        let records = sample_records();
        {
            let (journal, _) = Journal::open(&path).expect("open");
            for r in &records {
                journal.append(r).expect("append");
            }
        }
        // Flip one byte in the last frame's payload: the checksum drops
        // exactly that record.
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 5;
        bytes[last] ^= 0xa5;
        std::fs::write(&path, &bytes).expect("write");
        let (_, recovery) = Journal::open(&path).expect("open garbled");
        assert_eq!(recovery.records, records[..records.len() - 1]);
        assert!(recovery.dropped_bytes > 0);
    }

    #[test]
    fn unknown_record_kinds_stop_replay_cleanly() {
        let doc = Json::parse(r#"{"record":"mystery","sweep":"0000000000000001"}"#).expect("doc");
        assert_eq!(JournalRecord::from_json(&doc), None);
    }
}
