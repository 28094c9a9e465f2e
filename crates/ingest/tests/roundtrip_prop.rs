//! DTF1 container properties: encode→decode identity (values, compression
//! and multi-stream layouts included), checksum-corruption rejection at
//! every frame-region offset, and truncation-at-every-offset behavior —
//! recovery always yields a clean per-stream prefix, strict mode rejects
//! torn tails. Mirrors the DiskCache corruption suite one layer down.

use dice_ingest::{
    frame, read_core_records, scan, DtfCoreStream, DtfRecord, DtfWriter, TraceBinding,
};
use dice_workloads::{RecordSource, TraceRecord};
use proptest::prelude::*;

/// Removes its directory when dropped, at the end of the test.
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A path for the file `name` in a fresh directory of its own, named by
/// file and process, and the guard that removes that directory.
fn tmp(name: &str) -> (Scratch, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("dice-ingest-prop-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    (Scratch(dir), path)
}

fn arb_record() -> impl Strategy<Value = DtfRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
        any::<u8>(),
    )
        .prop_map(|(gap, line, write, has_value, fill)| DtfRecord {
            rec: TraceRecord {
                gap: gap % 1_000_000,
                line,
                write,
            },
            value: has_value.then_some([fill; 64]),
        })
}

/// Per-stream record lists for a small multi-core file. The first stream
/// is never empty (so every generated file holds records); later streams
/// may be, exercising the empty-stream paths.
fn arb_streams() -> impl Strategy<Value = Vec<Vec<DtfRecord>>> {
    (
        proptest::collection::vec(arb_record(), 1..40),
        proptest::collection::vec(proptest::collection::vec(arb_record(), 0..40), 0..3),
    )
        .prop_map(|(first, rest)| std::iter::once(first).chain(rest).collect())
}

/// Like [`arb_streams`] but every stream is non-empty (required by the
/// per-core streamed readers).
fn arb_full_streams() -> impl Strategy<Value = Vec<Vec<DtfRecord>>> {
    proptest::collection::vec(proptest::collection::vec(arb_record(), 1..40), 1..4)
}

fn write_streams(
    path: &std::path::Path,
    streams: &[Vec<DtfRecord>],
    frame_records: usize,
    compress: bool,
) {
    let mut w = DtfWriter::create(path, streams.len() as u32, compress)
        .unwrap()
        .with_frame_records(frame_records);
    // Interleave pushes round-robin so frames of different streams mix in
    // file order, exercising the reader's skip path.
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (core, recs) in streams.iter().enumerate() {
            if let Some(r) = recs.get(i) {
                w.push(core as u32, *r).unwrap();
            }
        }
    }
    w.finish().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// encode → decode is the identity, for raw and compressed frames,
    /// any frame size, values included.
    #[test]
    fn round_trips_exactly(
        streams in arb_streams(),
        frame_records in 1usize..9,
        compress in any::<bool>(),
    ) {
        let (_dir, path) = tmp("rt.dtf");
        write_streams(&path, &streams, frame_records, compress);
        for (core, expect) in streams.iter().enumerate() {
            let got = read_core_records(&path, core as u32).unwrap();
            prop_assert_eq!(&got, expect, "stream {}", core);
        }
        let info = scan(&path, true).unwrap();
        prop_assert_eq!(info.cores as usize, streams.len());
        prop_assert_eq!(info.records, streams.iter().map(|s| s.len() as u64).sum::<u64>());
        prop_assert_eq!(info.dropped_bytes, 0);
    }

    /// Any single corrupted byte in the frame region fails the strict
    /// scan with a typed error — the per-frame checksum covers the stream
    /// id and body, and the marker/length fields misframe loudly.
    #[test]
    fn corruption_at_every_frame_offset_is_rejected(
        streams in arb_streams(),
        compress in any::<bool>(),
        flip in any::<u8>(),
    ) {
        let flip = if flip == 0 { 0xA5 } else { flip };
        let (_dir, path) = tmp("corrupt.dtf");
        write_streams(&path, &streams, 7, compress);
        let clean = std::fs::read(&path).unwrap();
        let header_len = frame::header_len(streams.len() as u32) as usize;
        for off in header_len..clean.len() {
            let mut bad = clean.clone();
            bad[off] ^= flip;
            std::fs::write(&path, &bad).unwrap();
            prop_assert!(
                scan(&path, true).is_err(),
                "flip {:#04x} at offset {} accepted", flip, off
            );
        }
    }

    /// Truncation at every offset: recovery mode always yields a clean
    /// per-stream prefix of the original records (torn tail dropped,
    /// never garbage); strict mode additionally rejects any cut that is
    /// not a frame boundary.
    #[test]
    fn truncation_at_every_offset_recovers_a_prefix(streams in arb_streams()) {
        let (_dir, path) = tmp("trunc.dtf");
        write_streams(&path, &streams, 5, true);
        let clean = std::fs::read(&path).unwrap();
        let header_len = frame::header_len(streams.len() as u32) as usize;
        for cut in header_len..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let info = scan(&path, false).unwrap();
            let boundary = info.dropped_bytes == 0;
            prop_assert_eq!(
                scan(&path, true).is_ok(),
                boundary,
                "strict scan at cut {} disagrees with boundary-ness", cut
            );
            for (core, full) in streams.iter().enumerate() {
                let got = read_core_records(&path, core as u32).unwrap();
                prop_assert!(
                    got.len() <= full.len() && got[..] == full[..got.len()],
                    "cut {}: stream {} is not a prefix", cut, core
                );
            }
        }
    }

    /// The bounded-memory streamed reader and the preload-mode reader
    /// both yield exactly the in-memory records, looping at end of trace,
    /// and report the same footprint (max line − min line + 1).
    #[test]
    fn streamed_reader_matches_in_memory(
        streams in arb_full_streams(),
        frame_records in 1usize..9,
        compress in any::<bool>(),
    ) {
        let (_dir, path) = tmp("stream.dtf");
        write_streams(&path, &streams, frame_records, compress);
        let binding = TraceBinding::open(&path).unwrap();
        let preload = binding.clone().with_preload(true);
        for (core, expect) in streams.iter().enumerate() {
            let mut stream = binding.open_core(core as u32).unwrap();
            let mut mapped = binding
                .open_core(core as u32 + streams.len() as u32) // modulo mapping
                .unwrap();
            let mut preloaded = preload.open_core(core as u32).unwrap();
            let lines = expect.iter().map(|r| r.rec.line);
            let footprint = lines.clone().max().unwrap() - lines.min().unwrap() + 1;
            prop_assert_eq!(stream.footprint_lines(), footprint, "stream {}", core);
            prop_assert_eq!(preloaded.footprint_lines(), footprint, "preloaded stream {}", core);
            for k in 0..expect.len() * 2 + 3 {
                let want = expect[k % expect.len()].rec;
                prop_assert_eq!(stream.next_record(), want, "stream {} record {}", core, k);
                prop_assert_eq!(mapped.next_record(), want, "mapped stream {} record {}", core, k);
                prop_assert_eq!(
                    preloaded.next_record(), want, "preloaded stream {} record {}", core, k
                );
            }
        }
    }
}

#[test]
fn torn_tail_is_truncated_and_reported() {
    let (_dir, path) = tmp("torn.dtf");
    let records: Vec<DtfRecord> = (0..50)
        .map(|i| {
            DtfRecord::plain(TraceRecord {
                gap: i,
                line: 0x100 + i * 3,
                write: i % 2 == 0,
            })
        })
        .collect();
    write_streams(&path, std::slice::from_ref(&records), 10, false);
    let full = std::fs::read(&path).unwrap();
    // Interrupted writer: a frame marker plus half a header.
    let mut torn = full;
    torn.extend_from_slice(&[dice_ingest::FRAME_MARKER, 0x00, 0x91]);
    std::fs::write(&path, &torn).unwrap();

    let info = scan(&path, false).unwrap();
    assert_eq!(info.records, 50);
    assert_eq!(info.dropped_bytes, 3);
    assert!(scan(&path, true).is_err());

    let binding = TraceBinding::open(&path).unwrap();
    assert_eq!(binding.records(), 50);
    assert_eq!(binding.dropped_bytes(), 3);
    // The streamed reader ignores the torn tail too.
    let mut s = binding.open_core(0).unwrap();
    for r in &records {
        assert_eq!(s.next_record(), r.rec);
    }
    assert_eq!(s.next_record(), records[0].rec, "loops past the torn tail");
}

#[test]
fn content_hash_tracks_file_bytes() {
    let (_dir, path) = tmp("hash.dtf");
    let mk = |gap: u64| {
        vec![
            DtfRecord::plain(TraceRecord {
                gap,
                line: 42,
                write: false,
            });
            20
        ]
    };
    write_streams(&path, &[mk(1)], 8, true);
    let a = TraceBinding::open(&path).unwrap();
    write_streams(&path, &[mk(1)], 8, true);
    let a2 = TraceBinding::open(&path).unwrap();
    assert_eq!(
        a.content_hash(),
        a2.content_hash(),
        "hash is content-determined"
    );
    write_streams(&path, &[mk(2)], 8, true);
    let b = TraceBinding::open(&path).unwrap();
    assert_ne!(
        a.content_hash(),
        b.content_hash(),
        "changed bytes change the hash"
    );
}

#[test]
fn resident_memory_is_bounded_by_frame_size_not_file_size() {
    let (_dir, path) = tmp("big.dtf");
    let mut w = DtfWriter::create(&path, 1, true).unwrap();
    let mut line = 0x8000u64;
    for i in 0..200_000u64 {
        line = line.wrapping_add((i * 2654435761) % 97);
        w.push_record(
            0,
            TraceRecord {
                gap: i % 11,
                line,
                write: i % 5 == 0,
            },
        )
        .unwrap();
    }
    let stats = w.finish().unwrap();
    assert_eq!(stats.records, 200_000);
    assert!(
        stats.frames >= 48,
        "expected many frames, got {}",
        stats.frames
    );

    let mut s = DtfCoreStream::open(&path, 0, 1).unwrap();
    let mut high_water = 0usize;
    for _ in 0..250_000 {
        let _ = s.next_record();
        high_water = high_water.max(s.resident_bytes());
    }
    // One frame in flight: well under a megabyte even though the file
    // holds 200k records and the stream looped past EOF.
    assert!(
        high_water < (1 << 20),
        "resident high-water {high_water} bytes"
    );
}

#[test]
fn empty_or_headerless_files_are_typed_errors() {
    let (_dir, path) = tmp("empty.dtf");
    let w = DtfWriter::create(&path, 2, false).unwrap();
    let stats = w.finish().unwrap();
    assert_eq!(stats.records, 0);
    let err = TraceBinding::open(&path).unwrap_err();
    assert_eq!(err.class(), dice_obs::ErrorClass::Config);

    std::fs::write(&path, b"NOPE").unwrap();
    assert!(TraceBinding::open(&path).is_err());
    std::fs::write(&path, b"DT").unwrap();
    assert!(TraceBinding::open(&path).is_err());
}

#[test]
fn empty_stream_in_multicore_file_is_rejected_at_open() {
    let (_dir, path) = tmp("gap-core.dtf");
    let recs: Vec<DtfRecord> = (0..4)
        .map(|i| {
            DtfRecord::plain(TraceRecord {
                gap: i,
                line: i,
                write: false,
            })
        })
        .collect();
    // Stream 1 of 2 stays empty.
    write_streams(&path, &[recs, Vec::new()], 4, false);
    let binding = TraceBinding::open(&path).unwrap();
    assert!(binding.open_core(0).is_ok());
    let err = binding.open_core(1).err().unwrap();
    assert_eq!(err.class(), dice_obs::ErrorClass::Config);
}
