//! `dice-ingest` on a damaged `.dtf`: reading one stream checks every
//! frame of the file, so damage in another stream's frame fails the read
//! exactly as it fails a full scan.

use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dice_ingest::{frame, read_core_records, scan, FrameStep};
use dice_obs::ErrorClass;

/// Removes its directory when dropped, at the end of the test.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh directory named by test and process, removed with the guard.
fn scratch(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("dice-ingest-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

fn dice_ingest(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dice-ingest"))
        .args(args)
        .output()
        .expect("run dice-ingest")
}

/// The offset of the middle byte of stream `core`'s first frame body in
/// the `.dtf` image `bytes`, whose header declares `cores` streams.
fn first_body_middle(bytes: &[u8], cores: u32, core: u32) -> usize {
    let mut r = Cursor::new(bytes);
    r.set_position(frame::header_len(cores));
    for frame_no in 1.. {
        let step = frame::next_frame_header(&mut r, bytes.len() as u64, "t.dtf", frame_no);
        let Ok(FrameStep::Frame {
            core: found,
            body_len,
            ..
        }) = step
        else {
            break;
        };
        let body = r.position() as usize;
        if found == core {
            return body + body_len / 2;
        }
        r.set_position((body + body_len) as u64);
    }
    panic!("no frame of stream {core}");
}

/// One byte flipped inside stream 2's frame body: `read_core_records` of
/// stream 1 fails with the frame `scan` names, and `unpack --core 1`
/// exits non-zero, on the trace CI's ingest smoke test packs.
#[test]
fn damage_in_another_stream_fails_unpack() {
    let dir = scratch("other-stream");
    let t = dir.0.join("t.dtf");
    let t = t.to_str().expect("UTF-8 path");
    let out = dir.0.join("c1.txt");
    let out = out.to_str().expect("UTF-8 path");
    let mut gen = vec!["gen", "--out", t];
    gen.extend("--cores 4 --records 5000 --spec mcf --scale 512".split(' '));
    let gen = dice_ingest(&gen);
    assert!(gen.status.success(), "gen failed: {gen:?}");
    let unpack = ["unpack", "--in", t, "--core", "1", "--out", out];
    let clean = dice_ingest(&unpack);
    assert!(clean.status.success(), "unpack of a clean file: {clean:?}");

    let mut bytes = std::fs::read(t).expect("read t.dtf");
    let at = first_body_middle(&bytes, 4, 2);
    bytes[at] ^= 0x40;
    std::fs::write(t, &bytes).expect("write damaged t.dtf");

    let scanned = scan(Path::new(t), true).expect_err("scan accepted the damage");
    let read = read_core_records(t, 1).expect_err("stream 1 read past the damage");
    assert_eq!(read.class(), ErrorClass::TraceParse);
    assert_eq!(read.to_string(), scanned.to_string());

    let damaged = dice_ingest(&unpack);
    assert!(
        !damaged.status.success(),
        "unpack --core 1 exited 0 on a damaged file: {damaged:?}"
    );
    let stderr = String::from_utf8_lossy(&damaged.stderr);
    assert!(stderr.contains("checksum"), "stderr: {stderr}");
}
