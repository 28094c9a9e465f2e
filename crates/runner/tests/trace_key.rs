//! File-backed traces are cache-keyed by content: regenerating a `.dtf`
//! in place must invalidate cached cells that consumed the old bytes.

use dice_core::Organization;
use dice_ingest::{DtfWriter, TraceBinding};
use dice_runner::{cell_fingerprint, cell_key};
use dice_sim::{SimConfig, WorkloadSet};
use dice_workloads::{spec_table, TraceRecord};

/// Removes its directory when dropped, at the end of the test.
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn pack(path: &std::path::Path, lines: &[u64]) {
    let mut w = DtfWriter::create(path, 1, false).unwrap();
    for &line in lines {
        let rec = TraceRecord {
            gap: 10,
            line,
            write: false,
        };
        w.push_record(0, rec).unwrap();
    }
    w.finish().unwrap();
}

#[test]
fn rewriting_the_trace_file_changes_the_cell_key() {
    let dir =
        Scratch(std::env::temp_dir().join(format!("dice-runner-trace-key-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).unwrap();
    let path = dir.0.join("key.dtf");
    let spec = spec_table().into_iter().find(|w| w.name == "gcc").unwrap();
    let cfg = SimConfig::scaled(Organization::UncompressedAlloy, 1024);

    pack(&path, &[1, 2, 3, 4]);
    let first = TraceBinding::open(&path).unwrap();
    let wl_first = WorkloadSet::traced("t", spec.clone(), 1, first.clone());
    let key_first = cell_key(&cfg, &wl_first);

    // Same binding again: the key is stable.
    assert_eq!(
        key_first,
        cell_key(
            &cfg,
            &WorkloadSet::traced("t", spec.clone(), 1, first.clone())
        )
    );

    // Same path, different bytes: the content hash moves the key even
    // though tag, workload name, seed and path are all unchanged.
    pack(&path, &[1, 2, 3, 5]);
    let second = TraceBinding::open(&path).unwrap();
    assert_ne!(first.content_hash(), second.content_hash());
    let wl_second = WorkloadSet::traced("t", spec, 1, second);
    assert_ne!(key_first, cell_key(&cfg, &wl_second));

    // The hash is visible in the fingerprint text the key is built from.
    assert!(cell_fingerprint(&cfg, &wl_first).contains(&first.content_hash().to_string()));
}
