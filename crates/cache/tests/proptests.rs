//! Property-based tests for the SRAM cache model, checked against a naive
//! reference implementation of set-associative LRU.

use dice_cache::{HierarchyConfig, SetAssocCache, SramHierarchy};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

/// A deliberately simple reference model: per-set ordered list, MRU front.
struct RefCache {
    sets: usize,
    ways: usize,
    entries: Vec<VecDeque<(u64, bool)>>,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets,
            ways,
            entries: vec![VecDeque::new(); sets],
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        (addr as usize) % self.sets
    }

    fn access(&mut self, addr: u64, write: bool) -> bool {
        let s = self.set_of(addr);
        if let Some(i) = self.entries[s].iter().position(|&(a, _)| a == addr) {
            let (a, d) = self.entries[s].remove(i).unwrap();
            self.entries[s].push_front((a, d || write));
            true
        } else {
            false
        }
    }

    fn install(&mut self, addr: u64, dirty: bool) -> Option<(u64, bool)> {
        let s = self.set_of(addr);
        if let Some(i) = self.entries[s].iter().position(|&(a, _)| a == addr) {
            let (a, d) = self.entries[s].remove(i).unwrap();
            self.entries[s].push_front((a, d || dirty));
            return None;
        }
        let victim = if self.entries[s].len() == self.ways {
            self.entries[s].pop_back()
        } else {
            None
        };
        self.entries[s].push_front((addr, dirty));
        victim
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access(u8, bool),
    Install(u8, bool),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<bool>()).prop_map(|(a, w)| Op::Access(a, w)),
            (any::<u8>(), any::<bool>()).prop_map(|(a, d)| Op::Install(a, d)),
        ],
        1..500,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_reference_lru(ops in arb_ops()) {
        // 16 sets x 4 ways of 64 B lines.
        let mut dut = SetAssocCache::new(16 * 4 * 64, 4);
        let mut reference = RefCache::new(16, 4);
        for op in ops {
            match op {
                Op::Access(a, w) => {
                    prop_assert_eq!(
                        dut.access(u64::from(a), w),
                        reference.access(u64::from(a), w)
                    );
                }
                Op::Install(a, d) => {
                    let v_dut = dut.install(u64::from(a), d);
                    let v_ref = reference.install(u64::from(a), d);
                    prop_assert_eq!(v_dut.map(|v| (v.addr, v.dirty)), v_ref);
                }
            }
        }
    }

    #[test]
    fn occupancy_never_exceeds_geometry(ops in arb_ops()) {
        let mut dut = SetAssocCache::new(8 * 2 * 64, 2);
        for op in ops {
            match op {
                Op::Access(a, w) => {
                    dut.access(u64::from(a), w);
                }
                Op::Install(a, d) => {
                    dut.install(u64::from(a), d);
                }
            }
            prop_assert!(dut.valid_lines() <= 16);
        }
    }

    #[test]
    fn hierarchy_never_loses_dirty_lines(
        records in proptest::collection::vec((0u8..64, any::<bool>()), 1..200)
    ) {
        let mut h = SramHierarchy::new(&HierarchyConfig {
            cores: 1,
            l3_bytes: 16 * 64,
            l3_ways: 2,
        });
        let mut owed = HashSet::new();
        for (line, write) in records {
            drive(&mut h, &mut owed, u64::from(line), write);
        }
        // Flush: two clean lines into each of the 8 sets evict everything
        // left, so every written line has now surfaced.
        for addr in 1000..1016 {
            drive(&mut h, &mut owed, addr, false);
        }
        prop_assert!(owed.is_empty(), "never written back: {owed:?}");
    }
}

/// Drives one post-L2 record into `h` the way the simulator does: probe,
/// fill on a miss, drain the dirty victims. `owed` holds the written lines
/// not yet written back. Each must stay resident until it surfaces as
/// exactly one writeback; a clean line never surfaces.
fn drive(h: &mut SramHierarchy, owed: &mut HashSet<u64>, addr: u64, write: bool) {
    if !h.l3_access(addr, write) {
        h.l3_fill(addr, write);
    }
    if write {
        owed.insert(addr);
    }
    let mut wbs = Vec::new();
    h.drain_writebacks_into(&mut wbs);
    for wb in wbs {
        assert!(owed.remove(&wb), "line {wb} written back but not dirty");
    }
    for addr in owed.iter() {
        assert!(h.l3_contains(*addr), "dirty line {addr} vanished");
    }
}
