//! Verifies the size-only compression kernels perform **zero heap
//! allocations** — the contract that lets the simulator size every fill,
//! writeback and occupancy recount without materializing a payload. A
//! change that quietly re-introduces materialization (or an allocation)
//! into `compressed_size` / `pair_compressed_size` fails here.
//!
//! A counting `#[global_allocator]` wraps the system allocator. Over a
//! pool of lines spanning every value class the workload generators
//! synthesize, the size kernels must leave the counter untouched, while
//! the materializing `compress` / `compress_pair` over the same pool must
//! move it, which proves the counter is live.
//!
//! This file intentionally contains a single test: a sibling test running
//! on another thread would bump the shared counter and fail the assertion
//! spuriously.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use dice_compress::{compress, compress_pair, compressed_size, pair_compressed_size, LineData};
use dice_workloads::{line_data, PageClass};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// 64 lines of every value class, seeded with `0xd1ce`: the same byte
/// patterns the simulator sizes up.
fn line_pool() -> Vec<LineData> {
    let mut pool = Vec::new();
    for class in PageClass::ALL {
        for i in 0..64u64 {
            pool.push(line_data(0xd1ce, class, i));
        }
    }
    pool
}

/// Every line sized alone, plus every adjacent pair sized jointly.
fn size_only(pool: &[LineData]) -> usize {
    let singles: usize = pool.iter().map(compressed_size).sum();
    let pairs: usize = pool
        .chunks_exact(2)
        .map(|p| pair_compressed_size(&p[0], &p[1]))
        .sum();
    singles + pairs
}

/// The same sizes through the materializing compressors.
fn materializing(pool: &[LineData]) -> usize {
    let singles: usize = pool.iter().map(|line| compress(line).size()).sum();
    let pairs: usize = pool
        .chunks_exact(2)
        .map(|p| compress_pair(&p[0], &p[1]).total_size())
        .sum();
    singles + pairs
}

#[test]
fn size_kernels_are_allocation_free() {
    let pool = line_pool();
    let expected = size_only(&pool);

    // The counter is process-global, so the test harness's own threads can
    // sporadically allocate during a window. An allocating kernel would
    // taint *every* window with hundreds of counts; harness noise is rare
    // and small, so requiring one clean window out of several is exact.
    let mut leaks = Vec::new();
    for _ in 0..5 {
        let before = allocations();
        let total = size_only(black_box(&pool));
        let after = allocations();
        assert_eq!(black_box(total), expected);
        if after == before {
            break;
        }
        leaks.push(after - before);
    }
    assert!(
        leaks.len() < 5,
        "size-only kernels allocated in every measured window: {leaks:?}"
    );

    let before = allocations();
    let total = materializing(black_box(&pool));
    let made = allocations() - before;
    assert_eq!(
        black_box(total),
        expected,
        "size kernels disagree with the compressors"
    );
    assert!(
        made > 0,
        "the materializing path allocated nothing: is the counter live?"
    );
}
