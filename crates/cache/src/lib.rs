//! SRAM cache substrate for the DICE reproduction.
//!
//! The paper's system (Table 2) has private 32 KB L1 and 256 KB L2 caches
//! per core, a shared 8 MB L3, and the 1 GB DRAM L4 this project is about.
//! DICE acts only behind the L3, so the simulator feeds it post-L2 record
//! streams (DESIGN.md §3, §7.4): the private levels are folded into each
//! stream, and each record probes the shared L3. This crate provides:
//!
//! * [`SetAssocCache`] — a generic set-associative, write-back,
//!   write-allocate cache with true-LRU replacement,
//! * [`SramHierarchy`] — the shared L3, with its dirty victims queued for
//!   the caller (they become L4 writebacks),
//! * [`prefetch`] — the L3 fetch-policy baselines of the paper's Table 7
//!   (next-line prefetch and 128 B wide fetch).
//!
//! Addresses everywhere are *line addresses* (byte address `>> 6`).
//!
//! # Example
//!
//! ```
//! use dice_cache::{HierarchyConfig, SramHierarchy};
//!
//! let mut l3 = SramHierarchy::new(&HierarchyConfig::paper_8core());
//! assert!(!l3.l3_access(0x40, true)); // a post-L2 write misses cold...
//! l3.l3_fill(0x40, true); // ...and the L4 fetch fills it dirty
//! assert!(l3.l3_access(0x40, false)); // now a hit
//! let mut writebacks = Vec::new();
//! l3.drain_writebacks_into(&mut writebacks);
//! assert!(writebacks.is_empty()); // nothing evicted yet
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hierarchy;
pub mod prefetch;
mod set_assoc;
mod stats;

pub use hierarchy::{HierarchyConfig, SramHierarchy};
pub use prefetch::L3FetchPolicy;
pub use set_assoc::{Eviction, SetAssocCache};
pub use stats::CacheStats;

/// A line address: the physical byte address divided by the 64 B line size.
pub type LineAddr = u64;
