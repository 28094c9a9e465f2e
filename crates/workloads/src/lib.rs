//! Synthetic workload generators standing in for the paper's SPEC 2006 and
//! GAP benchmark slices.
//!
//! The original evaluation drives USIMM with PinPoints traces of real
//! binaries (Table 3: 16 memory-intensive SPEC benchmarks, 6 GAP graph
//! workloads on twitter/web graphs, 4 random mixes, plus 13 non-memory-
//! intensive SPEC programs). We cannot ship those traces, so each workload
//! is modeled by:
//!
//! * an **address-stream model** ([`TraceGen`]) — hot/cold working sets,
//!   sequential runs (spatial locality), optional Zipf page popularity for
//!   graph workloads, per-access instruction gaps — parameterized per
//!   workload to land near the paper's published L3 MPKI and footprint;
//! * a **value model** ([`ValueProfile`], [`DataModel`]) — pages are
//!   assigned value classes (zeros, small ints, strided ints, pointers,
//!   floats, random) whose synthesized bytes are *actually compressed* with
//!   the FPC+BDI hybrid, calibrated per workload against Figure 4's
//!   compressibility histogram. Compressibility is page-correlated, the
//!   property DICE's predictors exploit.
//!
//! Determinism: everything derives from explicit 64-bit seeds via SplitMix;
//! identical seeds yield identical traces and data.
//!
//! # Example
//!
//! ```
//! use dice_workloads::{spec_table, DataModel, TraceGen};
//!
//! let spec = spec_table().iter().find(|w| w.name == "mcf").unwrap().clone();
//! let mut gen = TraceGen::new(&spec, /* core */ 0, /* seed */ 42);
//! let rec = gen.next_record();
//! assert!(rec.gap > 0 || rec.gap == 0); // a (gap, line, write) record
//! let mut data = DataModel::new(&spec, 7);
//! let line = data.line_data(rec.line);
//! assert_eq!(line.len(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod data;
mod rng;
mod source;
mod spec;
mod trace;
mod value;

pub use data::{DataModel, MixDataModel, PAIR_SIZE_SATURATED};
pub use rng::SplitMix64;
pub use source::RecordSource;
pub use spec::{
    mix_table, nonmem_table, spec_table, Suite, WorkloadSpec, LINES_PER_PAGE, PAGE_BYTES,
};
pub use trace::{TraceGen, TraceRecord};
pub use value::{line_data, PageClass, ValueProfile};

/// A line address (byte address / 64), shared with `dice-core`.
pub type LineAddr = u64;
