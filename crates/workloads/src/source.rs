//! The per-core record stream the simulator consumes.
//!
//! The simulator pulls one [`RecordSource`] per core. The built-in
//! [`TraceGen`](crate::TraceGen) synthesizes streams; recorded post-L2
//! traces (e.g. from a binary-instrumentation tool) arrive as `.dtf`
//! files, whose `dice-ingest` bindings open one looping stream per core.

use crate::trace::{TraceGen, TraceRecord};

/// A stream of memory-access records for one core.
pub trait RecordSource {
    /// Produces the next access.
    fn next_record(&mut self) -> TraceRecord;

    /// Number of distinct lines the stream may touch (used to bound
    /// prefetcher reach); `u64::MAX` when unknown.
    fn footprint_lines(&self) -> u64;
}

impl RecordSource for TraceGen {
    fn next_record(&mut self) -> TraceRecord {
        TraceGen::next_record(self)
    }

    fn footprint_lines(&self) -> u64 {
        TraceGen::footprint_lines(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec_table;

    #[test]
    fn tracegen_implements_source() {
        let spec = spec_table().into_iter().next().unwrap();
        let mut g = TraceGen::with_scale(&spec, 0, 1, 64);
        let r = RecordSource::next_record(&mut g);
        assert!(RecordSource::footprint_lines(&g) > 0);
        let _ = r;
    }
}
