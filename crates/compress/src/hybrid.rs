//! Hybrid FPC+BDI compressor — the scheme DICE evaluates (§4.2).
//!
//! Each line is compressed with both FPC and BDI and the smaller encoding
//! wins; if neither beats the raw 64 bytes, the line is stored uncompressed.
//! Which algorithm (and which BDI encoding) was used is recorded in the
//! per-line metadata bits of the DRAM-cache set format — the paper allots up
//! to 9 bits for this, which [`Algorithm::metadata_bits`] stays within.

use crate::bdi::{BdiEncoding, BdiLine};
use crate::fpc::FpcLine;
use crate::{LineData, LINE_BYTES};

/// Which algorithm encoded a [`Compressed`] line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Stored uncompressed (64 B).
    Raw,
    /// Frequent Pattern Compression bit-stream.
    Fpc,
    /// Base-Delta-Immediate with the given encoding.
    Bdi(BdiEncoding),
}

impl Algorithm {
    /// Number of metadata bits needed to describe this encoding in the DRAM
    /// cache's per-line tag: 1 bit FPC/BDI selector + 3 bits BDI encoding +
    /// 1 bit raw flag = 5 bits, within the paper's 9-bit budget.
    #[must_use]
    pub fn metadata_bits(self) -> u32 {
        5
    }
}

/// A 64-byte line compressed with the best of FPC and BDI.
///
/// Create with [`compress`]; recover the original bytes with [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compressed {
    repr: Repr,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Raw(Box<LineData>),
    Fpc(FpcLine),
    Bdi(BdiLine),
}

impl Compressed {
    /// The winning algorithm.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        match &self.repr {
            Repr::Raw(_) => Algorithm::Raw,
            Repr::Fpc(_) => Algorithm::Fpc,
            Repr::Bdi(b) => Algorithm::Bdi(b.encoding()),
        }
    }

    /// Compressed data size in bytes (64 when stored raw).
    ///
    /// This is the size the DRAM-cache set format charges against the 72 B
    /// TAD payload; tag bytes are accounted separately by the set format.
    #[must_use]
    pub fn size(&self) -> usize {
        match &self.repr {
            Repr::Raw(_) => LINE_BYTES,
            Repr::Fpc(f) => f.size(),
            Repr::Bdi(b) => b.size(),
        }
    }
}

/// Compresses `line` with the better of FPC and BDI (raw if neither helps).
#[must_use]
pub fn compress(line: &LineData) -> Compressed {
    let fpc = FpcLine::compress(line);
    let bdi = BdiLine::compress(line);
    let fpc_size = fpc.size();
    let bdi_size = bdi.as_ref().map_or(usize::MAX, BdiLine::size);
    let best = fpc_size.min(bdi_size);
    let repr = if best >= LINE_BYTES {
        Repr::Raw(Box::new(*line))
    } else if bdi_size <= fpc_size {
        Repr::Bdi(bdi.expect("bdi_size finite implies Some"))
    } else {
        Repr::Fpc(fpc)
    };
    Compressed { repr }
}

/// Reconstructs the original line from a [`Compressed`] value.
#[must_use]
pub fn decompress(c: &Compressed) -> LineData {
    match &c.repr {
        Repr::Raw(l) => **l,
        Repr::Fpc(f) => f.decompress(),
        Repr::Bdi(b) => b.decompress(),
    }
}

/// The hybrid compressed size of `line` in bytes, computed without building
/// a [`Compressed`] value (no `Vec<u8>` payloads, no heap traffic).
///
/// This is what the simulator's hot path calls when only the size matters
/// (e.g. the DICE 36 B insertion decision, set occupancy accounting). The
/// contract is exact equality with `compress(line).size()`: the size-only
/// FPC and BDI kernels replicate the materializing selection logic, and the
/// raw fallback caps the result at [`LINE_BYTES`] just as [`compress`]
/// stores the line uncompressed when neither codec helps.
#[must_use]
pub fn compressed_size(line: &LineData) -> usize {
    let fpc = crate::fpc::fpc_size(line);
    let bdi = crate::bdi::bdi_size(line).unwrap_or(usize::MAX);
    fpc.min(bdi).min(LINE_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{line_from_words, zero_line};

    #[test]
    fn zero_line_takes_bdi_zeros() {
        let c = compress(&zero_line());
        assert_eq!(c.algorithm(), Algorithm::Bdi(BdiEncoding::Zeros));
        assert_eq!(c.size(), 1);
        assert_eq!(decompress(&c), zero_line());
    }

    #[test]
    fn small_ints_prefer_fpc_over_bdi() {
        // Sixteen tiny values with a period-3 pattern (so no 64-bit value
        // repeats): FPC = 14 B beats BDI B4D1 = 20 B.
        let words: [u32; 16] = core::array::from_fn(|i| [3u32, 5, 7][i % 3]);
        let line = line_from_words(&words);
        let c = compress(&line);
        assert_eq!(c.algorithm(), Algorithm::Fpc);
        assert_eq!(c.size(), 14);
        assert_eq!(decompress(&c), line);
    }

    #[test]
    fn repeated_u64_prefers_bdi_rep8() {
        // A repeated 64-bit value: BDI Rep8 (8 B) beats FPC (14 B).
        let line = line_from_words(&[3u32; 16]);
        let c = compress(&line);
        assert_eq!(c.algorithm(), Algorithm::Bdi(BdiEncoding::Rep8));
        assert_eq!(c.size(), 8);
        assert_eq!(decompress(&c), line);
    }

    #[test]
    fn clustered_values_prefer_bdi() {
        // Large values close together: FPC emits raw words, BDI wins.
        let words: [u32; 16] = core::array::from_fn(|i| 0x1234_5678 + i as u32);
        let line = line_from_words(&words);
        let c = compress(&line);
        assert_eq!(c.algorithm(), Algorithm::Bdi(BdiEncoding::B4D1));
        assert_eq!(c.size(), 20);
        assert_eq!(decompress(&c), line);
    }

    #[test]
    fn incompressible_line_stored_raw() {
        let mut line = zero_line();
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for chunk in line.chunks_exact_mut(8) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        let c = compress(&line);
        assert_eq!(c.algorithm(), Algorithm::Raw);
        assert_eq!(c.size(), LINE_BYTES);
        assert_eq!(decompress(&c), line);
    }

    #[test]
    fn size_never_exceeds_line_bytes() {
        // Even for the FPC worst case (70 B), the hybrid caps at 64 B raw.
        let line = line_from_words(&[0x1357_9bdf; 16]);
        assert!(compress(&line).size() <= LINE_BYTES);
    }

    #[test]
    fn size_kernel_matches_materialized() {
        let mut lines: Vec<crate::LineData> = vec![zero_line()];
        lines.push(line_from_words(&core::array::from_fn(|i| {
            [3u32, 5, 7][i % 3]
        })));
        lines.push(line_from_words(&[3u32; 16]));
        lines.push(line_from_words(&core::array::from_fn(|i| {
            0x1234_5678 + i as u32
        })));
        lines.push(line_from_words(&[0x1357_9bdf; 16]));
        let mut noise = zero_line();
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for chunk in noise.chunks_exact_mut(8) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        lines.push(noise);
        for line in lines {
            assert_eq!(compressed_size(&line), compress(&line).size());
        }
    }

    #[test]
    fn metadata_fits_paper_budget() {
        assert!(Algorithm::Raw.metadata_bits() <= 9);
        assert!(Algorithm::Fpc.metadata_bits() <= 9);
        assert!(Algorithm::Bdi(BdiEncoding::B4D2).metadata_bits() <= 9);
    }
}
