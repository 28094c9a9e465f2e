//! Frequent Pattern Compression (Alameldeen & Wood, 2004).
//!
//! FPC scans a cache line as sixteen 32-bit words and encodes each word with
//! a 3-bit pattern prefix followed by a variable-width payload:
//!
//! | prefix | pattern                                   | payload bits |
//! |--------|-------------------------------------------|--------------|
//! | `000`  | run of 1–8 zero words                     | 3 (run len)  |
//! | `001`  | 4-bit sign-extended value                 | 4            |
//! | `010`  | 8-bit sign-extended value                 | 8            |
//! | `011`  | 16-bit sign-extended value                | 16           |
//! | `100`  | lower halfword zero (upper half stored)   | 16           |
//! | `101`  | two halfwords, each a sign-extended byte  | 16           |
//! | `110`  | word of one repeated byte                 | 8            |
//! | `111`  | uncompressed word                         | 32           |
//!
//! Decompression is a handful of shifts per word, matching the 1–5 cycle
//! latency the DICE paper assumes for its compressors.

use crate::bits::{BitReader, BitWriter};
use crate::{words_of_line, LineData, LINE_BYTES};

const PREFIX_BITS: u32 = 3;

const P_ZERO_RUN: u32 = 0b000;
const P_SE4: u32 = 0b001;
const P_SE8: u32 = 0b010;
const P_SE16: u32 = 0b011;
const P_LOWER_ZERO: u32 = 0b100;
const P_TWO_SE_BYTES: u32 = 0b101;
const P_REPEATED_BYTE: u32 = 0b110;
const P_RAW: u32 = 0b111;

/// Returns `true` if `word` equals its low `n` bits sign-extended to 32.
fn fits_signed(word: u32, n: u32) -> bool {
    let v = word as i32;
    let shift = 32 - n;
    (v << shift) >> shift == v
}

/// Returns `true` if the low halfword of `h` equals its low byte
/// sign-extended to 16 bits (the "two sign-extended bytes" pattern checks
/// each halfword independently at 16-bit width).
fn half_fits_se8(h: u32) -> bool {
    let v = (h & 0xffff) as u16 as i16;
    (v << 8) >> 8 == v
}

/// Classification of a single word; `payload` holds the bits to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WordCode {
    prefix: u32,
    payload: u32,
    payload_bits: u32,
}

fn classify(word: u32) -> WordCode {
    if fits_signed(word, 4) {
        WordCode {
            prefix: P_SE4,
            payload: word & 0xf,
            payload_bits: 4,
        }
    } else if fits_signed(word, 8) {
        WordCode {
            prefix: P_SE8,
            payload: word & 0xff,
            payload_bits: 8,
        }
    } else if fits_signed(word, 16) {
        WordCode {
            prefix: P_SE16,
            payload: word & 0xffff,
            payload_bits: 16,
        }
    } else if word & 0xffff == 0 {
        WordCode {
            prefix: P_LOWER_ZERO,
            payload: word >> 16,
            payload_bits: 16,
        }
    } else if half_fits_se8(word) && half_fits_se8(word >> 16) {
        let hi = (word >> 16) & 0xff;
        let lo = word & 0xff;
        WordCode {
            prefix: P_TWO_SE_BYTES,
            payload: (hi << 8) | lo,
            payload_bits: 16,
        }
    } else {
        let b = word & 0xff;
        if word == b * 0x0101_0101 {
            WordCode {
                prefix: P_REPEATED_BYTE,
                payload: b,
                payload_bits: 8,
            }
        } else {
            WordCode {
                prefix: P_RAW,
                payload: word,
                payload_bits: 32,
            }
        }
    }
}

/// An FPC-compressed 64-byte line.
///
/// Holds the packed bit-stream; [`FpcLine::size`] is the byte size the DRAM
/// cache charges for the line's data segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FpcLine {
    bytes: Vec<u8>,
}

impl FpcLine {
    /// Compresses `line`. Always succeeds; incompressible words are emitted
    /// raw, so the worst case is 16 × (3+32) bits = 70 B, i.e. *larger* than
    /// the line. Callers compare [`size`](Self::size) against
    /// [`LINE_BYTES`] and fall back to storing the line uncompressed (the
    /// hybrid wrapper does this automatically).
    #[must_use]
    pub fn compress(line: &LineData) -> Self {
        let words = words_of_line(line);
        let mut w = BitWriter::new();
        let mut i = 0;
        while i < words.len() {
            if words[i] == 0 {
                let mut run = 1;
                while i + run < words.len() && words[i + run] == 0 && run < 8 {
                    run += 1;
                }
                w.write(P_ZERO_RUN, PREFIX_BITS);
                w.write(run as u32 - 1, 3);
                i += run;
            } else {
                let code = classify(words[i]);
                w.write(code.prefix, PREFIX_BITS);
                w.write(code.payload, code.payload_bits);
                i += 1;
            }
        }
        Self {
            bytes: w.into_bytes(),
        }
    }

    /// Compressed size in bytes (bit length rounded up).
    #[must_use]
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Reconstructs the original 64-byte line.
    #[must_use]
    pub fn decompress(&self) -> LineData {
        let mut r = BitReader::new(&self.bytes);
        let mut words = [0u32; 16];
        let mut i = 0;
        while i < 16 {
            let prefix = r.read(PREFIX_BITS);
            match prefix {
                P_ZERO_RUN => {
                    let run = r.read(3) as usize + 1;
                    // Zero words are already zero in `words`.
                    i += run;
                }
                P_SE4 => {
                    let v = r.read(4);
                    words[i] = ((v as i32) << 28 >> 28) as u32;
                    i += 1;
                }
                P_SE8 => {
                    let v = r.read(8);
                    words[i] = ((v as i32) << 24 >> 24) as u32;
                    i += 1;
                }
                P_SE16 => {
                    let v = r.read(16);
                    words[i] = ((v as i32) << 16 >> 16) as u32;
                    i += 1;
                }
                P_LOWER_ZERO => {
                    words[i] = r.read(16) << 16;
                    i += 1;
                }
                P_TWO_SE_BYTES => {
                    let v = r.read(16);
                    let hi = ((v >> 8) as u8 as i8) as i16 as u16;
                    let lo = ((v & 0xff) as u8 as i8) as i16 as u16;
                    words[i] = (u32::from(hi) << 16) | u32::from(lo);
                    i += 1;
                }
                P_REPEATED_BYTE => {
                    let b = r.read(8);
                    words[i] = b * 0x0101_0101;
                    i += 1;
                }
                P_RAW => {
                    words[i] = r.read(32);
                    i += 1;
                }
                _ => unreachable!("3-bit prefix"),
            }
        }
        let mut out = [0u8; LINE_BYTES];
        for (chunk, w) in out.chunks_exact_mut(4).zip(words.iter()) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }
}

/// The FPC-compressed byte size of `line`, computed without materializing
/// the bit-stream.
///
/// This is the simulator's hot path: capacity accounting only ever needs
/// sizes, so the kernel sums the per-word bit widths (`classify` plus the
/// zero-run rule) instead of packing payload bits through a `BitWriter`.
/// The contract — enforced by a property test — is exact equality with
/// `FpcLine::compress(line).size()` for every input.
#[must_use]
pub fn fpc_size(line: &LineData) -> usize {
    let words = words_of_line(line);
    let mut bits: u32 = 0;
    let mut i = 0;
    while i < words.len() {
        if words[i] == 0 {
            let mut run = 1;
            while i + run < words.len() && words[i + run] == 0 && run < 8 {
                run += 1;
            }
            bits += PREFIX_BITS + 3; // prefix + 3-bit run length
            i += run;
        } else {
            bits += PREFIX_BITS + classify(words[i]).payload_bits;
            i += 1;
        }
    }
    (bits as usize).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line_from_words;

    fn round_trip(words: [u32; 16]) -> usize {
        let line = line_from_words(&words);
        let c = FpcLine::compress(&line);
        assert_eq!(c.decompress(), line, "round trip failed for {words:x?}");
        c.size()
    }

    #[test]
    fn zero_line_compresses_to_two_runs() {
        // 16 zero words = two runs of 8 = 2 * 6 bits = 12 bits = 2 bytes.
        let size = round_trip([0u32; 16]);
        assert_eq!(size, 2);
    }

    #[test]
    fn small_positive_values_use_se4() {
        let size = round_trip([3u32; 16]);
        // 16 * 7 bits = 112 bits = 14 bytes.
        assert_eq!(size, 14);
    }

    #[test]
    fn small_negative_values_sign_extend() {
        let size = round_trip([(-2i32) as u32; 16]);
        assert_eq!(size, 14);
    }

    #[test]
    fn byte_values_use_se8() {
        let size = round_trip([100u32; 16]);
        // 16 * 11 bits = 176 bits = 22 bytes.
        assert_eq!(size, 22);
    }

    #[test]
    fn halfword_values_use_se16() {
        let size = round_trip([30_000u32; 16]);
        // 16 * 19 = 304 bits = 38 bytes.
        assert_eq!(size, 38);
    }

    #[test]
    fn upper_half_only_words() {
        let size = round_trip([0xabcd_0000u32; 16]);
        assert_eq!(size, 38);
    }

    #[test]
    fn paired_small_bytes_in_halves() {
        let size = round_trip([0x0011_0007u32; 16]);
        // two sign-extended bytes: 19 bits/word.
        assert_eq!(size, 38);
    }

    #[test]
    fn repeated_byte_words() {
        let size = round_trip([0x5a5a_5a5au32; 16]);
        // 11 bits per word.
        assert_eq!(size, 22);
    }

    #[test]
    fn negative_halves_round_trip() {
        round_trip([0x00ff_ff80u32; 16]); // hi = 0x00ff? exercise mixed patterns
        round_trip([0xffff_ff85u32; 16]);
        round_trip([0xff85_0003u32; 16]);
    }

    #[test]
    fn random_words_fall_back_to_raw() {
        let words = [0x1234_5678u32; 16];
        let size = round_trip(words);
        // 16 * 35 bits = 560 bits = 70 bytes — worse than uncompressed, which
        // the hybrid layer handles by storing raw.
        assert_eq!(size, 70);
    }

    #[test]
    fn mixed_content_round_trips() {
        let words = [
            0,
            0,
            0,
            5,
            0xffff_fffe,
            0x7fff,
            0x8000_0000,
            0xabab_abab,
            0x00ff_00ff,
            1,
            0,
            0xdead_beef,
            0x10_0000,
            0xffff_8000,
            0,
            42,
        ];
        round_trip(words);
    }

    #[test]
    fn interleaved_zero_runs() {
        let mut words = [0u32; 16];
        words[5] = 7;
        words[11] = 0x4242_4242;
        let line = line_from_words(&words);
        let c = FpcLine::compress(&line);
        assert_eq!(c.decompress(), line);
        // runs: 5 zeros, value, 5 zeros, value, 4 zeros
        // bits: 6 + 7 + 6 + 11 + 6 = 36 -> 5 bytes
        assert_eq!(c.size(), 5);
    }

    #[test]
    fn size_kernel_matches_bitstream_length() {
        let cases: [[u32; 16]; 6] = [
            [0u32; 16],
            [3u32; 16],
            [0x1234_5678u32; 16],
            [0x5a5a_5a5au32; 16],
            core::array::from_fn(|i| {
                if i % 3 == 0 {
                    0
                } else {
                    0xabcd_0000 + i as u32
                }
            }),
            core::array::from_fn(|i| (i as u32).wrapping_mul(0x9e37_79b9)),
        ];
        for words in cases {
            let line = line_from_words(&words);
            assert_eq!(
                fpc_size(&line),
                FpcLine::compress(&line).size(),
                "size kernel diverged for {words:x?}"
            );
        }
    }

    #[test]
    fn fits_signed_boundaries() {
        assert!(fits_signed(7, 4));
        assert!(!fits_signed(8, 4));
        assert!(fits_signed((-8i32) as u32, 4));
        assert!(!fits_signed((-9i32) as u32, 4));
        assert!(fits_signed(127, 8));
        assert!(!fits_signed(128, 8));
        assert!(fits_signed(0x7fff, 16));
        assert!(!fits_signed(0x8000, 16));
    }
}
