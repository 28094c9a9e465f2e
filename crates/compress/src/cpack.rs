//! C-PACK: dictionary-based cache-line compression (Chen, Yang, Dick,
//! Shang & Lekatsas, TVLSI 2010).
//!
//! The DICE paper evaluates with FPC+BDI but notes (§7.1) that the design
//! "can be used in conjunction with any data compression scheme, including
//! ones that employ dictionary-based compression [C-PACK]". This module
//! provides that option: a faithful C-PACK codec over 32-bit words with a
//! 16-entry FIFO dictionary and the original pattern set:
//!
//! | code   | pattern                          | bits |
//! |--------|----------------------------------|------|
//! | `00`   | zero word                        | 2    |
//! | `01`   | uncompressed word                | 34   |
//! | `10`   | full dictionary match            | 6    |
//! | `1100` | match except the low byte        | 16   |
//! | `1101` | only the low byte is non-zero    | 12   |
//! | `1110` | match except the low two bytes   | 24   |
//!
//! Words that are not zero and not full matches are pushed into the FIFO
//! dictionary, so later words can match earlier ones — the cross-word
//! redundancy FPC and BDI cannot see.

use crate::bits::{BitReader, BitWriter};
use crate::{words_of_line, LineData, LINE_BYTES};

const DICT_WORDS: usize = 16;

const C_ZERO: u32 = 0b00;
const C_RAW: u32 = 0b01;
const C_FULL_MATCH: u32 = 0b10;
const C_MATCH_HI3: u32 = 0b1100;
const C_LOW_BYTE: u32 = 0b1101;
const C_MATCH_HI2: u32 = 0b1110;

/// FIFO dictionary shared by the encoder and decoder.
#[derive(Debug, Clone, Default)]
struct Dict {
    entries: Vec<u32>,
    next: usize,
}

impl Dict {
    fn push(&mut self, word: u32) {
        if self.entries.len() < DICT_WORDS {
            self.entries.push(word);
        } else {
            self.entries[self.next] = word;
            self.next = (self.next + 1) % DICT_WORDS;
        }
    }

    fn find_full(&self, word: u32) -> Option<usize> {
        self.entries.iter().position(|&e| e == word)
    }

    fn find_hi3(&self, word: u32) -> Option<usize> {
        self.entries.iter().position(|&e| e >> 8 == word >> 8)
    }

    fn find_hi2(&self, word: u32) -> Option<usize> {
        self.entries.iter().position(|&e| e >> 16 == word >> 16)
    }

    fn get(&self, idx: usize) -> u32 {
        self.entries[idx]
    }
}

/// A C-PACK-compressed 64-byte line.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CpackLine {
    bytes: Vec<u8>,
}

impl CpackLine {
    /// Compresses `line`. Like FPC, the worst case (all raw words) exceeds
    /// the raw line; callers fall back to uncompressed storage above
    /// [`LINE_BYTES`].
    #[must_use]
    pub fn compress(line: &LineData) -> Self {
        let mut dict = Dict::default();
        let mut w = BitWriter::new();
        for word in words_of_line(line) {
            if word == 0 {
                w.write(C_ZERO, 2);
            } else if let Some(i) = dict.find_full(word) {
                w.write(C_FULL_MATCH, 2);
                w.write(i as u32, 4);
            } else if word & !0xff == 0 {
                w.write(C_LOW_BYTE, 4);
                w.write(word, 8);
            } else if let Some(i) = dict.find_hi3(word) {
                w.write(C_MATCH_HI3, 4);
                w.write(i as u32, 4);
                w.write(word & 0xff, 8);
                dict.push(word);
            } else if let Some(i) = dict.find_hi2(word) {
                w.write(C_MATCH_HI2, 4);
                w.write(i as u32, 4);
                w.write(word & 0xffff, 16);
                dict.push(word);
            } else {
                w.write(C_RAW, 2);
                w.write(word, 32);
                dict.push(word);
            }
        }
        Self {
            bytes: w.into_bytes(),
        }
    }

    /// Compressed size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Reconstructs the original line.
    #[must_use]
    pub fn decompress(&self) -> LineData {
        let mut dict = Dict::default();
        let mut r = BitReader::new(&self.bytes);
        let mut words = [0u32; 16];
        for word in &mut words {
            let hi = r.read(2);
            *word = match hi {
                x if x == C_ZERO => 0,
                x if x == C_RAW => {
                    let v = r.read(32);
                    dict.push(v);
                    v
                }
                x if x == C_FULL_MATCH => {
                    let i = r.read(4) as usize;
                    dict.get(i)
                }
                _ => {
                    // Extended 4-bit code: read the low half.
                    let code = (hi << 2) | r.read(2);
                    match code {
                        x if x == C_LOW_BYTE => r.read(8),
                        x if x == C_MATCH_HI3 => {
                            let i = r.read(4) as usize;
                            let b = r.read(8);
                            let v = (dict.get(i) & !0xff) | b;
                            dict.push(v);
                            v
                        }
                        x if x == C_MATCH_HI2 => {
                            let i = r.read(4) as usize;
                            let h = r.read(16);
                            let v = (dict.get(i) & !0xffff) | h;
                            dict.push(v);
                            v
                        }
                        other => unreachable!("invalid C-PACK code {other:04b}"),
                    }
                }
            };
        }
        let mut out = [0u8; LINE_BYTES];
        for (chunk, w) in out.chunks_exact_mut(4).zip(words.iter()) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }
}

/// Convenience: the C-PACK compressed byte size of `line`.
#[must_use]
pub fn cpack_size(line: &LineData) -> usize {
    CpackLine::compress(line).size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{line_from_words, zero_line};

    fn round_trip(words: [u32; 16]) -> usize {
        let line = line_from_words(&words);
        let c = CpackLine::compress(&line);
        assert_eq!(c.decompress(), line, "round trip failed for {words:x?}");
        c.size()
    }

    #[test]
    fn zero_line_is_four_bytes() {
        // 16 × 2 bits = 32 bits.
        let line = zero_line();
        let c = CpackLine::compress(&line);
        assert_eq!(c.size(), 4);
        assert_eq!(c.decompress(), line);
    }

    #[test]
    fn repeated_words_hit_the_dictionary() {
        // First word raw (34 bits), the other 15 full matches (6 bits each):
        // 124 bits = 16 bytes.
        let size = round_trip([0xdead_beef; 16]);
        assert_eq!(size, 16);
    }

    #[test]
    fn low_byte_words_use_short_code() {
        // 16 × 12 bits = 192 bits = 24 bytes.
        let size = round_trip([0x42; 16]);
        assert_eq!(size, 24);
    }

    #[test]
    fn near_matches_share_high_bytes() {
        // Pointers into one region: word i = base | i → raw + hi3 matches.
        let words: [u32; 16] = core::array::from_fn(|i| 0x7f00_1200 + i as u32);
        let size = round_trip(words);
        // 34 + 15 × 16 = 274 bits = 35 bytes (beats FPC's raw 70 here).
        assert_eq!(size, 35);
    }

    #[test]
    fn random_words_fall_back_to_raw() {
        let words: [u32; 16] =
            core::array::from_fn(|i| (i as u32).wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995);
        let size = round_trip(words);
        assert!(size >= 64, "random data should not compress, got {size}");
    }

    #[test]
    fn mixed_content_round_trips() {
        round_trip([
            0,
            1,
            0xdead_beef,
            0xdead_beef,
            0xdead_be00,
            0x77,
            0,
            0x1234_5678,
            0x1234_0000,
            0xffff_ffff,
            0xffff_fffe,
            0,
            0x80,
            0xdead_beef,
            5,
            0,
        ]);
    }

    #[test]
    fn dictionary_wraps_after_16_inserts() {
        // 20 distinct raw words force FIFO eviction; later references to
        // early words must NOT match stale indices.
        let words: [u32; 16] = core::array::from_fn(|i| 0x0101_0000 + (i as u32) * 0x10101);
        round_trip(words);
    }

    #[test]
    fn captures_cross_word_redundancy_bdi_misses() {
        // Three far-apart values cycling with period 3: no repeated 64-bit
        // value (Rep8 fails), no shared base (BDI fails), raw words for
        // FPC — but C-PACK's dictionary catches every repetition.
        let vals = [0x4000_0001u32, 0x9000_0007, 0x6abc_0d03];
        let words: [u32; 16] = core::array::from_fn(|i| vals[i % 3]);
        let line = line_from_words(&words);
        let cpack = cpack_size(&line);
        let hybrid = crate::compressed_size(&line);
        // 3 raw (34 bits) + 13 full matches (6 bits) = 180 bits = 23 B.
        assert_eq!(cpack, 23, "cpack should exploit repetition");
        assert!(
            cpack < hybrid,
            "cpack {cpack} should beat FPC+BDI {hybrid} here"
        );
    }
}
