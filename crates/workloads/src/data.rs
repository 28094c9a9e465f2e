//! The per-workload data-value oracle.
//!
//! [`DataModel`] binds a workload's [`ValueProfile`] to concrete bytes and
//! implements `dice-core`'s [`SizeInfo`], so the DRAM-cache controller's
//! capacity accounting runs on *real* FPC+BDI compressed sizes of
//! synthesized data — the actual compression code path, not a size model.
//!
//! Sizes are pure functions of the address, so they are memoized — at
//! *page* granularity: one hash lookup resolves a page's value class plus a
//! flat block of its 64 single-line sizes and 32 pair sizes, filled lazily
//! on first touch. Compared to the previous per-line `HashMap` memos this
//! turns the common case (a line in an already-seen page) into one cheap
//! hash probe plus an array index, with no SipHash and no per-line map
//! entries.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::spec::{WorkloadSpec, LINES_PER_PAGE};
use crate::value::{line_data, PageClass, ValueProfile};
use crate::LineAddr;
use dice_compress::{compressed_size, pair_compressed_size, LineData};
use dice_core::SizeInfo;

/// Saturation value for memoized pair sizes.
///
/// Joint pair sizes can reach 128 B (two raw lines), which still fits a
/// `u8`, but the set format only ever asks "does the pair fit one 72 B
/// TAD?" — any stored value above [`dice_core::SET_BYTES`] (72) means "does
/// not fit" and behaves identically. Saturating at 200 (comfortably above
/// every representable joint size *and* above 72) keeps the stored bytes
/// one code point away from accidental aliasing with real sizes.
pub const PAIR_SIZE_SATURATED: u8 = 200;

/// Sentinel for "size not computed yet" in a page's flat size blocks.
/// Valid single sizes are ≥ 1 (FPC/BDI never emit zero bytes) and valid
/// pair sizes are ≥ 2, so 0 is unreachable as a real size.
const UNFILLED: u8 = 0;

/// Size-memo block for one 4 KB page: the page's value class plus lazily
/// filled single/pair compressed sizes for its 64 lines.
#[derive(Debug, Clone)]
struct PageSizes {
    class: PageClass,
    singles: [u8; LINES_PER_PAGE as usize],
    pairs: [u8; (LINES_PER_PAGE / 2) as usize],
}

/// Multiplicative-mix hasher for page numbers (already well-scrambled by
/// the workload generators' SplitMix page scattering). One multiply per
/// lookup instead of SipHash's full permutation rounds.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback for non-u64 keys (not used by the page map).
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    fn write_u64(&mut self, v: u64) {
        // Fibonacci multiplicative hash; full-width odd constant spreads
        // consecutive page numbers across the table.
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type PageMap = HashMap<u64, PageSizes, BuildHasherDefault<PageHasher>>;

/// Deterministic value model + page-granular memoized compressed sizes for
/// one workload.
#[derive(Debug, Clone)]
pub struct DataModel {
    profile: ValueProfile,
    seed: u64,
    pages: PageMap,
}

impl DataModel {
    /// Builds the oracle for `spec` with the given value seed.
    #[must_use]
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        Self::from_profile(spec.values, seed)
    }

    /// Builds the oracle directly from a profile (used by mixes, where each
    /// core has its own workload but one oracle serves the whole machine —
    /// addresses disambiguate because cores occupy disjoint regions).
    #[must_use]
    pub fn from_profile(profile: ValueProfile, seed: u64) -> Self {
        Self {
            profile,
            seed,
            pages: PageMap::default(),
        }
    }

    /// The 64 bytes currently at `line`.
    #[must_use]
    pub fn line_data(&self, line: LineAddr) -> LineData {
        let class = self.profile.class_of(self.seed, line / LINES_PER_PAGE);
        line_data(self.seed, class, line)
    }

    /// Number of memoized single-line sizes (introspection for tests).
    #[must_use]
    pub fn cached_sizes(&self) -> usize {
        self.pages
            .values()
            .map(|p| p.singles.iter().filter(|&&s| s != UNFILLED).count())
            .sum()
    }

    /// Number of pages with a resident size block (introspection for tests).
    #[must_use]
    pub fn cached_pages(&self) -> usize {
        self.pages.len()
    }

    /// The page's memo block, created (with its class resolved once) on
    /// first touch.
    fn page_entry(&mut self, page: u64) -> &mut PageSizes {
        let (profile, seed) = (self.profile, self.seed);
        self.pages.entry(page).or_insert_with(|| PageSizes {
            class: profile.class_of(seed, page),
            singles: [UNFILLED; LINES_PER_PAGE as usize],
            pairs: [UNFILLED; (LINES_PER_PAGE / 2) as usize],
        })
    }
}

impl SizeInfo for DataModel {
    fn single_size(&mut self, line: LineAddr) -> u32 {
        let seed = self.seed;
        let entry = self.page_entry(line / LINES_PER_PAGE);
        let slot = (line % LINES_PER_PAGE) as usize;
        let mut s = entry.singles[slot];
        if s == UNFILLED {
            s = compressed_size(&line_data(seed, entry.class, line)) as u8;
            entry.singles[slot] = s;
        }
        u32::from(s)
    }

    fn pair_size(&mut self, even_line: LineAddr) -> u32 {
        let even_line = even_line & !1;
        let seed = self.seed;
        // Both pair members live in the same (64-line-aligned) page.
        let entry = self.page_entry(even_line / LINES_PER_PAGE);
        let slot = ((even_line % LINES_PER_PAGE) / 2) as usize;
        let mut s = entry.pairs[slot];
        if s == UNFILLED {
            let joint = pair_compressed_size(
                &line_data(seed, entry.class, even_line),
                &line_data(seed, entry.class, even_line | 1),
            );
            s = joint.min(usize::from(PAIR_SIZE_SATURATED)) as u8;
            entry.pairs[slot] = s;
        }
        u32::from(s)
    }
}

/// A multi-region oracle for mixed workloads: region `r` (core `r`) uses
/// profile `profiles[r]`.
#[derive(Debug, Clone)]
pub struct MixDataModel {
    models: Vec<DataModel>,
    region_shift: u32,
}

impl MixDataModel {
    /// One profile per core region. The region of a line is
    /// `line / CORE_REGION_LINES`, i.e. `line >> region_shift` with the
    /// shift derived from `trace::CORE_REGION_LINES` — the single
    /// source of truth for the per-core address-space stride.
    #[must_use]
    pub fn new(profiles: Vec<ValueProfile>, seed: u64) -> Self {
        let models = profiles
            .into_iter()
            .map(|p| DataModel::from_profile(p, seed))
            .collect();
        Self {
            models,
            region_shift: crate::trace::CORE_REGION_LINES.trailing_zeros(),
        }
    }

    fn model_mut(&mut self, line: LineAddr) -> &mut DataModel {
        let r = (line >> self.region_shift) as usize;
        let n = self.models.len();
        &mut self.models[r.min(n - 1)]
    }
}

impl SizeInfo for MixDataModel {
    fn single_size(&mut self, line: LineAddr) -> u32 {
        self.model_mut(line).single_size(line)
    }

    fn pair_size(&mut self, even_line: LineAddr) -> u32 {
        self.model_mut(even_line).pair_size(even_line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec_table;
    use crate::trace::CORE_REGION_LINES;

    fn spec(name: &str) -> WorkloadSpec {
        spec_table().into_iter().find(|w| w.name == name).unwrap()
    }

    #[test]
    fn sizes_are_memoized_and_stable() {
        let mut m = DataModel::new(&spec("gcc"), 5);
        let a = m.single_size(1234);
        assert_eq!(m.cached_sizes(), 1);
        assert_eq!(m.single_size(1234), a);
        assert_eq!(m.cached_sizes(), 1);
        assert_eq!(m.cached_pages(), 1);
    }

    #[test]
    fn lines_of_one_page_share_one_memo_block() {
        let mut m = DataModel::new(&spec("gcc"), 5);
        for line in 0..LINES_PER_PAGE {
            m.single_size(line);
            m.pair_size(line);
        }
        assert_eq!(m.cached_pages(), 1, "one page block serves 64 lines");
        assert_eq!(m.cached_sizes(), LINES_PER_PAGE as usize);
    }

    #[test]
    fn pair_size_normalizes_odd_addresses() {
        let mut m = DataModel::new(&spec("gcc"), 5);
        assert_eq!(m.pair_size(100), m.pair_size(101));
    }

    #[test]
    fn pair_size_saturates_below_the_sentinel_ceiling() {
        // The worst joint size is two raw lines = 128 B; stored values must
        // normalize odd/even the same way and never exceed the saturation
        // constant. Anything above 72 B (one TAD) means "does not fit".
        let mut m = DataModel::from_profile(ValueProfile::incompressible(), 5);
        for even in (0..200u64).step_by(2) {
            let p = m.pair_size(even);
            assert_eq!(p, m.pair_size(even + 1), "odd address must normalize");
            assert!(p <= u32::from(PAIR_SIZE_SATURATED));
        }
        // An incompressible pair cannot fit one TAD.
        assert!(m.pair_size(0) > 72);
    }

    #[test]
    fn sizes_match_direct_compression() {
        let mut m = DataModel::new(&spec("soplex"), 5);
        for line in (0..2000u64).step_by(37) {
            let direct = compressed_size(&m.line_data(line)) as u32;
            assert_eq!(m.single_size(line), direct, "line {line}");
        }
    }

    #[test]
    fn incompressible_workload_yields_big_sizes() {
        let mut lbm = DataModel::new(&spec("lbm"), 5);
        let big = (0..500u64)
            .filter(|&l| lbm.single_size(l * 64) > 36)
            .count();
        assert!(
            big > 350,
            "lbm should be mostly incompressible, got {big}/500 big"
        );
    }

    #[test]
    fn compressible_workload_yields_small_sizes() {
        let mut gap = DataModel::new(&spec("cc_twi"), 5);
        let small = (0..500u64)
            .filter(|&l| gap.single_size(l * 64) <= 36)
            .count();
        assert!(
            small > 350,
            "cc_twi should be mostly compressible, got {small}/500 small"
        );
    }

    #[test]
    fn mix_model_routes_by_region() {
        let zeros = ValueProfile {
            zero: 1,
            small_int: 0,
            strided: 0,
            pointer: 0,
            half16: 0,
            loose16: 0,
            float: 0,
            random: 0,
        };
        let mut m = MixDataModel::new(vec![zeros, ValueProfile::incompressible()], 1);
        assert_eq!(m.single_size(5), 1, "region 0 is all zeros");
        assert_eq!(
            m.single_size(CORE_REGION_LINES + 5),
            64,
            "region 1 is incompressible"
        );
    }

    #[test]
    fn region_boundary_routes_to_next_model() {
        let zeros = ValueProfile {
            zero: 1,
            small_int: 0,
            strided: 0,
            pointer: 0,
            half16: 0,
            loose16: 0,
            float: 0,
            random: 0,
        };
        let mut m = MixDataModel::new(vec![zeros, ValueProfile::incompressible()], 1);
        // The last line of region 0 uses model 0; one line later (the first
        // line of region 1) must route to model 1 — the shift is derived
        // from CORE_REGION_LINES, not an independent constant.
        assert_eq!(m.single_size(CORE_REGION_LINES - 1), 1);
        assert_eq!(m.single_size(CORE_REGION_LINES), 64);
    }
}
