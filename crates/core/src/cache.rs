//! The DRAM-cache controller: Alloy baseline, statically indexed compressed
//! variants, DICE, the KNL tag variant and the SCC baseline (§4–§5, §6.6,
//! §7.3).
//!
//! The controller is *functional*: it tracks set contents and, for every
//! operation, reports the physical set probes the operation performs. The
//! system simulator (`dice-sim`) executes those probes against the DRAM
//! timing model; unit tests here assert on contents and probe counts
//! directly.

use crate::audit::{first_duplicate, InvariantKind, InvariantViolation};
use crate::cip::CachePredictor;
use crate::cset::{CompressedSet, Evicted, SetMode, SizeInfo, MAX_LINES_PER_SET, SET_BYTES};
use crate::diag::DecisionDiag;
use crate::indexing::{IndexScheme, Indexer, SetIndex};
use crate::inline_vec::InlineVec;
use crate::mapi::HitPredictor;
use crate::stats::L4Stats;
use crate::LineAddr;

/// How the DRAM cache is organized and indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Organization {
    /// Baseline Alloy Cache: direct-mapped, uncompressed, TSI.
    UncompressedAlloy,
    /// Compressed, statically TSI-indexed (capacity only — Fig 7 "TSI").
    CompressedTsi,
    /// Compressed, naive spatial indexing (§4.5's strawman).
    CompressedNsi,
    /// Compressed, statically BAI-indexed (Fig 7 "BAI").
    CompressedBai,
    /// Dynamic-Indexing Cache Compression: BAI when the line compresses to
    /// `threshold` bytes or fewer, TSI otherwise (§5).
    Dice {
        /// Insertion threshold in bytes (the paper's default is 36).
        threshold: u32,
    },
    /// Skewed Compressed Cache mapped onto DRAM (§7.3): compression like
    /// TSI, but every request pays three skewed tag probes plus a data
    /// probe.
    Scc,
}

/// Whether the stacked DRAM delivers the neighboring set's tag with each
/// TAD transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TagVariant {
    /// Alloy layout: 80 B bursts carry the neighbor tag, so the alternate
    /// index can be ruled out without a second access (§5.1).
    #[default]
    Alloy,
    /// Knights-Landing layout: tags ride the ECC lanes, 72 B over four
    /// bursts, no neighbor tag — misses on non-invariant lines must check
    /// both locations (§6.6).
    Knl,
}

/// Static configuration of the DRAM-cache controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCacheConfig {
    /// Nominal (uncompressed) capacity in bytes; sets = capacity / 64.
    pub capacity_bytes: u64,
    /// Cache organization / index policy.
    pub organization: Organization,
    /// Neighbor-tag availability.
    pub tag_variant: TagVariant,
    /// CIP last-time-table entries (paper default 2048).
    pub ltt_entries: usize,
    /// MAP-I predictor entries.
    pub mapi_entries: usize,
    /// Sets per 2 KB DRAM row (28 in the Alloy layout).
    pub sets_per_row: u64,
}

impl DramCacheConfig {
    /// A cache of `capacity_bytes` (power-of-two line count required).
    #[must_use]
    pub fn with_capacity(organization: Organization, capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            organization,
            tag_variant: TagVariant::Alloy,
            ltt_entries: 2048,
            mapi_entries: 4096,
            sets_per_row: 28,
        }
    }

    /// Bytes transferred per set read (TAD plus neighbor tag under Alloy).
    #[must_use]
    pub fn read_bytes(&self) -> u32 {
        match self.tag_variant {
            TagVariant::Alloy => 80,
            TagVariant::Knl => 72,
        }
    }

    /// Bytes transferred per set write.
    #[must_use]
    pub fn write_bytes(&self) -> u32 {
        72
    }
}

/// One physical access to the DRAM-cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Probe {
    /// The set accessed.
    pub set: SetIndex,
    /// True for writes, false for reads.
    pub write: bool,
    /// Bytes transferred on the stacked-DRAM bus.
    pub bytes: u32,
}

/// Probe sequence of one operation. Worst case is four probes (SCC hit:
/// three tag lookups plus data), so the buffer never spills to the heap.
pub type ProbeList = InlineVec<Probe, 4>;

/// Free pair-partner lines delivered with a hit. At most one partner per
/// aligned pair; two slots leave headroom without leaving the stack.
pub type FreeLineList = InlineVec<LineAddr, 2>;

/// Dirty victims of one insertion. A set holds at most
/// [`MAX_LINES_PER_SET`] lines, bounding evictions per operation.
pub type WritebackList = InlineVec<LineAddr, MAX_LINES_PER_SET>;

/// Result of a demand read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Whether the line was found (in either candidate location).
    pub hit: bool,
    /// Physical accesses performed, in order.
    pub probes: ProbeList,
    /// Adjacent lines delivered free with the hit (pair partners resident
    /// in the same set) — candidates for L3 installation.
    pub free_lines: FreeLineList,
    /// MAP-I's prediction for this access (made before probing); the
    /// simulator overlaps the memory access when this is `false`.
    pub predicted_hit: bool,
}

/// Result of a fill or writeback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Physical accesses performed, in order.
    pub probes: ProbeList,
    /// Dirty victims that must be written to main memory.
    pub memory_writebacks: WritebackList,
}

/// A one-element probe list (the common single-access case).
fn one_probe(set: SetIndex, write: bool, bytes: u32) -> ProbeList {
    let mut probes = ProbeList::new();
    probes.push(Probe { set, write, bytes });
    probes
}

/// Total stacked-DRAM bus bytes of one operation's probe sequence.
fn probe_bytes(probes: &ProbeList) -> u64 {
    probes.iter().map(|p| u64::from(p.bytes)).sum()
}

/// The DRAM-cache controller.
///
/// # Example
///
/// ```
/// use dice_core::{DramCacheConfig, DramCacheController, Organization, SizeInfo};
///
/// struct Fixed(u32);
/// impl SizeInfo for Fixed {
///     fn single_size(&mut self, _: u64) -> u32 { self.0 }
///     fn pair_size(&mut self, _: u64) -> u32 { 2 * self.0 - 4 }
/// }
///
/// let cfg = DramCacheConfig::with_capacity(Organization::Dice { threshold: 36 }, 1 << 20);
/// let mut l4 = DramCacheController::new(cfg);
/// let mut sizes = Fixed(30);
/// assert!(!l4.read(42).hit);
/// l4.fill(42, false, None, &mut sizes);
/// assert!(l4.read(42).hit);
/// ```
#[derive(Debug, Clone)]
pub struct DramCacheController {
    cfg: DramCacheConfig,
    ix: Indexer,
    sets: Vec<CompressedSet>,
    cip: CachePredictor,
    mapi: HitPredictor,
    stamp: u64,
    stats: L4Stats,
    /// Decision diagnostics: confusion matrices, hit attribution and
    /// bandwidth-bloat accounting. Plain counters, updated unconditionally
    /// (see `diag.rs` for why this never allocates).
    diag: DecisionDiag,
    /// Reusable eviction buffer: after warmup its capacity covers any
    /// insertion, so steady-state fills and writebacks never allocate.
    evict_scratch: Vec<Evicted>,
}

impl DramCacheController {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes / 64` is not a power of two ≥ 4.
    #[must_use]
    pub fn new(cfg: DramCacheConfig) -> Self {
        let sets = cfg.capacity_bytes / 64;
        Self {
            ix: Indexer::new(sets),
            sets: vec![CompressedSet::default(); sets as usize],
            cip: CachePredictor::new(cfg.ltt_entries),
            mapi: HitPredictor::new(cfg.mapi_entries),
            stamp: 0,
            stats: L4Stats::default(),
            diag: DecisionDiag::default(),
            evict_scratch: Vec::with_capacity(MAX_LINES_PER_SET),
            cfg,
        }
    }

    /// The configuration this controller was built with.
    #[must_use]
    pub fn config(&self) -> &DramCacheConfig {
        &self.cfg
    }

    /// Number of sets (== baseline line capacity).
    #[must_use]
    pub fn num_sets(&self) -> u64 {
        self.ix.sets()
    }

    /// DRAM row holding `set` (consecutive sets share 2 KB rows).
    #[must_use]
    pub fn row_of(&self, set: SetIndex) -> u64 {
        set / self.cfg.sets_per_row
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &L4Stats {
        &self.stats
    }

    /// Read-index predictor accuracy so far (§5.3's ~94%).
    #[must_use]
    pub fn cip_accuracy(&self) -> f64 {
        self.cip.accuracy()
    }

    /// Number of scored CIP predictions.
    #[must_use]
    pub fn cip_predictions(&self) -> u64 {
        self.cip.predictions()
    }

    /// Number of correct scored CIP predictions.
    #[must_use]
    pub fn cip_correct(&self) -> u64 {
        self.cip.correct()
    }

    /// Decision diagnostics accumulated so far (confusion matrices, hit
    /// attribution, bandwidth-bloat split).
    #[must_use]
    pub fn diagnostics(&self) -> &DecisionDiag {
        &self.diag
    }

    /// MAP-I hit-predictor accuracy so far.
    #[must_use]
    pub fn mapi_accuracy(&self) -> f64 {
        self.mapi.accuracy()
    }

    /// MAP-I's current hit prediction for `line`, without issuing an access
    /// or updating any state. Prefetchers use this to throttle: a prefetch
    /// that would miss the L4 costs scarce DDR bandwidth and is dropped.
    #[must_use]
    pub fn predicts_hit(&self, line: LineAddr) -> bool {
        self.mapi.predict_hit(line)
    }

    /// Total lines currently resident (Table 5's effective capacity,
    /// normalized by [`num_sets`](Self::num_sets)).
    #[must_use]
    pub fn valid_lines(&self) -> u64 {
        self.sets.iter().map(|s| s.len() as u64).sum()
    }

    /// Number of sets holding at least one line. `valid_lines /
    /// occupied_sets` estimates steady-state packing density even before a
    /// (simulation-scaled) run has touched every set.
    #[must_use]
    pub fn occupied_sets(&self) -> u64 {
        self.sets.iter().filter(|s| !s.is_empty()).count() as u64
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    fn set_mode(&self) -> SetMode {
        match self.cfg.organization {
            Organization::UncompressedAlloy => SetMode::Uncompressed,
            _ => SetMode::Compressed,
        }
    }

    /// The single home set for statically indexed organizations.
    fn static_set(&self, line: LineAddr) -> Option<SetIndex> {
        match self.cfg.organization {
            Organization::UncompressedAlloy | Organization::CompressedTsi | Organization::Scc => {
                Some(self.ix.tsi(line))
            }
            Organization::CompressedNsi => Some(self.ix.nsi(line)),
            Organization::CompressedBai => Some(self.ix.bai(line)),
            Organization::Dice { .. } => None,
        }
    }

    /// Free pair partner resident in `set` alongside a hit on `line`.
    ///
    /// Delivering the partner also refreshes its recency: the line was just
    /// sent to the L3, so it is as live as the demand line, and leaving it
    /// LRU-stale would evict exactly the hottest spatial data (its later
    /// accesses are absorbed by the L3 and never touch the L4 again).
    fn partner_in(&mut self, set: SetIndex, line: LineAddr, stamp: u64) -> Option<LineAddr> {
        let partner = Indexer::pair_partner(line);
        self.sets[set as usize]
            .touch(partner, stamp, false)
            .map(|_| partner)
    }

    /// Services a demand read for `line`.
    pub fn read(&mut self, line: LineAddr) -> ReadOutcome {
        self.stats.reads += 1;
        let predicted_hit = self.mapi.predict_hit(line);
        let stamp = self.next_stamp();
        let rb = self.cfg.read_bytes();

        let outcome = match self.cfg.organization {
            Organization::Scc => self.read_scc(line, stamp, predicted_hit),
            Organization::Dice { .. } => self.read_dice(line, stamp, predicted_hit, rb),
            _ => {
                let set = self.static_set(line).expect("static organization");
                let hit = self.sets[set as usize].touch(line, stamp, false).is_some();
                let free_lines = if hit && self.set_mode() == SetMode::Compressed {
                    self.partner_in(set, line, stamp).into_iter().collect()
                } else {
                    FreeLineList::new()
                };
                ReadOutcome {
                    hit,
                    probes: one_probe(set, false, rb),
                    free_lines,
                    predicted_hit,
                }
            }
        };

        if outcome.hit {
            self.stats.read_hits += 1;
            self.diag.bytes_needed += 64;
        } else {
            self.diag.read_misses += 1;
        }
        self.diag.bytes_moved += probe_bytes(&outcome.probes);
        self.stats.free_lines += outcome.free_lines.len() as u64;
        self.mapi.update(line, outcome.hit);
        outcome
    }

    fn read_dice(
        &mut self,
        line: LineAddr,
        stamp: u64,
        predicted_hit: bool,
        rb: u32,
    ) -> ReadOutcome {
        if self.ix.invariant(line) {
            // TSI == BAI: one location, no prediction involved.
            let set = self.ix.tsi(line);
            let hit = self.sets[set as usize].touch(line, stamp, false).is_some();
            if hit {
                self.diag.hits_invariant += 1;
            }
            let free_lines = if hit {
                self.partner_in(set, line, stamp).into_iter().collect()
            } else {
                FreeLineList::new()
            };
            return ReadOutcome {
                hit,
                probes: one_probe(set, false, rb),
                free_lines,
                predicted_hit,
            };
        }

        let pred_scheme = self.cip.predict(line);
        let s_pred = self.ix.index(line, pred_scheme);
        let s_alt = self.ix.index(line, pred_scheme.other());
        debug_assert_eq!(s_alt, s_pred ^ 1, "BAI/TSI candidates are LSB-adjacent");
        let mut probes = one_probe(s_pred, false, rb);

        if self.sets[s_pred as usize]
            .touch(line, stamp, false)
            .is_some()
        {
            self.cip.update(line, pred_scheme);
            self.diag.record_read(pred_scheme, pred_scheme);
            self.diag.record_hit(pred_scheme);
            let free_lines = self.partner_in(s_pred, line, stamp).into_iter().collect();
            return ReadOutcome {
                hit: true,
                probes,
                free_lines,
                predicted_hit,
            };
        }

        let in_alt = self.sets[s_alt as usize].get(line).is_some();
        let (hit, hit_set) = match self.cfg.tag_variant {
            TagVariant::Alloy => {
                // The neighbor tag came with the first probe: a second
                // access is issued only when the line is actually there.
                if in_alt {
                    probes.push(Probe {
                        set: s_alt,
                        write: false,
                        bytes: rb,
                    });
                    self.stats.second_probes += 1;
                    self.diag.second_probe_reads += 1;
                    self.diag.bloat_second_probe_bytes += u64::from(rb);
                    (true, Some(s_alt))
                } else {
                    (false, None)
                }
            }
            TagVariant::Knl => {
                // No neighbor tag: both locations must be checked before
                // declaring a miss (§6.6).
                probes.push(Probe {
                    set: s_alt,
                    write: false,
                    bytes: rb,
                });
                self.stats.second_probes += 1;
                self.diag.second_probe_reads += 1;
                self.diag.bloat_second_probe_bytes += u64::from(rb);
                if in_alt {
                    (true, Some(s_alt))
                } else {
                    (false, None)
                }
            }
        };

        let free_lines = match hit_set {
            Some(s) => {
                self.sets[s as usize].touch(line, stamp, false);
                self.cip.update(line, pred_scheme.other());
                self.diag.record_read(pred_scheme, pred_scheme.other());
                self.diag.record_hit(pred_scheme.other());
                self.partner_in(s, line, stamp).into_iter().collect()
            }
            None => FreeLineList::new(),
        };
        ReadOutcome {
            hit,
            probes,
            free_lines,
            predicted_hit,
        }
    }

    fn read_scc(&mut self, line: LineAddr, stamp: u64, predicted_hit: bool) -> ReadOutcome {
        // Three skewed tag lookups land in three different rows; a hit pays
        // a fourth access for the data (§7.3: "Each request in SCC incurs
        // four accesses to DRAM cache, 3 for tags and one for data").
        let home = self.ix.tsi(line);
        let mask = self.ix.sets() - 1;
        let skew1 = line.wrapping_mul(0x9e37_79b9).rotate_left(13) & mask;
        let skew2 = line.wrapping_mul(0x85eb_ca6b).rotate_left(29) & mask;
        // Tag lookups transfer only the tag region of each candidate set
        // (one 16 B burst); the data access moves the full TAD.
        let tag_bytes = 16;
        let mut probes = ProbeList::new();
        for set in [home, skew1, skew2] {
            probes.push(Probe {
                set,
                write: false,
                bytes: tag_bytes,
            });
        }
        let hit = self.sets[home as usize].touch(line, stamp, false).is_some();
        if hit {
            probes.push(Probe {
                set: home,
                write: false,
                bytes: self.cfg.read_bytes(),
            });
        }
        ReadOutcome {
            hit,
            probes,
            free_lines: FreeLineList::new(),
            predicted_hit,
        }
    }

    /// Decides the install scheme and set for `line` (§5.2: compressed size
    /// at or below the threshold ⇒ BAI, else TSI).
    fn install_target(
        &mut self,
        line: LineAddr,
        info: &mut dyn SizeInfo,
    ) -> (IndexScheme, SetIndex, bool) {
        match self.cfg.organization {
            Organization::Dice { threshold } => {
                if self.ix.invariant(line) {
                    (IndexScheme::Tsi, self.ix.tsi(line), true)
                } else if info.single_size(line) <= threshold {
                    (IndexScheme::Bai, self.ix.bai(line), false)
                } else {
                    (IndexScheme::Tsi, self.ix.tsi(line), false)
                }
            }
            _ => {
                let set = self.static_set(line).expect("static organization");
                (IndexScheme::Tsi, set, self.ix.invariant(line))
            }
        }
    }

    fn record_install(&mut self, scheme: IndexScheme, invariant: bool) {
        if invariant {
            self.stats.installs_invariant += 1;
        } else {
            match scheme {
                IndexScheme::Tsi => self.stats.installs_tsi += 1,
                IndexScheme::Bai => self.stats.installs_bai += 1,
            }
        }
    }

    /// Inserts `line` into `set` through the reusable eviction scratch
    /// buffer and returns the dirty victims needing memory writebacks.
    fn install(
        &mut self,
        set: SetIndex,
        line: LineAddr,
        dirty: bool,
        scheme: IndexScheme,
        mode: SetMode,
        info: &mut dyn SizeInfo,
    ) -> WritebackList {
        let stamp = self.next_stamp();
        self.sets[set as usize].insert_into(
            line,
            dirty,
            scheme,
            stamp,
            mode,
            info,
            &mut self.evict_scratch,
        );
        let memory_writebacks: WritebackList = self
            .evict_scratch
            .iter()
            .filter(|e| e.dirty)
            .map(|e| e.line)
            .collect();
        self.stats.memory_writebacks += memory_writebacks.len() as u64;
        memory_writebacks
    }

    /// Installs `line` after a memory fetch. `probed` is the set already
    /// read on the miss path, if any — installing there needs no second
    /// read-modify-write read.
    pub fn fill(
        &mut self,
        line: LineAddr,
        dirty: bool,
        probed: Option<SetIndex>,
        info: &mut dyn SizeInfo,
    ) -> WriteOutcome {
        self.stats.fills += 1;
        let (scheme, set, invariant) = self.install_target(line, info);
        self.record_install(scheme, invariant);
        if let (Organization::Dice { .. }, false) = (self.cfg.organization, invariant) {
            // Score the LTT against the size-based install decision before
            // training overwrites it: this is the fill-time confusion
            // matrix, so its total is exactly the CIP-consulted fills.
            self.diag.record_fill(self.cip.predict(line), scheme);
            self.cip.train(line, scheme);
        }

        let mut probes = ProbeList::new();
        let needs_rmw = self.set_mode() == SetMode::Compressed && probed != Some(set);
        if needs_rmw {
            probes.push(Probe {
                set,
                write: false,
                bytes: self.cfg.read_bytes(),
            });
            self.diag.bloat_rmw_bytes += u64::from(self.cfg.read_bytes());
        }
        probes.push(Probe {
            set,
            write: true,
            bytes: self.cfg.write_bytes(),
        });
        self.diag.bytes_moved += probe_bytes(&probes);
        self.diag.bytes_needed += 64;

        let mode = self.set_mode();
        let memory_writebacks = self.install(set, line, dirty, scheme, mode, info);
        WriteOutcome {
            probes,
            memory_writebacks,
        }
    }

    /// Handles a dirty writeback arriving from the L3.
    ///
    /// Under DICE the write location is predicted from the line's own
    /// compressed size (the insertion rule, ~95% accurate per §5.3); a
    /// wrong guess costs an extra probe of the adjacent set.
    pub fn writeback(&mut self, line: LineAddr, info: &mut dyn SizeInfo) -> WriteOutcome {
        self.stats.writebacks += 1;
        let rb = self.cfg.read_bytes();
        let wbts = self.cfg.write_bytes();

        let is_dice = matches!(self.cfg.organization, Organization::Dice { .. });
        if !is_dice || self.ix.invariant(line) {
            // One candidate location: read-modify-write it.
            let (scheme, set, invariant) = self.install_target(line, info);
            self.record_install(scheme, invariant);
            let mut probes = one_probe(set, false, rb);
            probes.push(Probe {
                set,
                write: true,
                bytes: wbts,
            });
            self.diag.bloat_rmw_bytes += u64::from(rb);
            self.diag.bytes_moved += probe_bytes(&probes);
            self.diag.bytes_needed += 64;
            let mode = self.set_mode();
            let memory_writebacks = self.install(set, line, true, scheme, mode, info);
            return WriteOutcome {
                probes,
                memory_writebacks,
            };
        }

        // DICE, non-invariant line: predict by compressibility.
        let (pred_scheme, s_pred, _) = self.install_target(line, info);
        let s_alt = s_pred ^ 1;
        let mut probes = one_probe(s_pred, false, rb);
        self.diag.bloat_rmw_bytes += u64::from(rb);

        let resident_pred = self.sets[s_pred as usize].get(line).is_some();
        let resident_alt = self.sets[s_alt as usize].get(line).is_some();
        if resident_pred || resident_alt {
            self.stats.wpred_scored += 1;
        }

        let (set, scheme) = if resident_pred {
            self.stats.wpred_correct += 1;
            (s_pred, pred_scheme)
        } else if resident_alt {
            // Wrong guess (or the line was installed before its data
            // changed): update it where it lives. The neighbor tag (Alloy)
            // or a second probe (KNL) finds it; modifying the other set
            // needs its contents either way.
            probes.push(Probe {
                set: s_alt,
                write: false,
                bytes: rb,
            });
            self.stats.second_probes += 1;
            self.diag.second_probe_writes += 1;
            self.diag.bloat_second_probe_bytes += u64::from(rb);
            (s_alt, pred_scheme.other())
        } else {
            // Not resident anywhere: install fresh at the predicted target.
            (s_pred, pred_scheme)
        };

        self.record_install(scheme, false);
        self.cip.train(line, scheme);
        probes.push(Probe {
            set,
            write: true,
            bytes: wbts,
        });
        self.diag.bytes_moved += probe_bytes(&probes);
        self.diag.bytes_needed += 64;

        let memory_writebacks = self.install(set, line, true, scheme, SetMode::Compressed, info);
        WriteOutcome {
            probes,
            memory_writebacks,
        }
    }

    /// Where the recorded `(line, scheme)` pair says a resident entry
    /// belongs. Static organizations ignore the flag (they have one index
    /// function); DICE re-applies the entry's own BAI/TSI decision.
    fn expected_set(&self, line: LineAddr, scheme: IndexScheme) -> SetIndex {
        match self.cfg.organization {
            Organization::Dice { .. } => self.ix.index(line, scheme),
            _ => self.static_set(line).expect("static organization"),
        }
    }

    /// Audits every set against the compressed-set invariants (see
    /// [`InvariantKind`](crate::InvariantKind)): tag uniqueness, ≤ 72 B
    /// occupancy re-derived from the honest size oracle, the 28-line
    /// format cap, BAI/TSI flag consistency, and single-line residency for
    /// uncompressed sets.
    ///
    /// Read-only: auditing never changes contents, recency or statistics,
    /// so an audited run is cycle-identical to an unaudited one.
    pub fn audit(&self, info: &mut dyn SizeInfo) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let mode = self.set_mode();
        let mut lines: Vec<LineAddr> = Vec::with_capacity(MAX_LINES_PER_SET);
        for (s, set) in self.sets.iter().enumerate() {
            let s = s as SetIndex;
            lines.clear();
            lines.extend(set.entries().iter().map(|e| e.line));
            if let Some(dup) = first_duplicate(&lines) {
                out.push(InvariantViolation {
                    set: s,
                    line: Some(dup),
                    kind: InvariantKind::DuplicateTag,
                });
            }
            match mode {
                SetMode::Uncompressed => {
                    if set.len() > 1 {
                        out.push(InvariantViolation {
                            set: s,
                            line: None,
                            kind: InvariantKind::MultiLineUncompressed { count: set.len() },
                        });
                    }
                }
                SetMode::Compressed => {
                    if set.len() > MAX_LINES_PER_SET {
                        out.push(InvariantViolation {
                            set: s,
                            line: None,
                            kind: InvariantKind::TooManyLines { count: set.len() },
                        });
                    }
                    let occupancy = set.occupancy(info);
                    if occupancy > SET_BYTES {
                        out.push(InvariantViolation {
                            set: s,
                            line: None,
                            kind: InvariantKind::OverCapacity { occupancy },
                        });
                    }
                }
            }
            for e in set.entries() {
                let expected = self.expected_set(e.line, e.scheme);
                if expected != s {
                    out.push(InvariantViolation {
                        set: s,
                        line: Some(e.line),
                        kind: InvariantKind::IndexMismatch { expected },
                    });
                }
            }
        }
        out
    }

    /// Integrity recovery: drops every line in `set` (metadata there can no
    /// longer be trusted, dirty bits included), so subsequent accesses miss
    /// and refill from memory. Returns the number of lines dropped.
    pub fn invalidate_set(&mut self, set: SetIndex) -> usize {
        self.sets[set as usize].clear()
    }

    /// Fault injector: flips bit 1 of one resident entry's stored line
    /// address, chosen pseudo-randomly from `seed`. Bit 1 lies inside the
    /// set-index field of every organization (TSI, NSI, BAI and the skews
    /// all consume it, and `sets ≥ 4`), so the corrupted tag is always
    /// detectable by [`audit`](Self::audit) as an index mismatch (or, on
    /// collision, a duplicate tag). Returns `(set, old_line, new_line)`,
    /// or `None` when the cache is empty.
    pub fn inject_tag_flip(&mut self, seed: u64) -> Option<(SetIndex, LineAddr, LineAddr)> {
        let n = self.sets.len() as u64;
        let start = seed % n;
        for off in 0..n {
            let s = ((start + off) % n) as usize;
            let len = self.sets[s].len();
            if len == 0 {
                continue;
            }
            let idx = (seed >> 32) as usize % len;
            let (old, new) = self.sets[s].corrupt_line_at(idx, 1)?;
            return Some((s as SetIndex, old, new));
        }
        None
    }

    /// Maximum lines one set can hold (re-exported format constant).
    #[must_use]
    pub fn max_lines_per_set() -> usize {
        MAX_LINES_PER_SET
    }

    /// Payload bytes per set (re-exported format constant).
    #[must_use]
    pub fn set_bytes() -> u32 {
        SET_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Size oracle: fixed single size; pairs share a 4 B base.
    struct Fixed(u32);

    impl SizeInfo for Fixed {
        fn single_size(&mut self, _: LineAddr) -> u32 {
            self.0
        }
        fn pair_size(&mut self, _: LineAddr) -> u32 {
            2 * self.0 - 4
        }
    }

    fn dice_cache() -> DramCacheController {
        DramCacheController::new(DramCacheConfig::with_capacity(
            Organization::Dice { threshold: 36 },
            1 << 16, // 1024 sets
        ))
    }

    /// A line whose TSI and BAI indices differ (non-invariant).
    fn noninvariant_line(c: &DramCacheController) -> LineAddr {
        let sets = c.num_sets();
        // bit log2(sets) set, bit 0 clear: moves under BAI.
        sets
    }

    #[test]
    fn miss_fill_hit_roundtrip() {
        let mut c = dice_cache();
        let mut sizes = Fixed(30);
        assert!(!c.read(100).hit);
        c.fill(100, false, None, &mut sizes);
        assert!(c.read(100).hit);
        assert_eq!(c.stats().reads, 2);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn compressible_line_installs_at_bai() {
        let mut c = dice_cache();
        let mut small = Fixed(30);
        let line = noninvariant_line(&c);
        c.fill(line, false, None, &mut small);
        assert_eq!(c.stats().installs_bai, 1);
        assert_eq!(c.stats().installs_tsi, 0);
    }

    #[test]
    fn incompressible_line_installs_at_tsi() {
        let mut c = dice_cache();
        let mut big = Fixed(64);
        let line = noninvariant_line(&c);
        c.fill(line, false, None, &mut big);
        assert_eq!(c.stats().installs_tsi, 1);
        assert_eq!(c.stats().installs_bai, 0);
    }

    #[test]
    fn threshold_is_inclusive() {
        let mut c = dice_cache();
        let mut exact = Fixed(36);
        let line = noninvariant_line(&c);
        c.fill(line, false, None, &mut exact);
        assert_eq!(
            c.stats().installs_bai,
            1,
            "36 B must choose BAI (≤ threshold)"
        );
    }

    #[test]
    fn invariant_lines_need_no_decision() {
        let mut c = dice_cache();
        let mut sizes = Fixed(30);
        // Line 0: bit log2(sets) is 0, bit 0 is 0 → invariant.
        c.fill(0, false, None, &mut sizes);
        assert_eq!(c.stats().installs_invariant, 1);
    }

    #[test]
    fn pair_hit_delivers_partner_free() {
        let mut c = dice_cache();
        let mut sizes = Fixed(30);
        let line = noninvariant_line(&c) & !1;
        c.fill(line, false, None, &mut sizes);
        c.fill(line + 1, false, None, &mut sizes);
        let r = c.read(line);
        assert!(r.hit);
        assert_eq!(r.free_lines, vec![line + 1]);
    }

    #[test]
    fn tsi_compressed_never_delivers_free_pairs() {
        let mut c = DramCacheController::new(DramCacheConfig::with_capacity(
            Organization::CompressedTsi,
            1 << 16,
        ));
        let mut sizes = Fixed(30);
        c.fill(200, false, None, &mut sizes);
        c.fill(201, false, None, &mut sizes);
        let r = c.read(200);
        assert!(r.hit);
        assert!(r.free_lines.is_empty(), "TSI separates pair members");
    }

    #[test]
    fn alloy_miss_costs_one_probe() {
        let mut c = dice_cache();
        let line = noninvariant_line(&c);
        let r = c.read(line);
        assert!(!r.hit);
        assert_eq!(
            r.probes.len(),
            1,
            "neighbor tag rules out the alternate set"
        );
    }

    #[test]
    fn knl_miss_probes_both_locations() {
        let mut cfg = DramCacheConfig::with_capacity(Organization::Dice { threshold: 36 }, 1 << 16);
        cfg.tag_variant = TagVariant::Knl;
        let mut c = DramCacheController::new(cfg);
        let line = noninvariant_line(&c);
        let r = c.read(line);
        assert!(!r.hit);
        assert_eq!(
            r.probes.len(),
            2,
            "KNL cannot rule out the alternate set for free"
        );
    }

    #[test]
    fn knl_invariant_miss_needs_one_probe() {
        let mut cfg = DramCacheConfig::with_capacity(Organization::Dice { threshold: 36 }, 1 << 16);
        cfg.tag_variant = TagVariant::Knl;
        let mut c = DramCacheController::new(cfg);
        let r = c.read(0);
        assert_eq!(r.probes.len(), 1);
    }

    #[test]
    fn cip_misprediction_costs_second_probe() {
        let mut c = dice_cache();
        let line = noninvariant_line(&c);
        let mut big = Fixed(64);
        // Fresh LTT predicts TSI; install at TSI so the first read is right.
        c.fill(line, false, None, &mut big);
        let r = c.read(line);
        assert_eq!(r.probes.len(), 1);
        // Retrain the page toward BAI with a compressible neighbor line.
        let mut small = Fixed(20);
        c.fill(line + 2, false, None, &mut small);
        // Now the (incompressible, TSI-resident) line mispredicts to BAI.
        let r = c.read(line);
        assert!(r.hit);
        assert_eq!(r.probes.len(), 2, "misprediction pays a second probe");
        assert!(c.stats().second_probes >= 1);
    }

    #[test]
    fn scc_read_costs_four_probes_on_hit() {
        let mut c =
            DramCacheController::new(DramCacheConfig::with_capacity(Organization::Scc, 1 << 16));
        let mut sizes = Fixed(30);
        c.fill(300, false, None, &mut sizes);
        let hit = c.read(300);
        assert!(hit.hit);
        assert_eq!(hit.probes.len(), 4, "3 tag probes + 1 data probe");
        let miss = c.read(301_000);
        assert!(!miss.hit);
        assert_eq!(miss.probes.len(), 3, "3 tag probes on a miss");
    }

    #[test]
    fn fill_reuses_probed_set() {
        let mut c = dice_cache();
        let mut sizes = Fixed(64);
        let line = 0; // invariant → target is the TSI set
        let miss = c.read(line);
        let probed = miss.probes[0].set;
        let out = c.fill(line, false, Some(probed), &mut sizes);
        assert_eq!(
            out.probes.len(),
            1,
            "no RMW read when the miss already read the set"
        );
        assert!(out.probes[0].write);
    }

    #[test]
    fn fill_elsewhere_needs_rmw() {
        let mut c = dice_cache();
        let mut small = Fixed(20);
        let line = noninvariant_line(&c); // compressible → BAI ≠ TSI probe
        let miss = c.read(line); // predicted TSI (cold LTT)
        let out = c.fill(line, false, Some(miss.probes[0].set), &mut small);
        assert_eq!(out.probes.len(), 2, "read-modify-write of the other set");
        assert!(!out.probes[0].write);
        assert!(out.probes[1].write);
    }

    #[test]
    fn uncompressed_baseline_fill_overwrites_without_rmw() {
        let mut c = DramCacheController::new(DramCacheConfig::with_capacity(
            Organization::UncompressedAlloy,
            1 << 16,
        ));
        let mut sizes = Fixed(64);
        let out = c.fill(77, false, None, &mut sizes);
        assert_eq!(out.probes.len(), 1);
        assert!(out.probes[0].write);
    }

    #[test]
    fn uncompressed_conflict_evicts_dirty_to_memory() {
        let mut c = DramCacheController::new(DramCacheConfig::with_capacity(
            Organization::UncompressedAlloy,
            1 << 16,
        ));
        let mut sizes = Fixed(64);
        let sets = c.num_sets();
        c.writeback(5, &mut sizes); // dirty line 5
        let out = c.fill(5 + sets, false, None, &mut sizes); // same TSI set
        assert_eq!(out.memory_writebacks, vec![5]);
    }

    #[test]
    fn writeback_updates_resident_line_in_place() {
        let mut c = dice_cache();
        let mut sizes = Fixed(30);
        let line = noninvariant_line(&c);
        c.fill(line, false, None, &mut sizes); // clean, at BAI
        let out = c.writeback(line, &mut sizes);
        assert!(out.memory_writebacks.is_empty());
        assert_eq!(c.stats().wpred_scored, 1);
        assert_eq!(
            c.stats().wpred_correct,
            1,
            "size-based write prediction finds it"
        );
        // Evicting it later must yield a memory writeback (it is dirty now).
        assert_eq!(out.probes.len(), 2); // RMW of the predicted set
    }

    #[test]
    fn writeback_mispredicts_when_compressibility_changed() {
        let mut c = dice_cache();
        let line = noninvariant_line(&c);
        let mut big = Fixed(64);
        c.fill(line, false, None, &mut big); // installed at TSI
                                             // The line's data "became" compressible: write prediction now says
                                             // BAI, but the line lives at TSI.
        let mut small = Fixed(20);
        let out = c.writeback(line, &mut small);
        assert_eq!(c.stats().wpred_scored, 1);
        assert_eq!(c.stats().wpred_correct, 0);
        assert_eq!(out.probes.len(), 3, "probe predicted, probe actual, write");
    }

    #[test]
    fn effective_capacity_exceeds_one_line_per_set_when_compressible() {
        let mut c = dice_cache();
        let mut sizes = Fixed(16);
        let sets = c.num_sets();
        // Fill twice the baseline capacity with compressible lines.
        for line in 0..(2 * sets) {
            c.fill(line, false, None, &mut sizes);
        }
        let ratio = c.valid_lines() as f64 / sets as f64;
        assert!(ratio > 1.5, "compressed capacity ratio {ratio} too low");
    }

    #[test]
    fn incompressible_fill_capacity_matches_baseline() {
        let mut c = DramCacheController::new(DramCacheConfig::with_capacity(
            Organization::CompressedTsi,
            1 << 16,
        ));
        let mut sizes = Fixed(64);
        let sets = c.num_sets();
        for line in 0..(2 * sets) {
            c.fill(line, false, None, &mut sizes);
        }
        assert_eq!(c.valid_lines(), sets, "raw lines: exactly one per set");
    }

    #[test]
    fn format_constants() {
        assert_eq!(DramCacheController::max_lines_per_set(), 28);
        assert_eq!(DramCacheController::set_bytes(), 72);
    }

    #[test]
    fn row_mapping_groups_28_sets() {
        let c = dice_cache();
        assert_eq!(c.row_of(0), 0);
        assert_eq!(c.row_of(27), 0);
        assert_eq!(c.row_of(28), 1);
    }

    #[test]
    fn audit_of_healthy_cache_is_clean() {
        for org in [
            Organization::UncompressedAlloy,
            Organization::CompressedTsi,
            Organization::CompressedNsi,
            Organization::CompressedBai,
            Organization::Dice { threshold: 36 },
            Organization::Scc,
        ] {
            let mut c = DramCacheController::new(DramCacheConfig::with_capacity(org, 1 << 16));
            let mut sizes = Fixed(30);
            for line in 0..4096u64 {
                c.fill(line * 3, false, None, &mut sizes);
                if line % 5 == 0 {
                    c.writeback(line * 3, &mut sizes);
                }
            }
            assert_eq!(c.audit(&mut sizes), vec![], "org {org:?} audit dirty");
        }
    }

    #[test]
    fn audit_is_read_only() {
        let mut c = dice_cache();
        let mut sizes = Fixed(30);
        for line in 0..512u64 {
            c.fill(line, false, None, &mut sizes);
        }
        let before = (c.valid_lines(), *c.stats());
        let _ = c.audit(&mut sizes);
        assert_eq!(before.0, c.valid_lines());
        assert_eq!(&before.1, c.stats());
    }

    #[test]
    fn injected_tag_flip_is_detected_and_recoverable() {
        let mut c = dice_cache();
        let mut sizes = Fixed(30);
        // Stride-4 fill: the flipped address `old ^ 2` is never a
        // legitimately resident line, so the final read must miss.
        for line in 0..2048u64 {
            c.fill(line * 4, false, None, &mut sizes);
        }
        let (set, old, new) = c.inject_tag_flip(0xD1CE).expect("cache is populated");
        assert_eq!(old ^ new, 2, "injector flips bit 1");
        let violations = c.audit(&mut sizes);
        assert!(
            violations.iter().any(|v| v.set == set),
            "flip in set {set} not reported: {violations:?}"
        );
        // Recovery: invalidating the poisoned set restores a clean audit.
        let dropped = c.invalidate_set(set);
        assert!(dropped > 0);
        assert_eq!(c.audit(&mut sizes), vec![]);
        // The flipped line now misses and can refill from memory.
        assert!(!c.read(new).hit);
    }

    #[test]
    fn tag_flip_detected_in_every_organization() {
        for org in [
            Organization::UncompressedAlloy,
            Organization::CompressedTsi,
            Organization::CompressedNsi,
            Organization::CompressedBai,
            Organization::Scc,
        ] {
            let mut c = DramCacheController::new(DramCacheConfig::with_capacity(org, 1 << 16));
            let mut sizes = Fixed(30);
            for line in 0..1024u64 {
                c.fill(line * 7, false, None, &mut sizes);
            }
            let (set, ..) = c.inject_tag_flip(42).expect("populated");
            assert!(
                c.audit(&mut sizes).iter().any(|v| v.set == set),
                "org {org:?} missed the flip"
            );
        }
    }

    #[test]
    fn size_lie_overpacks_and_honest_audit_catches_it() {
        let mut c = dice_cache();
        let mut honest = Fixed(30);
        // Fill through a lying oracle: ~1/4 of lines claim 1 B, so sets
        // pack more lines than 72 B truly holds.
        {
            let mut liar = crate::LyingSizes::new(&mut honest, 0xD1CE);
            for line in 0..4096u64 {
                c.fill(line, false, None, &mut liar);
            }
        }
        let violations = c.audit(&mut honest);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v.kind, InvariantKind::OverCapacity { .. })),
            "no over-capacity violation from a lying size oracle"
        );
        // Recovery: clear every violating set, then the audit is clean.
        let mut sets: Vec<_> = violations.iter().map(|v| v.set).collect();
        sets.dedup();
        for s in sets {
            c.invalidate_set(s);
        }
        assert_eq!(c.audit(&mut honest), vec![]);
    }

    #[test]
    fn inject_into_empty_cache_is_none() {
        let mut c = dice_cache();
        assert_eq!(c.inject_tag_flip(1), None);
    }

    #[test]
    fn diagnostics_cross_check_registry_counters() {
        let mut c = dice_cache();
        // A mixed-compressibility workload with rereads so the CIP both
        // scores predictions and mispredicts occasionally.
        for i in 0..4096u64 {
            let line = (i * 37) % 3000;
            let mut sizes = Fixed(if line % 3 == 0 { 64 } else { 28 });
            if !c.read(line).hit {
                c.fill(line, false, None, &mut sizes);
            }
            if i % 11 == 0 {
                c.writeback(line, &mut sizes);
            }
        }
        let d = *c.diagnostics();
        // Read confusion matrix ≡ the CIP's own scoring.
        assert_eq!(d.read_predictions(), c.cip_predictions());
        assert_eq!(d.read_correct(), c.cip_correct());
        assert!(d.read_predictions() > 0);
        assert_eq!(d.read_accuracy(), c.cip_accuracy());
        // Hit attribution partitions the demand hits.
        assert_eq!(
            d.hits_at_bai + d.hits_at_tsi + d.hits_invariant,
            c.stats().read_hits
        );
        assert_eq!(d.read_misses, c.stats().reads - c.stats().read_hits);
        // Second probes split by path, totalling the flat counter.
        assert_eq!(
            d.second_probe_reads + d.second_probe_writes,
            c.stats().second_probes
        );
        // Bloat causes never exceed the total bloat.
        assert!(d.bytes_moved >= d.bytes_needed);
        assert!(d.bloat_second_probe_bytes + d.bloat_rmw_bytes <= d.bloat_bytes());
        assert!(d.bloat_factor() > 1.0);
    }

    #[test]
    fn diagnostics_fill_matrix_counts_consulted_fills() {
        let mut c = dice_cache();
        let mut consulted = 0u64;
        for i in 0..2048u64 {
            let line = i * 3;
            let mut sizes = Fixed(if i % 2 == 0 { 20 } else { 64 });
            c.fill(line, false, None, &mut sizes);
            if !c.ix.invariant(line) {
                consulted += 1;
            }
        }
        let d = c.diagnostics();
        assert_eq!(d.consulted_fills(), consulted);
        assert!(consulted > 0);
        // Both install decisions appear in the matrix.
        assert!(d.cip_fill_bai_bai + d.cip_fill_tsi_bai > 0);
        assert!(d.cip_fill_bai_tsi + d.cip_fill_tsi_tsi > 0);
    }
}
