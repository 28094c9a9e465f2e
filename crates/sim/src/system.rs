//! The deterministic event loop tying cores, L3, L4 and memory together.
//!
//! # Event engine
//!
//! Events flow through a hierarchical timing wheel ([`crate::wheel`])
//! instead of a binary heap, with two contracts the old heap implied and
//! this engine makes explicit:
//!
//! * **Tie-break** — events due at the same cycle execute in schedule
//!   (FIFO) order, tracked by a monotone sequence number.
//! * **Chaining** — when handling an event produces the same core's next
//!   `Dispatch` and that dispatch is due strictly before every queued
//!   event, it runs inline instead of round-tripping the queue. This is
//!   execution-order-equivalent to queueing it (it would pop next
//!   anyway), so reports stay byte-identical; in single-core cells it
//!   short-circuits the majority of queue traffic (L3-hit bursts never
//!   touch the queue at all).
//!
//! The original heap loop survives as a test-only *reference engine*
//! ([`System::use_reference_engine`]); `tests/differential.rs` holds the
//! two byte-identical across the experiment matrix.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dice_cache::{HierarchyConfig, SramHierarchy};
use dice_core::{DramCacheController, FaultKind, FaultPlan, L4Stats, LyingSizes, Probe, SetIndex};
use dice_dram::{AccessKind, DramDevice, DramStats, Location};
use dice_obs::{delta, LatencyPanel, RequestClass, TraceBuffer, TraceCtx, TraceEvent};
use dice_workloads::{MixDataModel, RecordSource, TraceGen, TraceRecord};

use crate::config::{SimConfig, WorkloadSet};
use crate::core_model::CoreModel;
use crate::report::{IntegrityReport, PhaseCycles, RunDiag, RunReport};
use crate::timeline::IntervalSample;
use crate::wheel::EventWheel;
use crate::Cycle;

/// Lines per 2 KB main-memory row.
const MEM_LINES_PER_ROW: u64 = 32;
/// Sample the resident-line count every this many demand records.
const CAPACITY_SAMPLE_EVERY: u64 = 2048;
/// When a tag-flip injector is armed, corrupt a tag every this many demand
/// records (frequent enough that short test windows see several faults).
const FAULT_INJECT_EVERY: u64 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A core is ready to dispatch its next trace record.
    Dispatch { core: usize },
    /// Install a memory fetch into the L4.
    Fill { line: u64, probed: Option<SetIndex> },
    /// A dirty L3 victim arrives at the L4.
    L4Writeback { line: u64 },
    /// An L3-side prefetch request (Table 7 policies).
    Prefetch { line: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: Cycle,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The event queue behind the simulation loop. The wheel is the engine;
/// the heap is the original implementation, kept as the reference for the
/// differential determinism tests (and never used in production runs).
enum EventQueue {
    Wheel(EventWheel<EventKind>),
    Reference {
        heap: BinaryHeap<Reverse<Event>>,
        seq: u64,
    },
}

/// Per-run event-engine statistics, returned next to the report by
/// [`System::run_with_engine_stats`]. Not part of [`RunReport`]: the
/// reference engine chains nothing, so putting these in the report would
/// break the byte-identity contract the engines share. The runner sums
/// them per sweep (`dice_runner::SweepResult::engine`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events that round-tripped the queue (`sim.events_scheduled`).
    pub events_scheduled: u64,
    /// Dispatches run inline by the chaining fast path
    /// (`sim.events_chained`).
    pub events_chained: u64,
    /// Timing-wheel slot cascades (`sim.wheel_cascades`).
    pub wheel_cascades: u64,
}

impl std::ops::AddAssign for EngineCounters {
    fn add_assign(&mut self, other: Self) {
        self.events_scheduled += other.events_scheduled;
        self.events_chained += other.events_chained;
        self.wheel_cascades += other.wheel_cascades;
    }
}

struct CoreState {
    gen: Box<dyn RecordSource>,
    model: CoreModel,
    records_done: u64,
    target: u64,
}

/// One simulated machine.
///
/// Deterministic: a given `(SimConfig, WorkloadSet)` always produces the
/// same [`RunReport`].
pub struct System {
    cfg: SimConfig,
    hierarchy: SramHierarchy,
    l4: DramCacheController,
    l4dram: DramDevice,
    mem: DramDevice,
    cores: Vec<CoreState>,
    data: MixDataModel,
    queue: EventQueue,
    /// Dispatch chaining enabled (wheel engine only; the reference engine
    /// round-trips every event so its pop order is the ground truth).
    chain: bool,
    ev_scheduled: u64,
    ev_chained: u64,
    /// Reusable buffer for draining L3 writebacks without allocating.
    wb_scratch: Vec<u64>,
    workload_name: String,
    valid_sum: f64,
    occupied_sum: f64,
    valid_samples: u64,
    records_since_sample: u64,
    demand_records: u64,
    integrity: IntegrityReport,
    sampling: bool,
    latency: LatencyPanel,
    trace: TraceBuffer,
    timeline: Vec<IntervalSample>,
    /// Whether decision diagnostics are reported (ObsConfig::trace_level
    /// above Off). Counting always happens; this gates attribution that
    /// would otherwise shift the report's byte-identical Off output.
    diag_on: bool,
    /// Per-phase cycle attribution over the measured window.
    phases: PhaseCycles,
    /// Span-tracing context this run's phase spans open in (disabled
    /// unless [`set_trace`](Self::set_trace) attached one).
    span_ctx: TraceCtx,
    // Interval-sampling state: the next window boundary (lazily anchored to
    // the first measured event) and the counter snapshots at the last one.
    iv_next: Option<Cycle>,
    iv_l4: L4Stats,
    iv_l4d: DramStats,
    iv_mem: DramStats,
}

impl System {
    /// Builds a cold system running `workload` under `cfg`.
    ///
    /// With a recorded-trace binding attached to the workload, each core
    /// streams its records from the bound `.dtf` file (core `i` maps to
    /// file stream `i % file_cores`) through
    /// [`TraceBinding::open_core`](dice_ingest::TraceBinding::open_core),
    /// one bounded-memory frame stream per core. Values still come from
    /// the spec-driven data model: DTF value payloads are reserved for
    /// future value-exact replay.
    ///
    /// # Panics
    ///
    /// Panics if `workload.specs` is neither 1 nor `cfg.cores` entries,
    /// or (with the typed error's message) when a bound trace cannot be
    /// opened — the binding validated the file, so this means it changed
    /// or vanished since; the runner's per-cell `catch_unwind` contains
    /// the blast radius to one failed cell.
    #[must_use]
    pub fn new(cfg: SimConfig, workload: &WorkloadSet) -> Self {
        let specs: Vec<_> = if workload.specs.len() == 1 {
            vec![workload.specs[0].clone(); cfg.cores]
        } else {
            assert_eq!(
                workload.specs.len(),
                cfg.cores,
                "one spec per core (or one for all)"
            );
            workload.specs.clone()
        };
        let cores: Vec<Box<dyn RecordSource>> = match &workload.trace {
            Some(binding) => (0..cfg.cores)
                .map(|i| match binding.open_core(i as u32) {
                    Ok(s) => s as Box<dyn RecordSource>,
                    Err(e) => panic!(
                        "workload {:?}: opening trace stream for core {i}: {e}",
                        workload.name
                    ),
                })
                .collect(),
            None => specs
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Box::new(TraceGen::with_scale(s, i as u32, workload.seed, cfg.scale))
                        as Box<dyn RecordSource>
                })
                .collect(),
        };
        let data = MixDataModel::new(
            specs.iter().map(|s| s.values).collect(),
            workload.seed ^ 0xda7a,
        );
        Self::with_sources(cfg, &workload.name, cores, data)
    }

    fn with_sources(
        cfg: SimConfig,
        name: &str,
        sources: Vec<Box<dyn RecordSource>>,
        data: MixDataModel,
    ) -> Self {
        assert_eq!(sources.len(), cfg.cores, "one record source per core");
        let hcfg = HierarchyConfig {
            cores: cfg.cores,
            l3_bytes: cfg.l3_bytes,
            l3_ways: cfg.l3_ways,
        };
        let cores = sources
            .into_iter()
            .map(|gen| CoreState {
                gen,
                model: CoreModel::new(cfg.mlp, cfg.base_cpi),
                records_done: 0,
                target: 0,
            })
            .collect();

        Self {
            hierarchy: SramHierarchy::new(&hcfg),
            l4: DramCacheController::new(cfg.l4),
            l4dram: DramDevice::new(cfg.l4_dram.clone()),
            mem: DramDevice::new(cfg.mem_dram.clone()),
            cores,
            data,
            queue: EventQueue::Wheel(EventWheel::new()),
            chain: true,
            ev_scheduled: 0,
            ev_chained: 0,
            wb_scratch: Vec::new(),
            workload_name: name.to_owned(),
            valid_sum: 0.0,
            occupied_sum: 0.0,
            valid_samples: 0,
            records_since_sample: 0,
            demand_records: 0,
            integrity: IntegrityReport::default(),
            sampling: false,
            latency: LatencyPanel::new(),
            trace: TraceBuffer::new(cfg.obs.trace_capacity),
            timeline: Vec::new(),
            diag_on: cfg.obs.trace_level.diagnostics_on(),
            phases: PhaseCycles::default(),
            span_ctx: TraceCtx::default(),
            iv_next: None,
            iv_l4: L4Stats::default(),
            iv_l4d: DramStats::default(),
            iv_mem: DramStats::default(),
            cfg,
        }
    }

    /// Attaches a span-tracing context: the run's warmup and measured
    /// phases are recorded in `ctx` as children of its parent span, so a
    /// sweep orchestrator can link every cell's simulation phases into one
    /// causally-connected tree.
    pub fn set_trace(&mut self, ctx: TraceCtx) {
        self.span_ctx = ctx;
    }

    fn push(&mut self, time: Cycle, kind: EventKind) {
        self.ev_scheduled += 1;
        match &mut self.queue {
            EventQueue::Wheel(w) => w.push(time, kind),
            EventQueue::Reference { heap, seq } => {
                *seq += 1;
                heap.push(Reverse(Event {
                    time,
                    seq: *seq,
                    kind,
                }));
            }
        }
    }

    fn pop_event(&mut self) -> Option<(Cycle, EventKind)> {
        match &mut self.queue {
            EventQueue::Wheel(w) => w.pop().map(|e| (e.time, e.payload)),
            EventQueue::Reference { heap, .. } => heap.pop().map(|Reverse(e)| (e.time, e.kind)),
        }
    }

    /// A lower bound on the earliest queued due time (wheel engine only;
    /// see [`EventWheel::earliest_bound`] for the soundness argument).
    fn earliest_bound(&self) -> Option<Cycle> {
        match &self.queue {
            EventQueue::Wheel(w) => w.earliest_bound(),
            EventQueue::Reference { heap, .. } => heap.peek().map(|Reverse(e)| e.time),
        }
    }

    /// Switches this system onto the original heap-based engine. Test-only
    /// (the differential determinism suite); must be called before `run`.
    #[doc(hidden)]
    pub fn use_reference_engine(&mut self) {
        assert_eq!(
            self.queue_len(),
            0,
            "engine switch only valid before the first event"
        );
        self.queue = EventQueue::Reference {
            heap: BinaryHeap::new(),
            seq: 0,
        };
        self.chain = false;
    }

    fn queue_len(&self) -> usize {
        match &self.queue {
            EventQueue::Wheel(w) => w.len(),
            EventQueue::Reference { heap, .. } => heap.len(),
        }
    }

    /// Records one completed transaction's latency (and, when tracing is
    /// on, its trace event). Only the measured window is observed, so the
    /// report's histograms match its counters.
    fn observe(&mut self, class: RequestClass, start: Cycle, end: Cycle, line: u64) {
        if !self.sampling {
            return;
        }
        self.latency.record(class, end - start);
        self.trace.push(TraceEvent {
            start,
            end,
            class,
            addr: line * 64,
        });
    }

    /// Closes interval windows up to `now`. The first measured event
    /// anchors the window grid; event times pop in nondecreasing order, so
    /// each boundary is closed exactly once.
    fn interval_tick(&mut self, now: Cycle) {
        let iv = self.cfg.obs.interval_cycles;
        if iv == 0 {
            return;
        }
        let Some(mut next) = self.iv_next else {
            self.iv_next = Some(now + iv);
            self.iv_l4 = *self.l4.stats();
            self.iv_l4d = *self.l4dram.stats();
            self.iv_mem = *self.mem.stats();
            return;
        };
        while now >= next {
            self.close_interval(next, iv);
            next += iv;
        }
        self.iv_next = Some(next);
    }

    fn close_interval(&mut self, end_cycle: Cycle, cycles: Cycle) {
        let l4 = delta(self.l4.stats(), &self.iv_l4);
        let l4_dram = delta(self.l4dram.stats(), &self.iv_l4d);
        let mem_dram = delta(self.mem.stats(), &self.iv_mem);
        self.iv_l4 = *self.l4.stats();
        self.iv_l4d = *self.l4dram.stats();
        self.iv_mem = *self.mem.stats();
        self.timeline.push(IntervalSample {
            end_cycle,
            cycles,
            l4,
            l4_dram,
            mem_dram,
            valid_lines: self.l4.valid_lines(),
            occupied_sets: self.l4.occupied_sets(),
        });
    }

    fn l4_loc(&self, set: SetIndex) -> Location {
        Location::interleave(self.l4dram.config(), self.l4.row_of(set))
    }

    fn mem_loc(&self, line: u64) -> Location {
        Location::interleave(self.mem.config(), line / MEM_LINES_PER_ROW)
    }

    /// Executes dependent probes back to back; returns the final data time.
    fn run_probes(&mut self, start: Cycle, probes: &[Probe]) -> Cycle {
        let mut t = start;
        for p in probes {
            let kind = if p.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let loc = self.l4_loc(p.set);
            t = self.l4dram.access(t, kind, loc, p.bytes).done;
        }
        t
    }

    /// The L4 demand-read path; returns when the requester sees data.
    fn l4_demand(&mut self, t: Cycle, line: u64) -> Cycle {
        let out = self.l4.read(line);
        let data_time = self.run_probes(t, &out.probes);
        let probed = out.probes.last().map(|p| p.set);

        if out.hit {
            // When MAP-I predicted a miss, a speculative memory read was
            // enqueued alongside the cache probe. The tag check resolves in
            // ~100-200 cycles, well inside DDR's queueing delay, so the
            // controller dequeues the speculative request before it issues
            // — a hit costs no memory bandwidth (matching MAP-I's design:
            // mispredictions waste latency headroom, not DDR throughput).
            if self.cfg.install_pair_in_l3 {
                for f in out.free_lines {
                    self.hierarchy.l3_fill(f, false);
                }
                self.drain_l3_writebacks(data_time);
            }
            let class = if out.probes.len() > 1 {
                RequestClass::SecondProbe
            } else {
                RequestClass::ReadHit
            };
            if self.sampling && self.diag_on {
                self.phases.data_transfer_cycles += data_time - t;
            }
            self.observe(class, t, data_time, line);
            data_time
        } else {
            // On a predicted miss, memory was accessed in parallel with the
            // cache probe; otherwise it serializes behind tag resolution.
            if self.sampling && self.diag_on {
                self.phases.tag_probe_cycles += data_time - t;
            }
            let mem_start = if out.predicted_hit { data_time } else { t };
            let done = self
                .mem
                .access(mem_start, AccessKind::Read, self.mem_loc(line), 64)
                .done;
            self.push(done, EventKind::Fill { line, probed });
            self.observe(RequestClass::ReadMiss, t, done, line);
            done
        }
    }

    fn drain_l3_writebacks(&mut self, t: Cycle) {
        // The scratch buffer is taken/returned around the push loop so the
        // borrow checker allows `self.push`; its capacity persists across
        // records, keeping the steady-state loop allocation-free.
        let mut scratch = std::mem::take(&mut self.wb_scratch);
        self.hierarchy.drain_writebacks_into(&mut scratch);
        for &wb in &scratch {
            self.push(t, EventKind::L4Writeback { line: wb });
        }
        scratch.clear();
        self.wb_scratch = scratch;
    }

    fn mem_writes(&mut self, t: Cycle, lines: &[u64]) {
        for &l in lines {
            let loc = self.mem_loc(l);
            self.mem.access(t, AccessKind::Write, loc, 64);
        }
    }

    /// The seed of an armed size-lie injector, if any.
    fn size_lie_seed(&self) -> Option<u64> {
        match self.cfg.inject {
            Some(FaultPlan {
                kind: FaultKind::SizeLie,
                seed,
            }) => Some(seed),
            _ => None,
        }
    }

    /// Periodic fault injection (when armed) and invariant auditing,
    /// clocked by demand records so both are deterministic.
    fn integrity_tick(&mut self) {
        if let Some(plan) = self.cfg.inject {
            if plan.kind == FaultKind::TagFlip
                && self.demand_records.is_multiple_of(FAULT_INJECT_EVERY)
            {
                // Evolve the seed so successive flips land on different
                // sets; corrupt both the L4 TAD array and the L3 tags.
                let seed = plan.seed.wrapping_add(self.demand_records);
                if self.l4.inject_tag_flip(seed).is_some() {
                    self.integrity.faults_injected += 1;
                }
                if self.hierarchy.l3_inject_tag_flip(seed ^ 0x5a5a).is_some() {
                    self.integrity.faults_injected += 1;
                }
            }
        }
        if self.cfg.audit_every > 0 && self.demand_records.is_multiple_of(self.cfg.audit_every) {
            self.audit_now();
        }
    }

    /// One auditor sweep: validate every L4 set against the honest size
    /// oracle and every SRAM level's tag store. Recovery is set-granular —
    /// a violating set's contents cannot be trusted (least of all its
    /// dirty bits), so it is dropped whole and refilled on demand.
    fn audit_now(&mut self) {
        self.integrity.audits += 1;
        let violations = self.l4.audit(&mut self.data);
        self.integrity.violations += violations.len() as u64;
        // Violations arrive grouped by set in ascending order, so a
        // linear dedup yields each damaged set exactly once.
        let mut sets: Vec<SetIndex> = violations.iter().map(|v| v.set).collect();
        sets.dedup();
        for s in sets {
            self.l4.invalidate_set(s);
            self.integrity.l4_sets_refilled += 1;
        }
        let l3_violations = self.hierarchy.audit();
        if !l3_violations.is_empty() {
            self.integrity.violations += l3_violations.len() as u64;
            self.integrity.l3_lines_dropped += self.hierarchy.l3_scrub() as u64;
        }
    }

    fn handle_record(&mut self, rec: TraceRecord, t: Cycle) -> Cycle {
        self.demand_records += 1;
        if self.cfg.audit_every > 0 || self.cfg.inject.is_some() {
            self.integrity_tick();
        }
        if self.sampling {
            self.records_since_sample += 1;
            if self.records_since_sample >= CAPACITY_SAMPLE_EVERY {
                self.records_since_sample = 0;
                self.valid_sum += self.l4.valid_lines() as f64;
                self.occupied_sum += self.l4.occupied_sets().max(1) as f64;
                self.valid_samples += 1;
            }
        }

        if self.hierarchy.l3_access(rec.line, rec.write) {
            return t + self.cfg.l3_hit_latency;
        }
        let completion = self.l4_demand(t, rec.line);
        self.hierarchy.l3_fill(rec.line, rec.write);
        self.drain_l3_writebacks(completion);
        // Prefetch policies issue their extra fetches as independent
        // requests (paying full bandwidth — the contrast of Table 7).
        // Like a real next-line prefetcher, they have no notion of the
        // workload's footprint; useless prefetches simply pollute.
        if let Some(e) = self.cfg.l3_fetch.extra_fetch(rec.line) {
            self.push(t, EventKind::Prefetch { line: e });
        }
        completion + self.cfg.l3_hit_latency
    }

    /// Handles one event; a `Dispatch` that has a follow-up dispatch
    /// returns it (due time, kind) instead of pushing, so the caller can
    /// chain it inline when nothing else is due earlier.
    fn handle_event(&mut self, time: Cycle, kind: EventKind) -> Option<(Cycle, EventKind)> {
        match kind {
            EventKind::Dispatch { core } => {
                if self.cores[core].records_done >= self.cores[core].target {
                    return None;
                }
                let rec = self.cores[core].gen.next_record();
                let t = self.cores[core].model.advance(rec.gap);
                let completion = self.handle_record(rec, t);
                let c = &mut self.cores[core];
                c.model.complete(completion);
                c.records_done += 1;
                if c.records_done < c.target {
                    let next = c.model.next_dispatch();
                    return Some((next, EventKind::Dispatch { core }));
                }
            }
            EventKind::Fill { line, probed } => {
                // With a size-lie injector armed, the controller consults a
                // corrupted oracle on installs; the honest-oracle audit is
                // what catches the resulting over-packed sets.
                let out = if let Some(seed) = self.size_lie_seed() {
                    let mut liar = LyingSizes::new(&mut self.data, seed);
                    if liar.lies_about(line) {
                        self.integrity.faults_injected += 1;
                    }
                    self.l4.fill(line, false, probed, &mut liar)
                } else {
                    self.l4.fill(line, false, probed, &mut self.data)
                };
                let end = self.run_probes(time, &out.probes);
                if self.sampling && self.diag_on {
                    self.phases.fill_cycles += end - time;
                }
                self.mem_writes(end, &out.memory_writebacks);
                self.observe(RequestClass::MemFill, time, end, line);
            }
            EventKind::L4Writeback { line } => {
                let out = if let Some(seed) = self.size_lie_seed() {
                    let mut liar = LyingSizes::new(&mut self.data, seed);
                    if liar.lies_about(line) {
                        self.integrity.faults_injected += 1;
                    }
                    self.l4.writeback(line, &mut liar)
                } else {
                    self.l4.writeback(line, &mut self.data)
                };
                let end = self.run_probes(time, &out.probes);
                if self.sampling && self.diag_on {
                    self.phases.writeback_cycles += end - time;
                }
                self.mem_writes(end, &out.memory_writebacks);
                self.observe(RequestClass::Writeback, time, end, line);
            }
            EventKind::Prefetch { line } => {
                // Prefetches use the demand path for timing/bandwidth but
                // install into the shared L3 only. They are throttled:
                // a prefetch the MAP-I expects to miss the L4 would spend
                // DDR bandwidth on speculation and is dropped instead.
                if self.hierarchy.l3_contains(line) || !self.l4.predicts_hit(line) {
                    return None;
                }
                let done = self.l4_demand(time, line);
                self.hierarchy.l3_fill(line, false);
                self.drain_l3_writebacks(done);
            }
        }
        None
    }

    /// Executes an event and chains same-core follow-up dispatches inline
    /// for as long as each is due strictly before every queued event. The
    /// strict inequality is what keeps execution order identical to the
    /// reference engine: at a tie, the queued event carries the lower
    /// sequence number and must run first, so the dispatch goes through
    /// the queue like any other event.
    fn process(&mut self, mut time: Cycle, mut kind: EventKind) {
        loop {
            if self.sampling {
                self.interval_tick(time);
            }
            let Some((t, k)) = self.handle_event(time, kind) else {
                return;
            };
            if self.chain && self.earliest_bound().is_none_or(|b| t < b) {
                self.ev_chained += 1;
                time = t;
                kind = k;
            } else {
                self.push(t, k);
                return;
            }
        }
    }

    fn run_phase(&mut self, records_per_core: u64) {
        // The seed dispatches are not sorted by time; rewind the (empty)
        // wheel to their minimum so every push lands at or after its clock.
        if let EventQueue::Wheel(w) = &mut self.queue {
            if let Some(start) = self.cores.iter().map(|c| c.model.next_dispatch()).min() {
                w.rewind(start);
            }
        }
        for core in 0..self.cores.len() {
            self.cores[core].target += records_per_core;
            let t = self.cores[core].model.next_dispatch();
            self.push(t, EventKind::Dispatch { core });
        }
        while let Some((time, kind)) = self.pop_event() {
            self.process(time, kind);
        }
    }

    /// Runs `records_per_core` more records per core on the current engine
    /// without entering the measured window. Test-only: the counting-
    /// allocator test uses this to exercise the steady-state loop from a
    /// warmed system.
    #[doc(hidden)]
    pub fn drive(&mut self, records_per_core: u64) {
        self.run_phase(records_per_core);
    }

    /// Runs warm-up then the measured window and reports the measurement.
    ///
    /// # Panics
    ///
    /// Panics when a [`FaultKind::CellPanic`] injector is armed — that is
    /// the injector's whole purpose (the runner's `catch_unwind` isolation
    /// is what's under test).
    pub fn run(self) -> RunReport {
        self.run_with_engine_stats().0
    }

    /// [`run`](Self::run), also returning this run's engine counters
    /// (which never appear in the report; see [`EngineCounters`]).
    pub fn run_with_engine_stats(mut self) -> (RunReport, EngineCounters) {
        {
            let mut warm = self.span_ctx.span("sim.warmup");
            self.run_phase(self.cfg.warmup_records);
            if let Some(g) = warm.as_mut() {
                let end = self
                    .cores
                    .iter()
                    .map(|c| c.model.finish_time())
                    .max()
                    .unwrap_or(0);
                g.set_cycles(0, end);
            }
        }

        // Mid-cell process faults fire at the measurement boundary —
        // halfway through the cell's work, the worst case for the
        // runner's isolation and watchdog machinery.
        match self.cfg.inject {
            Some(FaultPlan {
                kind: FaultKind::CellPanic,
                seed,
            }) => panic!("injected mid-cell panic (seed {seed:#x})"),
            Some(FaultPlan {
                kind: FaultKind::CellTimeout,
                ..
            }) => {
                // Hang far past any reasonable watchdog budget; the
                // runner reports the cell as timed out and moves on.
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
            _ => {}
        }

        // Snapshot at the measurement boundary.
        self.hierarchy.reset_stats();
        let l4_snap = *self.l4.stats();
        let l4d_snap = *self.l4dram.stats();
        let mem_snap = *self.mem.stats();
        let t0: Vec<Cycle> = self.cores.iter().map(|c| c.model.next_dispatch()).collect();
        for c in &mut self.cores {
            c.model.reset_instructions();
        }
        self.sampling = true;

        {
            let boundary = self
                .cores
                .iter()
                .map(|c| c.model.finish_time())
                .max()
                .unwrap_or(0);
            let mut meas = self.span_ctx.span("sim.measure");
            self.run_phase(self.cfg.measure_records);
            if let Some(g) = meas.as_mut() {
                let end = self
                    .cores
                    .iter()
                    .map(|c| c.model.finish_time())
                    .max()
                    .unwrap_or(boundary);
                g.set_cycles(boundary, end);
            }
        }

        // Close the final (partial) interval window so late-run activity
        // still appears in the time series.
        if let Some(next) = self.iv_next {
            let iv = self.cfg.obs.interval_cycles;
            let window_start = next - iv;
            let end = self
                .cores
                .iter()
                .map(|c| c.model.finish_time())
                .max()
                .unwrap_or(next);
            if end > window_start {
                self.close_interval(end, end - window_start);
            }
        }

        let core_cycles: Vec<Cycle> = self
            .cores
            .iter()
            .zip(&t0)
            .map(|(c, &s)| c.model.finish_time().saturating_sub(s))
            .collect();
        let cycles = *core_cycles.iter().max().unwrap_or(&0);
        let l4_dram = delta(self.l4dram.stats(), &l4d_snap);
        let mem_dram = delta(self.mem.stats(), &mem_snap);
        let (avg_valid_lines, avg_occupied_sets) = if self.valid_samples == 0 {
            (
                self.l4.valid_lines() as f64,
                self.l4.occupied_sets().max(1) as f64,
            )
        } else {
            (
                self.valid_sum / self.valid_samples as f64,
                self.occupied_sum / self.valid_samples as f64,
            )
        };

        let counters = EngineCounters {
            events_scheduled: self.ev_scheduled,
            events_chained: self.ev_chained,
            wheel_cascades: match &self.queue {
                EventQueue::Wheel(w) => w.cascades(),
                EventQueue::Reference { .. } => 0,
            },
        };

        let report = RunReport {
            workload: self.workload_name.clone(),
            cycles,
            core_instructions: self.cores.iter().map(|c| c.model.instructions()).collect(),
            core_cycles,
            l3: *self.hierarchy.l3_stats(),
            l4: delta(self.l4.stats(), &l4_snap),
            l4_dram,
            mem_dram,
            cip_accuracy: self.l4.cip_accuracy(),
            cip_predictions: self.l4.cip_predictions(),
            mapi_accuracy: self.l4.mapi_accuracy(),
            avg_valid_lines,
            avg_occupied_sets,
            baseline_lines: self.l4.num_sets(),
            energy: RunReport::energy_of(&l4_dram, &mem_dram, cycles),
            integrity: self.integrity,
            latency: self.latency,
            timeline: self.timeline,
            trace: self.trace,
            diag: if self.diag_on {
                Some(RunDiag {
                    decisions: *self.l4.diagnostics(),
                    phases: self.phases,
                })
            } else {
                None
            },
        };
        (report, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_core::Organization;
    use dice_workloads::{spec_table, WorkloadSpec};

    fn spec(name: &str) -> WorkloadSpec {
        spec_table().into_iter().find(|w| w.name == name).unwrap()
    }

    fn quick(org: Organization, wl: &str) -> RunReport {
        let cfg = SimConfig::scaled(org, 256).with_records(4_000, 8_000);
        System::new(cfg, &WorkloadSet::rate(spec(wl), 7)).run()
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = quick(Organization::Dice { threshold: 36 }, "gcc");
        let b = quick(Organization::Dice { threshold: 36 }, "gcc");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.l4.reads, b.l4.reads);
        assert_eq!(a.mem_dram.reads, b.mem_dram.reads);
    }

    #[test]
    fn caches_actually_hit() {
        let r = quick(Organization::UncompressedAlloy, "gcc");
        assert!(r.l3.hit_rate() > 0.05, "L3 hit rate {}", r.l3.hit_rate());
        assert!(r.l4.hit_rate() > 0.2, "L4 hit rate {}", r.l4.hit_rate());
        assert!(r.cycles > 0);
        assert!(r.core_instructions.iter().all(|&i| i > 0));
    }

    #[test]
    fn compression_increases_effective_capacity() {
        // Longer window on a smaller cache so the L4 actually fills.
        let run = |org| {
            let cfg = SimConfig::scaled(org, 1024).with_records(6_000, 12_000);
            System::new(cfg, &WorkloadSet::rate(spec("cc_twi"), 7)).run()
        };
        let base = run(Organization::UncompressedAlloy);
        let tsi = run(Organization::CompressedTsi);
        assert!(tsi.capacity_ratio() > base.capacity_ratio());
        assert!(
            tsi.capacity_ratio() > 1.1,
            "tsi ratio {}",
            tsi.capacity_ratio()
        );
    }

    #[test]
    fn dice_beats_baseline_on_compressible_spatial_workload() {
        let base = quick(Organization::UncompressedAlloy, "cc_twi");
        let dice = quick(Organization::Dice { threshold: 36 }, "cc_twi");
        let s = dice.weighted_speedup(&base);
        assert!(s > 1.0, "DICE speedup on cc_twi = {s}");
    }

    #[test]
    fn dice_does_not_tank_incompressible_workload() {
        let base = quick(Organization::UncompressedAlloy, "lbm");
        let dice = quick(Organization::Dice { threshold: 36 }, "lbm");
        let s = dice.weighted_speedup(&base);
        assert!(s > 0.93, "DICE must not degrade lbm: {s}");
    }

    #[test]
    fn free_lines_flow_on_dice() {
        let dice = quick(Organization::Dice { threshold: 36 }, "cc_twi");
        assert!(
            dice.l4.free_lines > 0,
            "compressed pairs should deliver free lines"
        );
    }

    #[test]
    fn energy_is_positive_and_memory_dominated_for_misses() {
        let r = quick(Organization::UncompressedAlloy, "mcf");
        assert!(r.energy.total_joules() > 0.0);
        assert!(r.energy.l4_joules > 0.0);
        assert!(r.energy.mem_joules > 0.0);
    }

    #[test]
    fn observability_captures_latency_timeline_and_trace() {
        let mut cfg =
            SimConfig::scaled(Organization::Dice { threshold: 36 }, 256).with_records(4_000, 8_000);
        cfg.obs.interval_cycles = 50_000;
        cfg.obs.trace_capacity = 1024;
        let r = System::new(cfg, &WorkloadSet::rate(spec("gcc"), 7)).run();

        // Latency panel totals must reconcile with the counters: every
        // measured L4 read is either a hit (one or two probes) or a miss.
        let hits = r.latency.class(dice_obs::RequestClass::ReadHit).count()
            + r.latency.class(dice_obs::RequestClass::SecondProbe).count();
        let misses = r.latency.class(dice_obs::RequestClass::ReadMiss).count();
        assert!(hits > 0, "no hit latencies recorded");
        assert!(misses > 0, "no miss latencies recorded");
        // Prefetching is off in this config, so the panel matches exactly.
        assert_eq!(hits, r.l4.read_hits);
        assert_eq!(hits + misses, r.l4.reads);
        // A miss includes a DDR round trip; hits must be faster on average.
        let mean_hit = r.latency.class(dice_obs::RequestClass::ReadHit).mean();
        let mean_miss = r.latency.class(dice_obs::RequestClass::ReadMiss).mean();
        assert!(
            mean_hit < mean_miss,
            "hit mean {mean_hit} !< miss mean {mean_miss}"
        );

        assert!(
            r.timeline.len() >= 2,
            "only {} interval samples",
            r.timeline.len()
        );
        let window_reads: u64 = r.timeline.iter().map(|s| s.l4.reads).sum();
        assert_eq!(
            window_reads, r.l4.reads,
            "timeline windows must tile the measured reads"
        );
        assert!(!r.trace.is_empty(), "trace enabled but empty");
    }

    /// Fixture for driving [`System::interval_tick`] directly: a tiny
    /// system with the given interval length and nothing simulated yet.
    fn tick_fixture(iv: Cycle) -> System {
        let mut cfg = SimConfig::scaled(Organization::UncompressedAlloy, 256).with_records(10, 10);
        cfg.obs.interval_cycles = iv;
        System::new(cfg, &WorkloadSet::rate(spec("gcc"), 7))
    }

    #[test]
    fn interval_tick_anchors_then_closes_exactly_on_boundary() {
        let mut sys = tick_fixture(100);
        // The first measured event anchors the window grid and must not
        // close anything.
        sys.interval_tick(1_000);
        assert_eq!(sys.iv_next, Some(1_100));
        assert!(sys.timeline.is_empty(), "anchoring must not close a window");
        // An event landing exactly on the boundary closes that window
        // (boundaries are inclusive: `now >= next`).
        sys.interval_tick(1_100);
        assert_eq!(sys.timeline.len(), 1);
        assert_eq!(sys.timeline[0].end_cycle, 1_100);
        assert_eq!(sys.timeline[0].cycles, 100);
        assert_eq!(sys.iv_next, Some(1_200));
    }

    #[test]
    fn interval_tick_before_boundary_closes_nothing() {
        let mut sys = tick_fixture(100);
        sys.interval_tick(1_000);
        sys.interval_tick(1_050);
        sys.interval_tick(1_099); // one cycle short of the boundary
        assert!(sys.timeline.is_empty());
        assert_eq!(sys.iv_next, Some(1_100), "boundary must not move early");
    }

    #[test]
    fn interval_tick_far_past_boundary_closes_every_skipped_window() {
        let mut sys = tick_fixture(100);
        sys.interval_tick(1_000);
        // An event 3.5 windows out closes the three elapsed windows in
        // order; the in-progress window (ending 1_400) stays open.
        sys.interval_tick(1_350);
        let ends: Vec<Cycle> = sys.timeline.iter().map(|s| s.end_cycle).collect();
        assert_eq!(ends, vec![1_100, 1_200, 1_300]);
        assert!(sys.timeline.iter().all(|s| s.cycles == 100));
        assert_eq!(sys.iv_next, Some(1_400));
    }

    #[test]
    fn interval_tick_disabled_is_inert() {
        let mut sys = tick_fixture(0);
        sys.interval_tick(1_000);
        sys.interval_tick(10_000);
        assert_eq!(sys.iv_next, None);
        assert!(sys.timeline.is_empty());
    }

    #[test]
    fn observability_disabled_is_silent() {
        let mut cfg =
            SimConfig::scaled(Organization::UncompressedAlloy, 256).with_records(2_000, 4_000);
        cfg.obs.interval_cycles = 0;
        cfg.obs.trace_capacity = 0;
        let r = System::new(cfg, &WorkloadSet::rate(spec("gcc"), 7)).run();
        assert!(r.timeline.is_empty());
        assert!(r.trace.is_empty());
        // Latency histograms still fill — they are part of the report
        // proper, not the optional trace.
        assert!(r.latency.total_count() > 0);
    }

    /// The acceptance property behind `--audit`: the auditor is read-only
    /// on a healthy system, so an audited run is cycle-identical (in fact
    /// report-identical) to an unaudited one.
    #[test]
    fn audited_clean_run_is_identical_to_unaudited() {
        let run = |audit_every| {
            let cfg = SimConfig::scaled(Organization::Dice { threshold: 36 }, 256)
                .with_records(4_000, 8_000)
                .with_audit(audit_every);
            System::new(cfg, &WorkloadSet::rate(spec("gcc"), 7)).run()
        };
        let plain = run(0);
        let audited = run(512);
        assert!(audited.integrity.audits > 0);
        assert_eq!(
            audited.integrity.violations, 0,
            "healthy run must audit clean"
        );
        assert_eq!(audited.integrity.l4_sets_refilled, 0);
        assert_eq!(audited.cycles, plain.cycles);
        assert_eq!(audited.l4.reads, plain.l4.reads);
        assert_eq!(audited.mem_dram.reads, plain.mem_dram.reads);
    }

    #[test]
    fn injected_tag_flips_are_detected_and_recovered() {
        let cfg = SimConfig::scaled(Organization::Dice { threshold: 36 }, 256)
            .with_records(4_000, 8_000)
            .with_audit(512)
            .with_inject(dice_core::FaultPlan::seeded(dice_core::FaultKind::TagFlip));
        let r = System::new(cfg, &WorkloadSet::rate(spec("gcc"), 7)).run();
        assert!(r.integrity.faults_injected > 0, "no faults landed");
        assert!(r.integrity.violations > 0, "auditor missed the flips");
        assert!(
            r.integrity.l4_sets_refilled > 0 || r.integrity.l3_lines_dropped > 0,
            "no recovery happened"
        );
        // Degradation is graceful: the run still completes and measures.
        assert!(r.cycles > 0);
        assert!(r.core_instructions.iter().all(|&i| i > 0));
    }

    #[test]
    fn injected_size_lies_are_caught_by_honest_audit() {
        let cfg = SimConfig::scaled(Organization::Dice { threshold: 36 }, 1024)
            .with_records(6_000, 12_000)
            .with_audit(512)
            .with_inject(dice_core::FaultPlan::seeded(dice_core::FaultKind::SizeLie));
        let r = System::new(cfg, &WorkloadSet::rate(spec("cc_twi"), 7)).run();
        assert!(r.integrity.faults_injected > 0, "oracle never lied");
        assert!(r.integrity.violations > 0, "over-packed sets not detected");
        assert!(r.integrity.l4_sets_refilled > 0, "no sets recovered");
        assert!(r.cycles > 0);
    }

    #[test]
    #[should_panic(expected = "injected mid-cell panic")]
    fn cell_panic_injector_fires_at_measurement_boundary() {
        let cfg = SimConfig::scaled(Organization::UncompressedAlloy, 256)
            .with_records(200, 200)
            .with_inject(dice_core::FaultPlan::seeded(
                dice_core::FaultKind::CellPanic,
            ));
        let _ = System::new(cfg, &WorkloadSet::rate(spec("gcc"), 7)).run();
    }

    #[test]
    fn decisions_trace_level_reports_diag_consistent_with_counters() {
        let mut cfg =
            SimConfig::scaled(Organization::Dice { threshold: 36 }, 256).with_records(4_000, 8_000);
        cfg.obs.trace_level = dice_obs::TraceLevel::Decisions;
        let r = System::new(cfg, &WorkloadSet::rate(spec("gcc"), 7)).run();
        let d = r.diag.expect("Decisions level must report diagnostics");
        // Whole-run confusion matrix reconciles with the whole-run CIP
        // counters the report already carries.
        assert_eq!(d.decisions.read_predictions(), r.cip_predictions);
        assert_eq!(d.decisions.read_accuracy(), r.cip_accuracy);
        assert!(d.decisions.consulted_fills() > 0);
        assert!(d.decisions.bytes_moved > d.decisions.bytes_needed);
        // The measured window saw hits, misses and fills.
        assert!(d.phases.data_transfer_cycles > 0);
        assert!(d.phases.tag_probe_cycles > 0);
        assert!(d.phases.fill_cycles > 0);
        assert!(r.to_json().render().contains("\"diag\""));
    }

    #[test]
    fn trace_level_does_not_perturb_simulation() {
        // Diagnostics are pure observation: an Off run and a Decisions run
        // of the same cell must agree on every simulated quantity, and the
        // Off report's JSON must not mention diag at all.
        let run = |level| {
            let mut cfg = SimConfig::scaled(Organization::Dice { threshold: 36 }, 256)
                .with_records(4_000, 8_000);
            cfg.obs.trace_level = level;
            System::new(cfg, &WorkloadSet::rate(spec("gcc"), 7)).run()
        };
        let off = run(dice_obs::TraceLevel::Off);
        let on = run(dice_obs::TraceLevel::Decisions);
        assert_eq!(off.cycles, on.cycles);
        assert_eq!(off.l4, on.l4);
        assert_eq!(off.mem_dram.reads, on.mem_dram.reads);
        assert_eq!(off.cip_predictions, on.cip_predictions);
        assert!(off.diag.is_none());
        assert!(!off.to_json().render().contains("\"diag\""));
    }

    #[test]
    fn sim_phases_span_under_the_given_parent() {
        let ctx = TraceCtx::enabled();
        let root = ctx.span("cell").expect("enabled ctx yields spans");
        let root_id = root.id();
        let cfg =
            SimConfig::scaled(Organization::UncompressedAlloy, 256).with_records(1_000, 2_000);
        let mut sys = System::new(cfg, &WorkloadSet::rate(spec("gcc"), 7));
        sys.set_trace(root.ctx());
        let _ = sys.run();
        drop(root);
        let spans = ctx.spans();
        for name in ["sim.warmup", "sim.measure"] {
            let s = spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name} span"));
            assert_eq!(s.parent, Some(root_id));
            let (a, b) = s.cycles.expect("sim spans carry cycle bounds");
            assert!(b >= a);
        }
        let measure = spans.iter().find(|s| s.name == "sim.measure").unwrap();
        assert!(
            measure.cycles.unwrap().1 > measure.cycles.unwrap().0,
            "measured phase must advance simulated time"
        );
    }

    #[test]
    fn mix_workloads_run() {
        let cfg =
            SimConfig::scaled(Organization::Dice { threshold: 36 }, 256).with_records(2_000, 4_000);
        let specs = vec![
            spec("mcf"),
            spec("lbm"),
            spec("gcc"),
            spec("libq"),
            spec("astar"),
            spec("wrf"),
            spec("milc"),
            spec("xalanc"),
        ];
        let r = System::new(cfg, &WorkloadSet::mix("mixT", specs, 3)).run();
        assert!(r.cycles > 0);
        assert_eq!(r.core_instructions.len(), 8);
    }
}
