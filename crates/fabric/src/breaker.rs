//! Per-worker circuit breakers and decorrelated-jitter backoff.
//!
//! The coordinator used to declare a node dead on its first transport
//! error — correct for a killed process, catastrophic behind a flaky
//! network where every node occasionally drops a connection. The
//! [`Breaker`] separates the two: dispatch failures accumulate while the
//! breaker is **closed**; at the second consecutive failure it **opens**
//! (the node leaves the placement ring, taking no new cells) for a
//! jittered interval of 100 ms to 5 s; when the interval expires it goes
//! **half-open** and a single health probe decides — success re-closes
//! it (the node rejoins the ring), failure re-opens it for a longer
//! jittered interval. A node only becomes *dead* after five failed
//! probes in a row, or when a probe proves the process is gone
//! (connection refused — see the connect-vs-read split in
//! `dice_serve::client`).
//!
//! Backoff everywhere in this module is **decorrelated jitter**
//! (`sleep = uniform(base, min(cap, prev * 3))`): a fleet of workers
//! failing simultaneously must not produce synchronized retry storms,
//! which is exactly what the old fixed `50 ms × 2ⁿ` schedule did.
//!
//! All time flows through explicit `Instant` parameters so the unit
//! tests drive the clock deterministically.

use std::time::{Duration, Instant};

use crate::seeded::SeededRng;

/// Consecutive dispatch failures that trip a closed breaker.
const FAILURE_THRESHOLD: u32 = 2;
/// First open interval (jitter never goes below this).
const OPEN_BASE: Duration = Duration::from_millis(100);
/// Ceiling on the jittered open interval.
const OPEN_CAP: Duration = Duration::from_secs(5);
/// Consecutive failed health probes before the node is given up on
/// (declared dead by the coordinator).
const PROBE_BUDGET: u32 = 5;

/// The three classic breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Dispatching normally; counts consecutive failures.
    Closed,
    /// Off the ring until the deadline passes.
    Open,
    /// Deadline passed; one probe in flight decides.
    HalfOpen,
}

/// A per-node circuit breaker (see the module docs for the lifecycle).
#[derive(Debug, Clone)]
pub struct Breaker {
    state: State,
    /// Consecutive dispatch failures while closed.
    failures: u32,
    /// Consecutive failed probes across open/half-open cycles.
    failed_probes: u32,
    /// When an open breaker may half-open.
    reopen_at: Option<Instant>,
    /// Previous open interval (decorrelated jitter input).
    prev_interval: Duration,
    /// Lifetime trip count (exported to membership).
    opened_total: u64,
    rng: SeededRng,
}

impl Breaker {
    /// A closed breaker. `seed` makes the jitter sequence reproducible.
    #[must_use]
    pub fn new(seed: u64) -> Breaker {
        Breaker {
            state: State::Closed,
            failures: 0,
            failed_probes: 0,
            reopen_at: None,
            prev_interval: OPEN_BASE,
            opened_total: 0,
            rng: SeededRng::new(seed),
        }
    }

    /// Whether dispatches may be placed on this node.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.state == State::Closed
    }

    /// The wire spelling used in the membership document.
    #[must_use]
    pub fn state_str(&self) -> &'static str {
        match self.state {
            State::Closed => "closed",
            State::Open => "open",
            State::HalfOpen => "half_open",
        }
    }

    /// How many times this breaker has tripped.
    #[must_use]
    pub fn opened_total(&self) -> u64 {
        self.opened_total
    }

    /// Records a successful dispatch: resets the failure streak (and
    /// closes a half-open breaker that somehow answered a dispatch).
    pub fn record_success(&mut self) {
        self.state = State::Closed;
        self.failures = 0;
        self.failed_probes = 0;
        self.reopen_at = None;
        self.prev_interval = OPEN_BASE;
    }

    /// Records a failed dispatch. Returns `true` when this failure trips
    /// the breaker open (the caller takes the node off the ring).
    pub fn record_failure(&mut self, now: Instant) -> bool {
        match self.state {
            State::Closed => {
                self.failures += 1;
                if self.failures >= FAILURE_THRESHOLD {
                    self.open(now);
                    return true;
                }
                false
            }
            // Already open (a dispatch raced the trip) — nothing new.
            State::Open | State::HalfOpen => false,
        }
    }

    /// Whether the open interval has expired; if so the breaker moves to
    /// half-open and the caller owes it one health probe.
    pub fn probe_due(&mut self, now: Instant) -> bool {
        match self.state {
            State::Open if self.reopen_at.is_some_and(|at| now >= at) => {
                self.state = State::HalfOpen;
                true
            }
            State::HalfOpen => true,
            _ => false,
        }
    }

    /// A half-open probe answered healthy: close and rejoin.
    pub fn probe_succeeded(&mut self) {
        self.record_success();
    }

    /// A probe failed: re-open for a longer jittered interval. Returns
    /// `true` when the probe budget is exhausted — the node is beyond
    /// the breaker's patience and the caller should declare it dead.
    pub fn probe_failed(&mut self, now: Instant) -> bool {
        self.failed_probes += 1;
        if self.failed_probes >= PROBE_BUDGET {
            return true;
        }
        self.open(now);
        false
    }

    fn open(&mut self, now: Instant) {
        let interval = decorrelated(&mut self.rng, OPEN_BASE, OPEN_CAP, self.prev_interval);
        self.prev_interval = interval;
        self.reopen_at = Some(now + interval);
        self.state = State::Open;
        self.failures = 0;
        self.opened_total += 1;
    }
}

/// One decorrelated-jitter draw: `uniform(base, min(cap, prev * 3))`.
fn decorrelated(rng: &mut SeededRng, base: Duration, cap: Duration, prev: Duration) -> Duration {
    let base_us = base.as_micros() as u64;
    let cap_us = cap.as_micros() as u64;
    let hi = (prev.as_micros() as u64)
        .saturating_mul(3)
        .clamp(base_us, cap_us.max(base_us));
    Duration::from_micros(rng.between(base_us, hi))
}

/// Decorrelated-jitter backoff before a cell's re-dispatches.
///
/// Replaces the coordinator's old fixed `base × 2ⁿ` schedule: when
/// several workers fail at once, every pending cell used to wake at the
/// same instant and hammer the survivors in lockstep. Draws here are
/// independent per cell (seeded by the sweep id and cell key) and
/// decorrelated across attempts.
#[derive(Debug, Clone)]
pub struct JitteredBackoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    rng: SeededRng,
}

impl JitteredBackoff {
    /// A fresh schedule: first draw is in `[base, 3 × base]` (capped).
    #[must_use]
    pub fn new(base: Duration, cap: Duration, seed: u64) -> JitteredBackoff {
        JitteredBackoff {
            base,
            cap: cap.max(base),
            prev: base,
            rng: SeededRng::new(seed),
        }
    }

    /// The next sleep. Always within `[base, cap]`.
    pub fn next_delay(&mut self) -> Duration {
        let d = decorrelated(&mut self.rng, self.base, self.cap, self.prev);
        self.prev = d;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Past any open interval the breaker can draw.
    const PAST_CAP: Duration = OPEN_CAP.saturating_add(Duration::from_millis(1));

    /// A breaker tripped open at `t0`.
    fn tripped(seed: u64, t0: Instant) -> Breaker {
        let mut b = Breaker::new(seed);
        for _ in 1..FAILURE_THRESHOLD {
            assert!(!b.record_failure(t0), "tripped below the threshold");
        }
        assert!(b.record_failure(t0), "the threshold failure trips");
        b
    }

    #[test]
    fn trips_at_threshold_and_recloses_on_probe() {
        let t0 = Instant::now();
        assert!(Breaker::new(1).is_closed());
        let mut b = tripped(1, t0);
        assert_eq!(b.state_str(), "open");
        assert_eq!(b.opened_total(), 1);

        // Not due before the (jittered) interval's lower bound.
        assert!(!b.probe_due(t0 + OPEN_BASE - Duration::from_millis(1)));
        // Certainly due after the cap.
        assert!(b.probe_due(t0 + PAST_CAP));
        assert_eq!(b.state_str(), "half_open");
        b.probe_succeeded();
        assert!(b.is_closed());
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let t0 = Instant::now();
        let mut b = Breaker::new(2);
        for _ in 1..FAILURE_THRESHOLD {
            assert!(!b.record_failure(t0));
        }
        b.record_success();
        assert!(!b.record_failure(t0), "streak must reset on success");
    }

    #[test]
    fn probe_budget_exhaustion_gives_up() {
        let t0 = Instant::now();
        let mut b = tripped(3, t0);
        let mut t = t0;
        for probe in 1..=PROBE_BUDGET {
            t += PAST_CAP;
            assert!(b.probe_due(t));
            assert_eq!(
                b.probe_failed(t),
                probe == PROBE_BUDGET,
                "gave up at the wrong probe ({probe} of {PROBE_BUDGET})"
            );
        }
    }

    #[test]
    fn open_intervals_stay_within_bounds_and_jitter() {
        let mut t = Instant::now();
        let mut b = tripped(4, t);
        let mut intervals = Vec::new();
        for _ in 0..50 {
            let at = b.reopen_at.expect("open breaker has a deadline");
            let interval = at - t;
            assert!(interval >= OPEN_BASE, "below base: {interval:?}");
            assert!(interval <= OPEN_CAP, "above cap: {interval:?}");
            intervals.push(interval);
            t = at + Duration::from_millis(1);
            assert!(b.probe_due(t));
            if b.probe_failed(t) {
                // Budget exhausted (the breaker stays half-open); restart
                // the cycle.
                assert_eq!(b.state_str(), "half_open");
                b.probe_succeeded();
                for _ in 0..FAILURE_THRESHOLD {
                    b.record_failure(t);
                }
            }
        }
        let first = intervals[0];
        assert!(
            intervals.iter().any(|i| *i != first),
            "intervals never varied: {first:?}"
        );
    }

    #[test]
    fn backoff_bounds_hold_for_every_draw() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(1);
        let mut backoff = JitteredBackoff::new(base, cap, 9);
        for _ in 0..1000 {
            let d = backoff.next_delay();
            assert!(d >= base, "draw below base: {d:?}");
            assert!(d <= cap, "draw above cap: {d:?}");
        }
    }

    #[test]
    fn backoff_is_seeded_and_decorrelated() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(1);
        let draws = |seed| {
            let mut b = JitteredBackoff::new(base, cap, seed);
            (0..32).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(draws(1), draws(1), "same seed must replay");
        assert_ne!(draws(1), draws(2), "different seeds must diverge");
        let one = draws(1);
        assert!(
            one.windows(2).any(|w| w[0] != w[1]),
            "schedule degenerated to a constant"
        );
    }

    #[test]
    fn degenerate_cap_clamps_to_base() {
        let base = Duration::from_millis(80);
        let mut b = JitteredBackoff::new(base, Duration::from_millis(10), 5);
        for _ in 0..10 {
            assert_eq!(b.next_delay(), base);
        }
    }
}
