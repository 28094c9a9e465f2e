//! SIGTERM/SIGINT accounting without a libc dependency.
//!
//! The handler only bumps an atomic counter — the async-signal-safe
//! minimum, which is why nothing waits on it directly. [`watch`] polls
//! [`term_count`] on a thread of its own and hands each new count to the
//! binary's drain state machine (in `dice-serve`, first signal: graceful
//! drain; second: cancel in-flight cells).

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

static TERMS: AtomicU32 = AtomicU32::new(0);

/// Signal numbers per POSIX (and the MSVC CRT, which happens to agree).
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn on_term(_sig: i32) {
    TERMS.fetch_add(1, Ordering::SeqCst);
}

/// Termination signals received since [`install`].
#[must_use]
pub fn term_count() -> u32 {
    TERMS.load(Ordering::SeqCst)
}

/// How often [`watch`] reads the counter.
const WATCH_INTERVAL: Duration = Duration::from_millis(50);

/// Spawns a thread that polls [`term_count`] and calls `on_signal(n)`
/// once for every new count `n` (1 for the first signal, 2 for the
/// second, …), in order, for the life of the process.
pub fn watch(on_signal: impl Fn(u32) + Send + 'static) {
    std::thread::spawn(move || {
        let mut seen = 0;
        loop {
            std::thread::sleep(WATCH_INTERVAL);
            let count = term_count();
            for n in seen + 1..=count {
                on_signal(n);
            }
            seen = count;
        }
    });
}

/// Registers the counter for SIGTERM and SIGINT. No-op off Unix.
pub fn install() {
    #[cfg(unix)]
    {
        // `signal(2)` is in every libc the platform links anyway; binding
        // it directly keeps the crate dependency-free. The handler does
        // nothing but an atomic add, so the historical `signal` semantics
        // (no SA_RESTART guarantees, handler persistence per platform)
        // are irrelevant here.
        #[allow(unsafe_code)]
        mod sys {
            extern "C" {
                pub fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            }
        }
        #[allow(unsafe_code)]
        // SAFETY: `on_term` is async-signal-safe (a single atomic add) and
        // has the exact `extern "C" fn(i32)` ABI `signal` expects.
        unsafe {
            sys::signal(SIGTERM, on_term);
            sys::signal(SIGINT, on_term);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handler_counts() {
        let before = term_count();
        on_term(SIGTERM);
        on_term(SIGINT);
        assert_eq!(term_count(), before + 2);
    }
}
