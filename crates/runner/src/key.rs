//! Stable cache keys for experiment cells.
//!
//! A cell's result is fully determined by its [`SimConfig`] and
//! [`WorkloadSet`] (the simulator is deterministic), so the persistent
//! cache keys entries by a hash of both — plus the crate version, so a
//! rebuilt simulator never replays results produced by different code.
//!
//! The fingerprint is the `Debug` rendering of the two structs. Every
//! field of every nested config struct (`DramCacheConfig`, `DramConfig`,
//! `ObsConfig`, `L3FetchPolicy`, each `WorkloadSpec`…) appears in it, so
//! flipping *any* knob — including ones added after this crate was
//! written — changes the key. That is the property the cache needs;
//! cross-version key stability is explicitly **not** promised (the
//! version term already invalidates old entries on every release).
//!
//! File-backed traces are keyed by *content*, not just by path: a
//! [`WorkloadSet`] with a trace binding attached carries the `.dtf`
//! file's FNV-1a content hash inside the binding, and the binding's
//! `Debug` form lands in the fingerprint below. Regenerating a trace
//! file in place therefore invalidates every cached cell that consumed
//! the old bytes.

use dice_obs::fnv1a64;
use dice_sim::{SimConfig, WorkloadSet};

/// The canonical text a cell's cache key is hashed from: every field of
/// the configuration and the workload set.
#[must_use]
pub fn cell_fingerprint(cfg: &SimConfig, workload: &WorkloadSet) -> String {
    format!("{cfg:?}|{workload:?}")
}

/// Cache key for a fingerprint under an explicit crate version (split out
/// from [`cell_key`] so tests can demonstrate version sensitivity).
#[must_use]
pub fn cell_key_with_version(fingerprint: &str, version: &str) -> u64 {
    fnv1a64(format!("dice-runner/{version}/{fingerprint}").as_bytes())
}

/// Cache key for one cell: hash of the full fingerprint and this crate's
/// version.
#[must_use]
pub fn cell_key(cfg: &SimConfig, workload: &WorkloadSet) -> u64 {
    cell_key_with_version(&cell_fingerprint(cfg, workload), env!("CARGO_PKG_VERSION"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_term_changes_the_key() {
        let a = cell_key_with_version("same-fingerprint", "0.1.0");
        let b = cell_key_with_version("same-fingerprint", "0.2.0");
        assert_ne!(a, b);
    }
}
