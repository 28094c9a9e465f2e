//! L3 fetch-policy baselines for the paper's Table 7.
//!
//! DICE delivers an adjacent line into L3 *for free* when a compressed pair
//! comes back from the L4. The paper contrasts this with two conventional
//! ways of getting that extra line, both of which pay full bandwidth:
//!
//! * **next-line prefetch** — every demand L3 miss issues an additional
//!   independent request for the next line (`+1.6%` in the paper);
//! * **128 B wide fetch** — every L3 miss fetches the 128 B-aligned pair of
//!   64 B lines as two requests (`+1.9%`).

use crate::LineAddr;

/// How the L3 turns a demand miss into L4 requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum L3FetchPolicy {
    /// Fetch only the demanded line (the baseline).
    #[default]
    Demand,
    /// Also request `addr + 1` (next-line prefetcher).
    NextLine,
    /// Fetch both halves of the 128 B-aligned super-line (`addr & !1` and
    /// `addr | 1`) as two 64 B requests.
    Wide128,
}

impl L3FetchPolicy {
    /// The extra (non-demand) line this policy requests alongside a demand
    /// miss on `addr`, if any. Every policy issues at most one extra line,
    /// so the hot demand path never needs an allocated list.
    #[must_use]
    pub fn extra_fetch(self, addr: LineAddr) -> Option<LineAddr> {
        match self {
            L3FetchPolicy::Demand => None,
            L3FetchPolicy::NextLine => Some(addr + 1),
            L3FetchPolicy::Wide128 => Some(addr ^ 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_fetches_nothing_extra() {
        assert_eq!(L3FetchPolicy::Demand.extra_fetch(10), None);
    }

    #[test]
    fn next_line_fetches_successor() {
        assert_eq!(L3FetchPolicy::NextLine.extra_fetch(10), Some(11));
        assert_eq!(L3FetchPolicy::NextLine.extra_fetch(11), Some(12));
    }

    #[test]
    fn wide_fetch_returns_pair_sibling() {
        assert_eq!(L3FetchPolicy::Wide128.extra_fetch(10), Some(11));
        assert_eq!(L3FetchPolicy::Wide128.extra_fetch(11), Some(10));
    }

    #[test]
    fn default_is_demand() {
        assert_eq!(L3FetchPolicy::default(), L3FetchPolicy::Demand);
    }
}
