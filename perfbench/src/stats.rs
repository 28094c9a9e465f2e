//! Summary statistics and the output digest.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile; below that the percentile is noise and is not reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one round.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The least of `samples`: the best of repeated timings of the same work.
/// On a shared host, other machines' work only ever adds time, so the
/// least repeats from run to run where the median follows the neighbours.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one round.
#[must_use]
pub fn least(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "least of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The greatest of `samples`: the best of repeated rates of the same work.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one round.
#[must_use]
pub fn greatest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "greatest of no samples");
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The nearest-rank `p`-th percentile of `samples`, or `None` unless at
/// least [`MIN_BEYOND`] samples rank above it. With nearest rank
/// `r = ceil(p/100 * n)` the samples beyond are `n - r`, so p90 needs 100
/// samples and p99 needs 1000.
#[must_use]
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n.saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Incremental FNV-1a over a sequence of byte strings, each followed by a
/// separator byte so that `["ab", "c"]` and `["a", "bc"]` differ.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one part into the digest.
    pub fn add(&mut self, part: &[u8]) {
        for &b in part.iter().chain(std::iter::once(&0x1e)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The digest of `parts` in order.
#[must_use]
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut d = Digest::default();
    for p in parts {
        d.add(p.as_bytes());
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn least_and_greatest() {
        assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(greatest(&[3.0, 1.5, 2.0]), 3.0);
        assert_eq!(least(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90; ten samples lie beyond it.
        assert_eq!(tail_percentile(&hundred, 90.0), Some(90.0));
        // p99 of 100 samples would have one sample beyond it.
        assert_eq!(tail_percentile(&hundred, 99.0), None);
        assert_eq!(tail_percentile(&hundred[..99], 90.0), None);

        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&thousand[..999], 99.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn digest_matches_fnv1a_and_separates_parts() {
        let mut joined = b"ab".to_vec();
        joined.push(0x1e);
        joined.extend_from_slice(b"c");
        joined.push(0x1e);
        assert_eq!(digest(["ab", "c"]), dice_runner::fnv1a64(&joined));
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
        assert_ne!(digest(["x"]), digest(["x", ""]));
        assert_eq!(digest(["same", "parts"]), digest(["same", "parts"]));
    }
}
