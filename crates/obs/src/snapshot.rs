//! Snapshot/delta for counter structs.
//!
//! Every stats struct in the simulator (`CacheStats`, `L4Stats`,
//! `DramStats`) is a bag of cumulative `u64` counters that gets snapshotted
//! at the warm-up boundary and subtracted at measurement end. Each struct
//! declares its fields once via [`impl_snapshot!`] and the generic
//! [`delta`] does the subtraction — including the subtle part: *watermark*
//! fields (e.g. `last_done`, a completion timestamp) must **not** be
//! subtracted, only carried forward.
//!
//! The same declaration powers name-driven export: [`snapshot_json`] and
//! [`register_counters`] iterate `FIELDS` so a new counter added to a stats
//! struct automatically shows up in JSON reports and the metric registry.

use crate::json::Json;
use crate::registry::MetricRegistry;

/// How a counter field behaves under interval subtraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// A cumulative count; `delta` subtracts the earlier value.
    Monotonic,
    /// A high-water mark or timestamp; `delta` keeps the current value.
    Watermark,
}

/// A struct of named `u64` counters supporting snapshot arithmetic.
///
/// Implement with [`impl_snapshot!`]; the field order of `FIELDS`, `field`
/// and `set_field` must agree (the macro guarantees it).
pub trait Snapshot: Clone {
    /// Field names and kinds, in `field`-index order.
    const FIELDS: &'static [(&'static str, FieldKind)];

    /// Value of field `idx`.
    fn field(&self, idx: usize) -> u64;

    /// Overwrites field `idx`.
    fn set_field(&mut self, idx: usize, v: u64);
}

/// Counter-wise difference `now - earlier`: monotonic fields subtract,
/// watermark fields keep `now`'s value.
///
/// # Panics
///
/// Panics (in debug builds) if a monotonic counter went backwards — that is
/// a bug in the caller's snapshot discipline, not a recoverable state.
#[must_use]
pub fn delta<S: Snapshot>(now: &S, earlier: &S) -> S {
    let mut out = now.clone();
    for (i, (_, kind)) in S::FIELDS.iter().enumerate() {
        if *kind == FieldKind::Monotonic {
            out.set_field(i, now.field(i) - earlier.field(i));
        }
    }
    out
}

/// Serializes every field as a JSON object in declaration order.
#[must_use]
pub fn snapshot_json<S: Snapshot>(s: &S) -> Json {
    Json::Obj(
        S::FIELDS
            .iter()
            .enumerate()
            .map(|(i, (name, _))| ((*name).to_owned(), Json::u64(s.field(i))))
            .collect(),
    )
}

/// Rebuilds a stats struct from [`snapshot_json`] output by field name.
/// Returns `None` if any declared field is missing or non-integer —
/// a snapshot written by an older field set does not silently load as
/// zeros.
#[must_use]
pub fn snapshot_from_json<S: Snapshot + Default>(j: &Json) -> Option<S> {
    let mut s = S::default();
    for (i, (name, _)) in S::FIELDS.iter().enumerate() {
        s.set_field(i, j.get(name)?.as_u64()?);
    }
    Some(s)
}

/// Registers every field as `"<prefix><name>"` counters in `reg`.
pub fn register_counters<S: Snapshot>(reg: &mut MetricRegistry, prefix: &str, s: &S) {
    for (i, (name, _)) in S::FIELDS.iter().enumerate() {
        let id = reg.counter(&format!("{prefix}{name}"));
        reg.set(id, s.field(i));
    }
}

/// Implements [`Snapshot`] for a struct of `u64` counters.
///
/// ```ignore
/// impl_snapshot!(MyStats {
///     reads: Monotonic,
///     last_done: Watermark,
/// });
/// ```
#[macro_export]
macro_rules! impl_snapshot {
    ($ty:ty { $($field:ident: $kind:ident),+ $(,)? }) => {
        impl $crate::Snapshot for $ty {
            const FIELDS: &'static [(&'static str, $crate::FieldKind)] =
                &[$((stringify!($field), $crate::FieldKind::$kind)),+];

            fn field(&self, idx: usize) -> u64 {
                [$(self.$field),+][idx]
            }

            fn set_field(&mut self, idx: usize, v: u64) {
                let mut i = 0usize;
                $(
                    if i == idx {
                        self.$field = v;
                        return;
                    }
                    i += 1;
                )+
                let _ = i;
                panic!("field index {idx} out of range for {}", stringify!($ty));
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct Demo {
        a: u64,
        b: u64,
        hw: u64,
    }

    impl_snapshot!(Demo {
        a: Monotonic,
        b: Monotonic,
        hw: Watermark,
    });

    #[test]
    fn delta_subtracts_monotonic_and_keeps_watermark() {
        let early = Demo {
            a: 1,
            b: 10,
            hw: 500,
        };
        let late = Demo {
            a: 5,
            b: 10,
            hw: 900,
        };
        assert_eq!(
            delta(&late, &early),
            Demo {
                a: 4,
                b: 0,
                hw: 900
            }
        );
    }

    #[test]
    fn field_access_matches_declaration_order() {
        let d = Demo { a: 7, b: 8, hw: 9 };
        assert_eq!(Demo::FIELDS.len(), 3);
        assert_eq!(d.field(0), 7);
        assert_eq!(d.field(2), 9);
        let mut d2 = d;
        d2.set_field(1, 80);
        assert_eq!(d2.b, 80);
    }

    #[test]
    fn json_export_names_every_field() {
        let d = Demo { a: 1, b: 2, hw: 3 };
        let j = snapshot_json(&d);
        assert_eq!(j.get("a"), Some(&Json::Int(1)));
        assert_eq!(j.get("hw"), Some(&Json::Int(3)));
    }

    #[test]
    fn json_round_trips_by_field_name() {
        let d = Demo { a: 1, b: 2, hw: 3 };
        let back: Demo = snapshot_from_json(&snapshot_json(&d)).unwrap();
        assert_eq!(back, d);
        // A document missing a declared field is rejected.
        let partial = Json::Obj(vec![("a".into(), Json::Int(1))]);
        assert_eq!(snapshot_from_json::<Demo>(&partial), None);
    }

    #[test]
    fn registry_export_prefixes_names() {
        let d = Demo { a: 4, b: 5, hw: 6 };
        let mut reg = MetricRegistry::new();
        register_counters(&mut reg, "demo.", &d);
        assert_eq!(reg.counter_value("demo.b"), Some(5));
    }
}
