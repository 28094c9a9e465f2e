//! Named metric registry: counters, gauges and latency histograms.
//!
//! Hot paths resolve a metric name **once** into an interned handle
//! ([`CounterId`] / [`GaugeId`] / [`HistId`]) and then update through the
//! handle — an array index, no hashing, no string comparison. Cold paths
//! (report generation) walk the registry by name.

use std::collections::HashMap;

use crate::hist::Histogram;
use crate::json::Json;

/// Interned handle to a counter; obtained from [`MetricRegistry::counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(usize);

/// Interned handle to a gauge; obtained from [`MetricRegistry::gauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(usize);

/// Interned handle to a histogram; obtained from
/// [`MetricRegistry::histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistId(usize);

/// A registry of named metrics.
///
/// Counters are monotonically increasing `u64`s (though [`set`] exists for
/// mirroring externally-maintained stats structs); gauges are
/// instantaneous `f64` readings; histograms are [`Histogram`]s.
///
/// [`set`]: MetricRegistry::set
#[derive(Debug, Default, Clone)]
pub struct MetricRegistry {
    names: HashMap<String, MetricSlot>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    hists: Vec<(String, Histogram)>,
}

#[derive(Debug, Clone, Copy)]
enum MetricSlot {
    Counter(usize),
    Gauge(usize),
    Hist(usize),
}

impl MetricRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns (or finds) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(slot) = self.names.get(name) {
            match slot {
                MetricSlot::Counter(i) => return CounterId(*i),
                _ => panic!("metric {name:?} already registered with a different type"),
            }
        }
        let i = self.counters.len();
        self.counters.push((name.to_owned(), 0));
        self.names.insert(name.to_owned(), MetricSlot::Counter(i));
        CounterId(i)
    }

    /// Interns (or finds) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(slot) = self.names.get(name) {
            match slot {
                MetricSlot::Gauge(i) => return GaugeId(*i),
                _ => panic!("metric {name:?} already registered with a different type"),
            }
        }
        let i = self.gauges.len();
        self.gauges.push((name.to_owned(), 0.0));
        self.names.insert(name.to_owned(), MetricSlot::Gauge(i));
        GaugeId(i)
    }

    /// Interns (or finds) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&mut self, name: &str) -> HistId {
        if let Some(slot) = self.names.get(name) {
            match slot {
                MetricSlot::Hist(i) => return HistId(*i),
                _ => panic!("metric {name:?} already registered with a different type"),
            }
        }
        let i = self.hists.len();
        self.hists.push((name.to_owned(), Histogram::new()));
        self.names.insert(name.to_owned(), MetricSlot::Hist(i));
        HistId(i)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Overwrites a counter (for mirroring an external stats struct).
    #[inline]
    pub fn set(&mut self, id: CounterId, v: u64) {
        self.counters[id.0].1 = v;
    }

    /// Sets a gauge reading.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].1 = v;
    }

    /// Records a sample into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0].1.record(v);
    }

    /// Merges an externally-built histogram into a registered one (for
    /// mirroring distributions accumulated outside the registry).
    pub fn merge_histogram(&mut self, id: HistId, h: &Histogram) {
        self.hists[id.0].1.merge(h);
    }

    /// Current value of the counter `name`, if registered.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.names.get(name)? {
            MetricSlot::Counter(i) => Some(self.counters[*i].1),
            _ => None,
        }
    }

    /// Current reading of the gauge `name`, if registered.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.names.get(name)? {
            MetricSlot::Gauge(i) => Some(self.gauges[*i].1),
            _ => None,
        }
    }

    /// The histogram registered under `name`, if any.
    #[must_use]
    pub fn histogram_ref(&self, name: &str) -> Option<&Histogram> {
        match self.names.get(name)? {
            MetricSlot::Hist(i) => Some(&self.hists[*i].1),
            _ => None,
        }
    }

    /// All counters in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All gauges in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All histograms in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Serializes the whole registry: `{"counters": {..}, "gauges": {..},
    /// "histograms": {..}}`, each section in registration order.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(
                    self.counters()
                        .map(|(n, v)| (n.to_owned(), Json::u64(v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    self.gauges()
                        .map(|(n, v)| (n.to_owned(), Json::num(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms()
                        .map(|(n, h)| (n.to_owned(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_to_the_same_handle() {
        let mut reg = MetricRegistry::new();
        let a = reg.counter("l4.reads");
        let b = reg.counter("l4.reads");
        assert_eq!(a, b);
        reg.inc(a);
        reg.add(b, 4);
        assert_eq!(reg.counter_value("l4.reads"), Some(5));
    }

    #[test]
    fn gauges_and_histograms_coexist() {
        let mut reg = MetricRegistry::new();
        let g = reg.gauge("l4.occupancy");
        let h = reg.histogram("l4.read_latency");
        reg.set_gauge(g, 0.75);
        reg.observe(h, 40);
        reg.observe(h, 160);
        assert_eq!(reg.gauge_value("l4.occupancy"), Some(0.75));
        assert_eq!(reg.histogram_ref("l4.read_latency").unwrap().count(), 2);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn cross_type_reuse_panics() {
        let mut reg = MetricRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn to_json_round_trips() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("hits");
        reg.add(c, 9);
        let h = reg.histogram("lat");
        reg.observe(h, 100);
        let text = reg.to_json().render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("counters").unwrap().get("hits"),
            Some(&Json::Int(9))
        );
        assert_eq!(
            parsed
                .get("histograms")
                .unwrap()
                .get("lat")
                .unwrap()
                .get("count"),
            Some(&Json::Int(1))
        );
    }
}
