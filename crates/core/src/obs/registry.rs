//! The metrics registry: named handles out, merged snapshots back.
//!
//! Registration (the only locking, allocating path) happens at setup
//! time; the returned handles record through relaxed atomics only.
//! Scraping walks the name-sorted registry and merges every metric's
//! shards into an owned, deterministic [`Snapshot`].

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{Arc, Mutex};

use super::metrics::{Counter, Gauge, Histogram, HistogramState, BUCKETS};

/// A registered metric of any kind.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Self::Counter(_) => "counter",
            Self::Gauge(_) => "gauge",
            Self::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// A shared registry of named counters, gauges, and histograms.
///
/// Cloning a `Registry` clones a handle to the same underlying store,
/// so one registry can be threaded through a whole pipeline, a worker
/// pool, and the scraping site. Metric registration is get-or-create:
/// asking twice for the same name and kind returns handles to the same
/// metric.
///
/// # Panics
///
/// Registering a name that already exists *with a different kind*
/// panics — that is a wiring bug, not a runtime condition, and the
/// panic names the clash.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.inner.metrics.lock().expect("registry lock poisoned");
        if let Some(existing) = metrics.get(name) {
            return existing.clone();
        }
        let metric = make();
        metrics.insert(name.to_owned(), metric.clone());
        metric
    }

    /// Returns the counter named `name`, creating it on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        match self.get_or_insert(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge named `name`, creating it on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.get_or_insert(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram named `name`, creating it on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.get_or_insert(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Unregisters every metric whose name starts with `prefix` and
    /// returns how many went. Handles already given out keep working;
    /// they simply stop appearing in scrapes, and asking for the name
    /// again registers a fresh metric.
    ///
    /// Names are sorted, so the family is one contiguous range: the
    /// removal walks that range only, not the whole registry. End a
    /// family prefix with its separator (`"serve.s1."`) so it does not
    /// also match `serve.s10.*`.
    pub fn remove_prefix(&self, prefix: &str) -> usize {
        let mut metrics = self.inner.metrics.lock().expect("registry lock poisoned");
        let doomed: Vec<String> = metrics
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .map(|(name, _)| name)
            .take_while(|name| name.starts_with(prefix))
            .cloned()
            .collect();
        for name in &doomed {
            metrics.remove(name);
        }
        doomed.len()
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .metrics
            .lock()
            .expect("registry lock poisoned")
            .len()
    }

    /// Whether no metric has been registered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges every metric's shards into an owned snapshot, sorted by
    /// name within each kind. Scraping never blocks recorders: it only
    /// takes the registration lock, then reads relaxed atomics.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.inner.metrics.lock().expect("registry lock poisoned");
        let mut snapshot = Snapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snapshot.counters.push(CounterSample {
                    name: name.clone(),
                    value: c.value(),
                }),
                Metric::Gauge(g) => snapshot.gauges.push(GaugeSample {
                    name: name.clone(),
                    value: g.value(),
                    high_water: g.high_water(),
                }),
                Metric::Histogram(h) => snapshot.histograms.push(HistogramSample {
                    name: name.clone(),
                    state: h.state(),
                }),
            }
        }
        snapshot
    }
}

/// A scraped counter value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Registered name.
    pub name: String,
    /// Merged (summed-over-shards) value.
    pub value: u64,
}

/// A scraped gauge value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// Registered name.
    pub name: String,
    /// Last stored value.
    pub value: u64,
    /// Largest value ever stored.
    pub high_water: u64,
}

/// A scraped, shard-merged histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Registered name.
    pub name: String,
    /// Merged count / sum / min / max / buckets.
    pub state: HistogramState,
}

/// An owned, deterministic scrape of a whole [`Registry`].
///
/// Metrics appear sorted by name within each kind, so two snapshots of
/// identical recorded state are `==` and export byte-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// Looks up a counter's value by exact name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a gauge's `(value, high_water)` by exact name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<(u64, u64)> {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| (g.value, g.high_water))
    }

    /// Looks up a histogram's merged state by exact name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramState> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.state)
    }

    /// Total number of samples across all kinds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether the snapshot carries no metric at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Re-exported so exporters can size bucket arrays without reaching
/// into the metrics module.
pub const SNAPSHOT_BUCKETS: usize = BUCKETS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5, "both handles hit the same counter");
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_clash_panics_with_the_name() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("b.frames").add(7);
        r.counter("a.frames").add(1);
        r.gauge("buf").set(9);
        r.histogram("lat").record(100);
        let s = r.snapshot();
        assert_eq!(s.len(), 4);
        assert_eq!(s.counters[0].name, "a.frames");
        assert_eq!(s.counters[1].name, "b.frames");
        assert_eq!(s.counter("b.frames"), Some(7));
        assert_eq!(s.gauge("buf"), Some((9, 9)));
        assert_eq!(s.histogram("lat").unwrap().count, 1);
        assert_eq!(s.counter("missing"), None);
        assert!(Snapshot::default().is_empty());
    }

    #[test]
    fn cloned_registries_share_the_store() {
        let r = Registry::new();
        let r2 = r.clone();
        r.counter("n").increment();
        assert_eq!(r2.snapshot().counter("n"), Some(1));
    }

    #[test]
    fn remove_prefix_drops_exactly_one_family() {
        let r = Registry::new();
        let kept = r.counter("serve.s10.frames");
        for name in ["serve.s1.a", "serve.s1.b.c", "serve.s1.z"] {
            r.counter(name).increment();
        }
        r.gauge("serve.s1").set(3);
        r.histogram("serve.s2.lat").record(5);
        r.counter("serve.steps").add(4);
        assert_eq!(r.remove_prefix("serve.s1."), 3);
        assert_eq!(r.remove_prefix("serve.s1."), 0, "already gone");
        let s = r.snapshot();
        let names: Vec<&str> = s
            .counters
            .iter()
            .map(|c| c.name.as_str())
            .chain(s.gauges.iter().map(|g| g.name.as_str()))
            .chain(s.histograms.iter().map(|h| h.name.as_str()))
            .collect();
        assert_eq!(
            names,
            [
                "serve.s10.frames",
                "serve.steps",
                "serve.s1",
                "serve.s2.lat"
            ]
        );
        // Outstanding handles still record; a re-registration is fresh.
        kept.increment();
        assert_eq!(r.snapshot().counter("serve.s10.frames"), Some(1));
        assert_eq!(r.counter("serve.s1.a").value(), 0);
    }
}
