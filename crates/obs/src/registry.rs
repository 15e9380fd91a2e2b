//! The metrics registry: named counters, gauges, histograms, and time
//! series behind cheap cloneable handles, with mergeable snapshots and
//! JSON / Prometheus-text exposition.
//!
//! Registration (name → handle) takes a short write lock once; after
//! that every update is a relaxed atomic (counters, gauges, histogram
//! buckets) or a short mutex push (series). Snapshots read the whole
//! registry under a read lock without stopping writers, so a scrape
//! can never deadlock the hot path — and because every value type
//! merges by addition, snapshots from many workers or processes fold
//! into one fleet view.

use crate::hist::{GeoHistogram, HistogramSnapshot};
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Default number of finite buckets for registry histograms (covers
/// ~16.7 s when recording microseconds).
pub const DEFAULT_HIST_BUCKETS: usize = 24;

fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

fn mutex_lock<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotonically increasing counter handle (cloning shares the cell).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge handle (cloning shares the cell).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle (cloning shares the buckets).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<GeoHistogram>);

impl Histogram {
    /// Records one value.
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

/// Shared storage behind one [`Series`] handle.
type SeriesCell = Arc<Mutex<Vec<(u64, f64)>>>;

/// An append-only `(step, value)` time series handle — the registry's
/// home for Fig. 2–4-style curves (per-epoch loss, average bit-width,
/// gate sparsity, per-layer bits).
#[derive(Debug, Clone)]
pub struct Series(SeriesCell);

impl Series {
    /// Appends one `(step, value)` point.
    pub fn push(&self, step: u64, value: f64) {
        mutex_lock(&self.0).push((step, value));
    }

    /// Copy of all points recorded so far.
    pub fn points(&self) -> Vec<(u64, f64)> {
        mutex_lock(&self.0).clone()
    }

    /// Number of points recorded so far.
    pub fn len(&self) -> usize {
        mutex_lock(&self.0).len()
    }

    /// True when no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    hists: BTreeMap<String, Arc<GeoHistogram>>,
    series: BTreeMap<String, SeriesCell>,
}

/// A named collection of metrics. Most code uses [`global()`], but
/// registries are plain values so tests and benches can use private
/// ones.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RwLock<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, creating it at 0 on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = read_lock(&self.inner).counters.get(name) {
            return Counter(Arc::clone(c));
        }
        let mut inner = write_lock(&self.inner);
        let cell = inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Arc::clone(cell))
    }

    /// Returns the gauge named `name`, creating it at 0 on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = read_lock(&self.inner).gauges.get(name) {
            return Gauge(Arc::clone(g));
        }
        let mut inner = write_lock(&self.inner);
        let cell = inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Arc::clone(cell))
    }

    /// Returns the histogram named `name` with
    /// [`DEFAULT_HIST_BUCKETS`] finite buckets, creating it on first
    /// use (an existing histogram keeps its original shape).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, DEFAULT_HIST_BUCKETS)
    }

    /// Returns the histogram named `name`, creating it with
    /// `n_buckets` finite buckets on first use.
    pub fn histogram_with(&self, name: &str, n_buckets: usize) -> Histogram {
        if let Some(h) = read_lock(&self.inner).hists.get(name) {
            return Histogram(Arc::clone(h));
        }
        let mut inner = write_lock(&self.inner);
        let cell = inner
            .hists
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(GeoHistogram::new(n_buckets)));
        Histogram(Arc::clone(cell))
    }

    /// Returns the time series named `name`, creating it empty on
    /// first use.
    pub fn series(&self, name: &str) -> Series {
        if let Some(s) = read_lock(&self.inner).series.get(name) {
            return Series(Arc::clone(s));
        }
        let mut inner = write_lock(&self.inner);
        let cell = inner
            .series
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(Vec::new())));
        Series(Arc::clone(cell))
    }

    /// A consistent-enough point-in-time copy of every metric. Values
    /// are read with relaxed atomics while writers keep running, so a
    /// snapshot is never torn within one metric but may straddle
    /// concurrent updates across metrics — fine for scraping.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = read_lock(&self.inner);
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            hists: inner
                .hists
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            series: inner
                .series
                .iter()
                .map(|(k, v)| (k.clone(), mutex_lock(v).clone()))
                .collect(),
        }
    }
}

/// The process-wide registry used by the instrumented hot paths.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// A serializable point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram buckets by name.
    pub hists: BTreeMap<String, HistogramSnapshot>,
    /// Time series points by name.
    pub series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters and gauges add, histograms
    /// merge bucket-wise, series concatenate (sorted by step).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.hists {
            match self.hists.get_mut(k) {
                Some(h) => h.merge(v),
                None => {
                    self.hists.insert(k.clone(), v.clone());
                }
            }
        }
        for (k, v) in &other.series {
            let s = self.series.entry(k.clone()).or_default();
            s.extend_from_slice(v);
            s.sort_by_key(|&(step, _)| step);
        }
    }

    /// A copy of the snapshot with every metric renamed to
    /// `prefix.<name>` — the fleet-rollup primitive: per-replica
    /// snapshots get re-homed under `fleet.model.<id>` (or any other
    /// scope) and then [`merge`](Self::merge)d into one registry view
    /// without name collisions.
    pub fn prefixed(&self, prefix: &str) -> MetricsSnapshot {
        let re = |k: &String| format!("{prefix}.{k}");
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (re(k), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| (re(k), *v)).collect(),
            hists: self.hists.iter().map(|(k, v)| (re(k), v.clone())).collect(),
            series: self
                .series
                .iter()
                .map(|(k, v)| (re(k), v.clone()))
                .collect(),
        }
    }

    /// Pretty-printed JSON document of the whole snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| String::from("{}"))
    }

    /// Prometheus text exposition (v0.0.4) rendering every metric:
    /// counters and gauges as scalars, histograms as cumulative
    /// `_bucket{le=...}` lines plus `_sum`/`_count`, and series as a
    /// last-value gauge plus a `_points` counter.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize_metric_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = sanitize_metric_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.hists {
            let n = sanitize_metric_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            let finite = h.n_buckets();
            for (i, &c) in h.counts.iter().enumerate() {
                cumulative += c;
                if i < finite {
                    out.push_str(&format!(
                        "{n}_bucket{{le=\"{}\"}} {cumulative}\n",
                        GeoHistogram::bound(i)
                    ));
                } else {
                    out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                }
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {cumulative}\n", h.sum));
        }
        for (name, points) in &self.series {
            let n = sanitize_metric_name(name);
            let last = points.last().map(|&(_, v)| v).unwrap_or(0.0);
            out.push_str(&format!(
                "# TYPE {n} gauge\n{n} {last}\n# TYPE {n}_points counter\n{n}_points {}\n",
                points.len()
            ));
        }
        out
    }
}

/// Maps an arbitrary registry name onto the Prometheus metric-name
/// alphabet `[a-zA-Z_:][a-zA-Z0-9_:]*` (invalid characters become
/// `_`; a leading digit gains a `_` prefix).
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else if ok {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_across_lookups() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests");
        let b = reg.counter("requests");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("requests").get(), 3);

        let g = reg.gauge("depth");
        g.set(5);
        g.add(-2);
        assert_eq!(reg.gauge("depth").get(), 3);

        reg.histogram("lat").record(100);
        assert_eq!(reg.histogram("lat").snapshot().total(), 1);

        reg.series("loss").push(0, 1.5);
        reg.series("loss").push(1, 0.5);
        assert_eq!(reg.series("loss").points(), vec![(0, 1.5), (1, 0.5)]);
    }

    #[test]
    fn snapshot_merge_adds_everything() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("c").add(2);
        b.counter("c").add(3);
        b.counter("only_b").inc();
        a.gauge("g").set(-1);
        b.gauge("g").set(4);
        a.histogram("h").record(10);
        b.histogram("h").record(1000);
        a.series("s").push(1, 1.0);
        b.series("s").push(0, 0.5);

        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.counters["only_b"], 1);
        assert_eq!(snap.gauges["g"], 3);
        assert_eq!(snap.hists["h"].total(), 2);
        assert_eq!(snap.series["s"], vec![(0, 0.5), (1, 1.0)]);
    }

    #[test]
    fn prometheus_text_renders_every_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.submitted").add(7);
        reg.gauge("queue depth").set(2);
        reg.histogram_with("lat_us", 4).record(3);
        reg.series("train/loss").push(0, 0.25);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("serve_submitted 7"));
        assert!(text.contains("queue_depth 2"));
        assert!(text.contains("lat_us_bucket{le=\"4\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_us_count 1"));
        assert!(text.contains("train_loss 0.25"));
        assert!(text.contains("train_loss_points 1"));
    }

    #[test]
    fn prefixed_rehomes_every_metric_kind() {
        let reg = MetricsRegistry::new();
        reg.counter("completed").add(3);
        reg.gauge("depth").set(2);
        reg.histogram("lat").record(7);
        reg.series("loss").push(0, 1.0);
        let snap = reg.snapshot().prefixed("fleet.model.alpha");
        assert_eq!(snap.counters["fleet.model.alpha.completed"], 3);
        assert_eq!(snap.gauges["fleet.model.alpha.depth"], 2);
        assert_eq!(snap.hists["fleet.model.alpha.lat"].total(), 1);
        assert_eq!(snap.series["fleet.model.alpha.loss"].len(), 1);
        // Two replicas re-homed under different prefixes merge without
        // collisions; same prefix folds by addition.
        let mut merged = snap.clone();
        merged.merge(&reg.snapshot().prefixed("fleet.model.beta"));
        merged.merge(&reg.snapshot().prefixed("fleet.model.alpha"));
        assert_eq!(merged.counters["fleet.model.alpha.completed"], 6);
        assert_eq!(merged.counters["fleet.model.beta.completed"], 3);
    }

    #[test]
    fn sanitize_covers_edge_cases() {
        assert_eq!(sanitize_metric_name("a.b-c"), "a_b_c");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn json_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.counter("c").inc();
        reg.gauge("g").set(-3);
        reg.histogram("h").record(5);
        let snap = reg.snapshot();
        let v: serde_json::Value = serde_json::from_str(&snap.to_json()).unwrap();
        let at = |section: &str, name: &str| v.get(section).and_then(|s| s.get(name)).cloned();
        assert_eq!(at("counters", "c").and_then(|c| c.as_u64()), Some(1));
        assert_eq!(at("gauges", "g").and_then(|g| g.as_i64()), Some(-3));
        let hist = at("hists", "h").unwrap();
        assert_eq!(hist.get("sum").and_then(|s| s.as_u64()), Some(5));
        let counts: Vec<u64> = hist
            .get("counts")
            .and_then(|c| c.as_array())
            .unwrap()
            .iter()
            .map(|c| c.as_u64().unwrap())
            .collect();
        assert_eq!(counts, snap.hists["h"].counts);
        assert_eq!(
            v.get("series").and_then(|s| s.as_object()).map(|s| s.len()),
            Some(0)
        );
    }
}
