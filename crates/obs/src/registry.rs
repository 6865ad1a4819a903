//! The metrics registry: named atomic counters, max-gauges, fixed-bucket
//! histograms, and a separate wall-clock section.
//!
//! Lock discipline: metric handles live behind an `RwLock<BTreeMap>`;
//! the common path (metric already registered) takes a read lock and an
//! atomic op. Hot layers additionally batch their updates — once per
//! sweep point or per scored population, never per bucket — so registry
//! cost is negligible next to the work being measured. All deterministic
//! updates are commutative (add / max), which is what makes snapshot
//! values bit-identical under any thread count.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Default histogram bounds, in bucket-retrieval units — the paper's
/// response-time scale (query areas 1..1024 over M disks). Bucket `i`
/// counts observations `<= RT_BUCKETS[i]`; one extra bucket counts the
/// rest.
pub const RT_BUCKETS: [u64; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// One histogram: fixed upper bounds plus an overflow bucket, a total
/// count, and a sum (all atomics, all updated with `fetch_add`).
#[derive(Debug)]
struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last is `> bounds.last()`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        self.observe_n(value, 1);
    }

    /// `n` observations of `value` at once. The sum wraps as `n`
    /// separate `fetch_add`s of `value` would.
    fn observe_n(&self, value: u64, n: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
    }
}

/// One wall-clock statistic: total milliseconds and observation count.
/// Lives in the snapshot's non-deterministic section.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WallStat {
    /// Total observed milliseconds.
    pub total_ms: f64,
    /// Number of observations.
    pub count: u64,
}

/// The registry behind [`crate::MetricsRecorder`]. Usable directly when
/// embedding metrics without the recorder indirection.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    walls: Mutex<BTreeMap<String, WallStat>>,
}

/// Register-or-get a named handle out of one of the maps.
fn handle<T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    init: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(h) = map.read().expect("metrics map poisoned").get(name) {
        return h.clone();
    }
    map.write()
        .expect("metrics map poisoned")
        .entry(name.to_owned())
        .or_insert_with(|| Arc::new(init()))
        .clone()
}

/// A pre-interned counter: the name lookup (read lock + map walk) is paid
/// once at registration, after which [`CounterHandle::add`] is a single
/// atomic `fetch_add`. An inert handle (from a disabled recorder) drops
/// every update.
///
/// This is the hot-loop form of [`MetricsRegistry::counter_add`]: loops
/// that update the same counter per query intern the handle once per run
/// instead of re-resolving the name each time.
#[derive(Clone, Debug, Default)]
pub struct CounterHandle(Option<Arc<AtomicU64>>);

impl CounterHandle {
    /// A handle that drops every update (the disabled-recorder form).
    pub fn inert() -> Self {
        CounterHandle(None)
    }

    /// Adds `delta` to the interned counter (no-op when inert).
    pub fn add(&self, delta: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

/// A pre-interned max-gauge; see [`CounterHandle`] for the rationale.
#[derive(Clone, Debug, Default)]
pub struct GaugeHandle(Option<Arc<AtomicU64>>);

impl GaugeHandle {
    /// A handle that drops every update (the disabled-recorder form).
    pub fn inert() -> Self {
        GaugeHandle(None)
    }

    /// Raises the interned gauge to at least `value` (no-op when inert).
    pub fn max(&self, value: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(value, Ordering::Relaxed);
        }
    }
}

/// A pre-interned histogram; see [`CounterHandle`] for the rationale.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(Option<Arc<Histogram>>);

impl HistogramHandle {
    /// A handle that drops every update (the disabled-recorder form).
    pub fn inert() -> Self {
        HistogramHandle(None)
    }

    /// Records `value` into the interned histogram (no-op when inert).
    pub fn observe(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.observe(value);
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero.
    pub fn counter_add(&self, name: &str, delta: u64) {
        handle(&self.counters, name, || AtomicU64::new(0)).fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises max-gauge `name` to at least `value`.
    pub fn gauge_max(&self, name: &str, value: u64) {
        handle(&self.gauges, name, || AtomicU64::new(0)).fetch_max(value, Ordering::Relaxed);
    }

    /// Records `value` into histogram `name` ([`RT_BUCKETS`] bounds).
    pub fn observe(&self, name: &str, value: u64) {
        self.observe_n(name, value, 1);
    }

    /// Records `n` observations of `value` into histogram `name`, as `n`
    /// calls of [`MetricsRegistry::observe`] would: with `n = 0` the
    /// histogram is not even created.
    pub fn observe_n(&self, name: &str, value: u64, n: u64) {
        if n > 0 {
            handle(&self.histograms, name, || Histogram::new(&RT_BUCKETS)).observe_n(value, n);
        }
    }

    /// Interns counter `name` (creating it at zero) and returns a live
    /// handle so hot loops skip the name lookup on every update.
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        CounterHandle(Some(handle(&self.counters, name, || AtomicU64::new(0))))
    }

    /// Interns max-gauge `name` and returns a live handle.
    pub fn gauge_handle(&self, name: &str) -> GaugeHandle {
        GaugeHandle(Some(handle(&self.gauges, name, || AtomicU64::new(0))))
    }

    /// Interns histogram `name` ([`RT_BUCKETS`] bounds) and returns a live
    /// handle.
    pub fn histogram_handle(&self, name: &str) -> HistogramHandle {
        HistogramHandle(Some(handle(&self.histograms, name, || {
            Histogram::new(&RT_BUCKETS)
        })))
    }

    /// Adds one wall-clock observation of `ms` milliseconds under `name`.
    pub fn wall_add(&self, name: &str, ms: f64) {
        let mut walls = self.walls.lock().expect("wall map poisoned");
        let stat = walls.entry(name.to_owned()).or_default();
        stat.total_ms += ms;
        stat.count += 1;
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .read()
            .expect("metrics map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("metrics map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("metrics map poisoned")
            .iter()
            .map(|(k, h)| HistogramSnapshot {
                name: k.clone(),
                bounds: h.bounds.clone(),
                counts: h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
            })
            .collect();
        let walls = self
            .walls
            .lock()
            .expect("wall map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            walls,
        }
    }
}

/// A frozen histogram, part of a [`MetricsSnapshot`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one more entry than `bounds` (the overflow
    /// bucket).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean of the observed values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate, resolved to the upper bound of
    /// the bucket containing the `q`-th observation (`0.0 < q <= 1.0`).
    /// Returns `None` when the histogram is empty or the rank falls in
    /// the overflow bucket, whose upper edge is unknown.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(q > 0.0 && q <= 1.0) {
            return None;
        }
        // ceil(q * count) without float edge cases at q == 1.0.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds.get(i).copied();
            }
        }
        None
    }
}

/// A point-in-time copy of a registry: deterministic sections (counters,
/// gauges, histograms — logical quantities only) plus the wall-clock
/// section, kept apart so deterministic output never mixes with timing
/// noise.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` max-gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Wall-clock statistics, sorted by name. **Non-deterministic** —
    /// never include these in output that is diffed across runs.
    pub walls: Vec<(String, WallStat)>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of max-gauge `name`, if recorded.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Whether the deterministic sections are all empty.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the **deterministic** sections as aligned text. Stable
    /// across thread counts; safe to diff.
    pub fn render_text(&self) -> String {
        let mut out = String::from("metrics snapshot (logical quantities, deterministic)\n");
        if self.is_empty() {
            out.push_str("  (no metrics recorded)\n");
            return out;
        }
        let width = self
            .counters
            .iter()
            .chain(&self.gauges)
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges (max):\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        for h in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {}: count {} sum {} mean {:.3}",
                h.name,
                h.count,
                h.sum,
                h.mean()
            );
            for (i, &n) in h.counts.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                match h.bounds.get(i) {
                    Some(b) => {
                        let _ = writeln!(out, "  le {b:>6}  {n}");
                    }
                    None => {
                        let _ = writeln!(out, "  le   +inf  {n}");
                    }
                }
            }
        }
        out
    }

    /// Renders the **wall-clock** section as text. Non-deterministic by
    /// nature; emit it somewhere that is never diffed (e.g. stderr).
    pub fn render_wall_text(&self) -> String {
        if self.walls.is_empty() {
            return String::new();
        }
        let mut out = String::from("timings (wall-clock, non-deterministic)\n");
        let width = self.walls.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, stat) in &self.walls {
            let mean = if stat.count > 0 {
                stat.total_ms / stat.count as f64
            } else {
                0.0
            };
            // Names ending in `_ms` are durations; anything else in the
            // wall section is a plain (scheduling-dependent) count.
            let unit = if name.ends_with("_ms") { " ms" } else { "" };
            let _ = writeln!(
                out,
                "  {name:<width$}  n {:>6}  total {:>10.3}{unit}  mean {:>9.3}{unit}",
                stat.count, stat.total_ms, mean
            );
        }
        out
    }

    /// Renders the deterministic sections as `section,name,value` CSV.
    pub fn render_csv(&self) -> String {
        let mut out = String::from("section,name,value\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter,{},{}", name.replace(',', ";"), value);
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge,{},{}", name.replace(',', ";"), value);
        }
        for h in &self.histograms {
            let name = h.name.replace(',', ";");
            for (i, &n) in h.counts.iter().enumerate() {
                match h.bounds.get(i) {
                    Some(b) => {
                        let _ = writeln!(out, "histogram,{name}.le_{b},{n}");
                    }
                    None => {
                        let _ = writeln!(out, "histogram,{name}.le_inf,{n}");
                    }
                }
            }
            let _ = writeln!(out, "histogram,{name}.count,{}", h.count);
            let _ = writeln!(out, "histogram,{name}.sum,{}", h.sum);
        }
        out
    }

    /// The whole snapshot (including the wall section) as one JSON
    /// object.
    pub fn to_json(&self) -> crate::json::JsonValue {
        use crate::json::JsonValue as J;
        let obj_u64 = |items: &[(String, u64)]| {
            J::Object(
                items
                    .iter()
                    .map(|(n, v)| (n.clone(), J::Number(*v as f64)))
                    .collect(),
            )
        };
        let histograms = J::Array(
            self.histograms
                .iter()
                .map(|h| {
                    J::Object(vec![
                        ("name".into(), J::String(h.name.clone())),
                        (
                            "bounds".into(),
                            J::Array(h.bounds.iter().map(|&b| J::Number(b as f64)).collect()),
                        ),
                        (
                            "counts".into(),
                            J::Array(h.counts.iter().map(|&c| J::Number(c as f64)).collect()),
                        ),
                        ("count".into(), J::Number(h.count as f64)),
                        ("sum".into(), J::Number(h.sum as f64)),
                    ])
                })
                .collect(),
        );
        let walls = J::Object(
            self.walls
                .iter()
                .map(|(n, s)| {
                    (
                        n.clone(),
                        J::Object(vec![
                            ("total_ms".into(), J::Number(s.total_ms)),
                            ("count".into(), J::Number(s.count as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        J::Object(vec![
            ("counters".into(), obj_u64(&self.counters)),
            ("gauges".into(), obj_u64(&self.gauges)),
            ("histograms".into(), histograms),
            ("walls".into(), walls),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_snapshot_sorts() {
        let r = MetricsRegistry::new();
        r.counter_add("b", 2);
        r.counter_add("a", 1);
        r.counter_add("b", 3);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a".to_owned(), 1), ("b".to_owned(), 5)]);
        assert_eq!(s.counter("b"), Some(5));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn gauges_keep_the_max() {
        let r = MetricsRegistry::new();
        r.gauge_max("g", 3);
        r.gauge_max("g", 9);
        r.gauge_max("g", 5);
        assert_eq!(r.snapshot().gauge("g"), Some(9));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let r = MetricsRegistry::new();
        for v in [1, 2, 2, 1000, 5000] {
            r.observe("h", v);
        }
        let s = r.snapshot();
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 6005);
        assert_eq!(h.counts[0], 1); // le 1
        assert_eq!(h.counts[1], 2); // le 2
        assert_eq!(*h.counts.last().unwrap(), 1); // overflow
        assert!((h.mean() - 1201.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_resolve_to_bucket_bounds() {
        let r = MetricsRegistry::new();
        for v in [1, 2, 2, 1000, 5000] {
            r.observe("h", v);
        }
        let s = r.snapshot();
        let h = s.histogram("h").unwrap();
        // Ranks 1..=5 walk the cumulative counts: 1,2,2 then 1000, then
        // the 5000 observation lands in the overflow bucket (None).
        assert_eq!(h.quantile(0.2), Some(1));
        assert_eq!(h.quantile(0.5), Some(2));
        assert_eq!(
            h.quantile(0.8),
            h.bounds.iter().find(|&&b| b >= 1000).copied()
        );
        assert_eq!(h.quantile(1.0), None); // max fell past the last bound
        assert_eq!(h.quantile(0.0), None); // out of range
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
    }

    #[test]
    fn concurrent_updates_are_exact() {
        let r = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = r.clone();
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        r.counter_add("c", 1);
                        r.observe("h", i % 7);
                    }
                });
            }
        });
        let s = r.snapshot();
        assert_eq!(s.counter("c"), Some(8000));
        assert_eq!(s.histogram("h").unwrap().count, 8000);
    }

    #[test]
    fn text_render_is_stable_and_sectioned() {
        let r = MetricsRegistry::new();
        r.counter_add("rt.queries", 10);
        r.gauge_max("exec.threads", 4);
        r.observe("rt.response_time", 3);
        r.wall_add("sweep.point_ms", 1.25);
        let s = r.snapshot();
        let text = s.render_text();
        assert!(text.contains("deterministic"));
        assert!(text.contains("rt.queries"));
        assert!(text.contains("histogram rt.response_time"));
        // Wall section is *not* part of the deterministic render.
        assert!(!text.contains("sweep.point_ms"));
        let wall = s.render_wall_text();
        assert!(wall.contains("sweep.point_ms"));
        assert!(wall.contains("non-deterministic"));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let s = MetricsSnapshot::default();
        assert!(s.is_empty());
        assert!(s.render_text().contains("no metrics recorded"));
        assert_eq!(s.render_wall_text(), "");
    }

    #[test]
    fn csv_flattens_every_section() {
        let r = MetricsRegistry::new();
        r.counter_add("c", 1);
        r.gauge_max("g", 2);
        r.observe("h", 3);
        let csv = r.snapshot().render_csv();
        assert!(csv.starts_with("section,name,value\n"));
        assert!(csv.contains("counter,c,1"));
        assert!(csv.contains("gauge,g,2"));
        assert!(csv.contains("histogram,h.le_4,1"));
        assert!(csv.contains("histogram,h.count,1"));
        assert!(csv.contains("histogram,h.sum,3"));
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let r = MetricsRegistry::new();
        r.counter_add("c", 1);
        r.observe("h", 3);
        r.wall_add("w", 0.5);
        let json = r.snapshot().to_json().to_string();
        let parsed = crate::json::parse(&json).unwrap();
        assert!(parsed.get("counters").is_some());
        assert!(parsed.get("walls").is_some());
    }
}
