//! Observability layer for the declustering workspace.
//!
//! The experiment engine (prefix-sum RT kernel, parallel sweep executor,
//! multi-user loops, fault schedules) is a black box while it runs; this
//! crate opens it without perturbing it. It provides:
//!
//! * a lock-cheap [`MetricsRegistry`] — atomic counters, max-gauges, and
//!   fixed-bucket histograms keyed by name, safe to update from every
//!   worker thread of a sweep;
//! * phase-scoped wall-clock timers ([`Obs::time_phase`]) kept in a
//!   **separate, explicitly non-deterministic** section of the snapshot;
//! * a structured event-trace API ([`TraceEvent`]) with pluggable sinks:
//!   JSON-lines ([`JsonLinesSink`]), human text ([`TextSink`]), or
//!   nothing ([`NullSink`]);
//! * the [`Recorder`] trait with a no-op [`NullRecorder`], so a disabled
//!   recorder costs one branch on the cold side of an `enabled()` check
//!   and nothing on the hot path.
//!
//! # Determinism contract
//!
//! Every metric in the deterministic sections of a [`MetricsSnapshot`]
//! (counters, gauges, histograms) must be derived **only from logical
//! quantities** — query counts, bucket counts, logical fault clocks —
//! and updated through commutative operations (atomic add, atomic max).
//! Totals are then bit-identical for any thread count, so the harness's
//! 1-vs-8-thread determinism diffs keep passing with metrics enabled.
//! Wall-clock timings live in the snapshot's separate `walls` section
//! and are never mixed into deterministic output.
//!
//! Per-worker caches need one extra rule to stay on the deterministic
//! side: counters describing cache behaviour must be reset at batch
//! start and drained at batch end. The RT kernel's query-plan cache
//! (`kernel.plan_hits` / `kernel.plan_compiles`) does exactly this —
//! each scoring batch starts with a cold plan cache, so the counts are a
//! function of the batch's query sequence alone, never of which worker
//! (and thus which cache instance) happened to run the previous batch.
//! The serving loops' cross-query corner-plan cache follows the same
//! rule (`kernel.shape_cache_hits` / `kernel.shape_cache_misses`, one
//! probe per region the run's plan table counts through the kernel; a
//! region of at most `2^k` buckets is walked and probes nothing):
//! cleared at run start, drained at run end, so the counts are a pure
//! function of the run's query sequence — identical at any thread
//! count *and* identical whether the count kernel was built cold or
//! adopted from a persisted warm-start image. Kernel *construction*
//! work is deliberately excluded from metrics for that last reason: a
//! warm start performs zero builds where a cold start performs one per
//! method, so a build counter would break cold-vs-warm metric
//! byte-identity. Build wall time is scheduling-dependent anyway and
//! lands in the `walls` section (`kernel.build_ms`); logical build
//! counts are exposed process-wide by
//! `decluster_methods::kernel_build_count` for tests and `perfbench/`.
//!
//! # Example
//!
//! ```
//! use decluster_obs::{MetricsRecorder, Obs, Recorder, TraceEvent};
//! use std::sync::Arc;
//!
//! let recorder = Arc::new(MetricsRecorder::new());
//! let obs = Obs::new(recorder.clone());
//! obs.counter_add("rt.queries", 3);
//! obs.observe("rt.response_time", 2);
//! obs.emit(TraceEvent::new("point_done").with("point", 0u64));
//! let snap = recorder.snapshot();
//! assert_eq!(snap.counter("rt.queries"), Some(3));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
mod registry;
mod trace;

pub use registry::{
    CounterHandle, GaugeHandle, HistogramHandle, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, WallStat, RT_BUCKETS,
};
pub use trace::{FieldValue, JsonLinesSink, NullSink, TextSink, TraceEvent, TraceSink};

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The recording surface the engine talks to.
///
/// Every method has a no-op default, so [`NullRecorder`] is an empty
/// impl; the engine guards its aggregation work behind [`Recorder::enabled`],
/// which keeps the disabled path free of even the bookkeeping that would
/// feed the recorder.
pub trait Recorder: Send + Sync {
    /// Whether metric recording is on. Hot layers skip all aggregation
    /// when this is false.
    fn enabled(&self) -> bool {
        false
    }

    /// Whether trace events are consumed. Callers should check before
    /// building a [`TraceEvent`] (field vectors allocate).
    fn trace_enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    fn counter_add(&self, _name: &str, _delta: u64) {}

    /// Raises the max-gauge `name` to at least `value`.
    fn gauge_max(&self, _name: &str, _value: u64) {}

    /// Records `value` into the histogram `name` (RT bucket bounds).
    fn observe(&self, _name: &str, _value: u64) {}

    /// Records `n` observations of `value` into the histogram `name`:
    /// the snapshot equals the one `n` calls of [`Recorder::observe`]
    /// leave, so `n = 0` records nothing.
    fn observe_n(&self, _name: &str, _value: u64, _n: u64) {}

    /// Interns counter `name` and returns a handle that skips the name
    /// lookup on every update. Defaults to an inert handle, so no-op
    /// recorders pay nothing per update.
    fn counter_handle(&self, _name: &str) -> registry::CounterHandle {
        registry::CounterHandle::inert()
    }

    /// Interns max-gauge `name` and returns a live-or-inert handle.
    fn gauge_handle(&self, _name: &str) -> registry::GaugeHandle {
        registry::GaugeHandle::inert()
    }

    /// Interns histogram `name` and returns a live-or-inert handle.
    fn histogram_handle(&self, _name: &str) -> registry::HistogramHandle {
        registry::HistogramHandle::inert()
    }

    /// Adds one wall-clock observation of `ms` milliseconds to the
    /// non-deterministic `walls` section under `name`.
    fn wall_add(&self, _name: &str, _ms: f64) {}

    /// Consumes one structured trace event.
    fn emit(&self, _event: TraceEvent) {}

    /// The current deterministic + wall state as a snapshot.
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

/// The no-op recorder: every call is a no-op and `enabled()` is false.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// The live recorder: a [`MetricsRegistry`] plus an optional trace sink.
///
/// Metric updates go straight to the registry's atomics; trace events
/// serialize through a mutex around the sink (tracing is the expensive,
/// opt-in path — metrics alone never take that lock).
pub struct MetricsRecorder {
    metrics: MetricsRegistry,
    sink: Option<Mutex<Box<dyn TraceSink + Send>>>,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRecorder {
    /// A recorder with metrics only (no trace sink).
    pub fn new() -> Self {
        MetricsRecorder {
            metrics: MetricsRegistry::new(),
            sink: None,
        }
    }

    /// A recorder that also forwards trace events to `sink`.
    pub fn with_sink(sink: Box<dyn TraceSink + Send>) -> Self {
        MetricsRecorder {
            metrics: MetricsRegistry::new(),
            sink: Some(Mutex::new(sink)),
        }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Flushes the trace sink, if any.
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.sink {
            Some(sink) => sink.lock().expect("trace sink poisoned").flush(),
            None => Ok(()),
        }
    }
}

impl Recorder for MetricsRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn trace_enabled(&self) -> bool {
        self.sink.is_some()
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        self.metrics.gauge_max(name, value);
    }

    fn observe(&self, name: &str, value: u64) {
        self.metrics.observe(name, value);
    }

    fn observe_n(&self, name: &str, value: u64, n: u64) {
        self.metrics.observe_n(name, value, n);
    }

    fn counter_handle(&self, name: &str) -> CounterHandle {
        self.metrics.counter_handle(name)
    }

    fn gauge_handle(&self, name: &str) -> GaugeHandle {
        self.metrics.gauge_handle(name)
    }

    fn histogram_handle(&self, name: &str) -> HistogramHandle {
        self.metrics.histogram_handle(name)
    }

    fn wall_add(&self, name: &str, ms: f64) {
        self.metrics.wall_add(name, ms);
    }

    fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("trace sink poisoned").emit(&event);
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// A cheap, clonable handle to a [`Recorder`], shared by every layer of
/// the engine. [`Obs::disabled`] (the `Default`) wraps the no-op
/// recorder.
#[derive(Clone)]
pub struct Obs {
    recorder: Arc<dyn Recorder>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled())
            .field("trace_enabled", &self.trace_enabled())
            .finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Obs {
    /// A handle over the no-op recorder.
    pub fn disabled() -> Self {
        Obs {
            recorder: Arc::new(NullRecorder),
        }
    }

    /// A handle over `recorder`.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Obs { recorder }
    }

    /// Whether metric recording is on (hot layers guard aggregation
    /// behind this).
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Whether trace events are consumed.
    pub fn trace_enabled(&self) -> bool {
        self.recorder.trace_enabled()
    }

    /// Adds `delta` to counter `name`.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.recorder.counter_add(name, delta);
    }

    /// Raises max-gauge `name` to at least `value`.
    pub fn gauge_max(&self, name: &str, value: u64) {
        self.recorder.gauge_max(name, value);
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.recorder.observe(name, value);
    }

    /// Records `n` observations of `value` into histogram `name` in one
    /// call, as `n` calls of [`Obs::observe`] would.
    pub fn observe_n(&self, name: &str, value: u64, n: u64) {
        self.recorder.observe_n(name, value, n);
    }

    /// Interns counter `name` once, returning a handle whose updates
    /// skip the registry lookup (inert when the recorder is disabled).
    pub fn counter_handle(&self, name: &str) -> CounterHandle {
        self.recorder.counter_handle(name)
    }

    /// Interns max-gauge `name`; see [`Obs::counter_handle`].
    pub fn gauge_handle(&self, name: &str) -> GaugeHandle {
        self.recorder.gauge_handle(name)
    }

    /// Interns histogram `name`; see [`Obs::counter_handle`].
    pub fn histogram_handle(&self, name: &str) -> HistogramHandle {
        self.recorder.histogram_handle(name)
    }

    /// Adds a wall-clock observation (non-deterministic section).
    pub fn wall_add(&self, name: &str, ms: f64) {
        self.recorder.wall_add(name, ms);
    }

    /// Emits a trace event.
    pub fn emit(&self, event: TraceEvent) {
        self.recorder.emit(event);
    }

    /// Starts a phase-scoped wall-clock timer; the elapsed time is
    /// recorded under `name` when the returned guard drops. Costs
    /// nothing when the recorder is disabled.
    pub fn time_phase(&self, name: &'static str) -> PhaseTimer<'_> {
        PhaseTimer {
            obs: self,
            name,
            start: self.enabled().then(Instant::now),
        }
    }
}

/// Guard returned by [`Obs::time_phase`]; records the elapsed wall time
/// on drop.
pub struct PhaseTimer<'a> {
    obs: &'a Obs,
    name: &'static str,
    start: Option<Instant>,
}

impl PhaseTimer<'_> {
    /// Milliseconds elapsed so far (`0.0` when the recorder is
    /// disabled).
    pub fn elapsed_ms(&self) -> f64 {
        self.start
            .map(|s| s.elapsed().as_secs_f64() * 1e3)
            .unwrap_or(0.0)
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.obs
                .wall_add(self.name, start.elapsed().as_secs_f64() * 1e3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.enabled());
        assert!(!obs.trace_enabled());
        obs.counter_add("x", 1);
        obs.observe("h", 2);
        obs.emit(TraceEvent::new("e"));
        let _t = obs.time_phase("p");
        // NullRecorder snapshots are empty.
        assert_eq!(NullRecorder.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn live_recorder_accumulates() {
        let rec = Arc::new(MetricsRecorder::new());
        let obs = Obs::new(rec.clone());
        assert!(obs.enabled());
        obs.counter_add("c", 2);
        obs.counter_add("c", 3);
        obs.gauge_max("g", 7);
        obs.gauge_max("g", 4);
        obs.observe("h", 10);
        obs.wall_add("w", 1.5);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.gauges, vec![("g".to_owned(), 7)]);
        assert_eq!(snap.histograms[0].count, 1);
        assert_eq!(snap.walls.len(), 1);
    }

    #[test]
    fn observe_n_snapshots_equal_n_observes() {
        // Bucket edges, the overflow bucket, a wrapping sum and `n = 0`,
        // which must not even create the histogram.
        for (value, n) in [(3, 0), (0, 1), (7, 5), (1024, 2), (5000, 3), (u64::MAX, 3)] {
            let (once, each) = (
                Arc::new(MetricsRecorder::new()),
                Arc::new(MetricsRecorder::new()),
            );
            Obs::new(once.clone()).observe_n("rt", value, n);
            let obs = Obs::new(each.clone());
            for _ in 0..n {
                obs.observe("rt", value);
            }
            assert_eq!(once.snapshot(), each.snapshot(), "{n} x {value}");
        }
        // The no-op recorder ignores it like every other update.
        Obs::disabled().observe_n("rt", 3, 2);
        assert_eq!(NullRecorder.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn interned_handles_hit_the_same_metrics() {
        let rec = Arc::new(MetricsRecorder::new());
        let obs = Obs::new(rec.clone());
        let c = obs.counter_handle("c");
        c.add(2);
        obs.counter_add("c", 3);
        let g = obs.gauge_handle("g");
        g.max(9);
        g.max(4);
        let h = obs.histogram_handle("h");
        h.observe(4);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.gauge("g"), Some(9));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        // Handles from a disabled recorder are inert.
        let inert = Obs::disabled().counter_handle("c");
        inert.add(100);
        assert_eq!(rec.snapshot().counter("c"), Some(5));
    }

    #[test]
    fn trace_events_reach_the_sink() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let rec = Arc::new(MetricsRecorder::with_sink(Box::new(JsonLinesSink::new(
            Shared(buf.clone()),
        ))));
        let obs = Obs::new(rec.clone());
        assert!(obs.trace_enabled());
        obs.emit(TraceEvent::new("ping").with("n", 1u64));
        rec.flush().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text, "{\"event\":\"ping\",\"n\":1}\n");
    }

    #[test]
    fn phase_timer_records_wall_time() {
        let rec = Arc::new(MetricsRecorder::new());
        let obs = Obs::new(rec.clone());
        {
            let _t = obs.time_phase("phase.test_ms");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.walls.len(), 1);
        assert_eq!(snap.walls[0].0, "phase.test_ms");
        assert_eq!(snap.walls[0].1.count, 1);
    }
}
