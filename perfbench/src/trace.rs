//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one public call the benchmark makes,
//! tagged with the phase it belongs to (a set-up, a timed op, or a layer
//! probe) and that phase's id, so every span of one op shares an op id.
//! Spans nest: each records the span that was open when it started. A
//! span's self time is its duration minus the time its direct children
//! cover. Spans stay in memory until [`Tracer::write_jsonl`].

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The phase a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// One repetition of the workload's set-up.
    Setup,
    /// One timed op.
    Op,
    /// One repetition of a layer probe (traced run only).
    Probe,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Op => "op",
            Phase::Probe => "probe",
        }
    }
}

struct Span {
    name: &'static str,
    phase: Phase,
    id: u64,
    parent: Option<usize>,
    start_ms: f64,
    end_ms: f64,
}

/// Records spans when enabled; every method is a no-op otherwise.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, phase: Phase, id: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            phase,
            id,
            parent: self.open.last().copied(),
            start_ms: self.now_ms(),
            end_ms: f64::NAN,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn exit(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.spans[idx].end_ms = self.now_ms();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        phase: Phase,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.enter(name, phase, id);
        let out = f();
        self.exit(s);
        out
    }

    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end_ms - s.start_ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ms - s.start_ms;
            }
        }
        own
    }

    /// Median over the ids of `phase` of the summed self time of spans
    /// named `name`, or `None` when no such span was recorded.
    pub fn layer_ms(&self, name: &str, phase: Phase) -> Option<f64> {
        let own = self.self_ms();
        let mut per_id: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(own) {
            if s.name == name && s.phase == phase {
                *per_id.entry(s.id).or_insert(0.0) += ms;
            }
        }
        let values: Vec<f64> = per_id.into_values().collect();
        (!values.is_empty()).then(|| crate::median(&values))
    }

    /// Self time per span name and phase: (spans, total ms).
    pub fn self_time_table(&self) -> BTreeMap<(Phase, &'static str), (usize, f64)> {
        let mut table = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(self.self_ms()) {
            let e = table.entry((s.phase, s.name)).or_insert((0usize, 0.0f64));
            e.0 += 1;
            e.1 += ms;
        }
        table
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\": {i}, \"name\": \"{}\", \"phase\": \"{}\", \"id\": {}, \
                 \"parent\": {parent}, \"start_ms\": {}, \"end_ms\": {}}}",
                s.name,
                s.phase.name(),
                s.id,
                s.start_ms,
                s.end_ms
            )?;
        }
        w.flush()
    }
}
