//! End-to-end tests of the observability subsystem: the JSON-lines
//! trace schema, the null recorder's invisibility, and the
//! `repro --metrics/--trace` CLI surface (including the determinism
//! contract across thread counts).

use decluster::grid::GridSpace;
use decluster::obs::{json, JsonLinesSink, MetricsRecorder, Obs, TraceEvent, TraceSink};
use decluster::sim::workload::SizeSweep;
use decluster::sim::{Experiment, Report, ReportFormat};
use std::process::Command;
use std::sync::Arc;

#[test]
fn json_lines_trace_matches_the_golden_schema() {
    let mut sink = JsonLinesSink::new(Vec::new());
    sink.emit(
        &TraceEvent::new("ping")
            .with("n", 1u64)
            .with("ratio", 0.5f64)
            .with("who", "kernel"),
    );
    sink.emit(&TraceEvent::new("pong").with("ok", true));
    let bytes = sink.into_inner();
    let text = String::from_utf8(bytes).unwrap();
    // Golden bytes: compact JSON, `event` first, insertion order after,
    // one event per line.
    assert_eq!(
        text,
        "{\"event\":\"ping\",\"n\":1,\"ratio\":0.5,\"who\":\"kernel\"}\n\
         {\"event\":\"pong\",\"ok\":true}\n"
    );
    // Every line re-parses and carries the required `event` key.
    for line in text.lines() {
        let v = json::parse(line).expect("trace line parses as JSON");
        assert!(v.get("event").and_then(|e| e.as_str()).is_some());
    }
}

#[test]
fn null_recorder_changes_nothing() {
    let grid = GridSpace::new_2d(16, 16).unwrap();
    let plain = Experiment::new(grid.clone(), 8)
        .with_queries_per_point(40)
        .with_seed(7)
        .run_size_sweep(&SizeSweep::new(1, 64, 6))
        .expect("sweep runs");
    let observed = Experiment::new(grid, 8)
        .with_queries_per_point(40)
        .with_seed(7)
        .with_obs(Obs::disabled())
        .run_size_sweep(&SizeSweep::new(1, 64, 6))
        .expect("sweep runs");
    assert_eq!(
        plain.render(ReportFormat::Table),
        observed.render(ReportFormat::Table)
    );
    assert_eq!(
        plain.render(ReportFormat::Csv),
        observed.render(ReportFormat::Csv)
    );
}

#[test]
fn live_recorder_does_not_change_results_and_counts_queries() {
    let grid = GridSpace::new_2d(16, 16).unwrap();
    let plain = Experiment::new(grid.clone(), 8)
        .with_queries_per_point(40)
        .with_seed(7)
        .run_size_sweep(&SizeSweep::new(1, 64, 6))
        .expect("sweep runs");
    let recorder = Arc::new(MetricsRecorder::new());
    let observed = Experiment::new(grid, 8)
        .with_queries_per_point(40)
        .with_seed(7)
        .with_obs(Obs::new(recorder.clone()))
        .run_size_sweep(&SizeSweep::new(1, 64, 6))
        .expect("sweep runs");
    assert_eq!(
        plain.render(ReportFormat::Table),
        observed.render(ReportFormat::Table)
    );
    let snap = recorder.registry().snapshot();
    assert_eq!(snap.counter("sweep.points"), Some(6));
    assert_eq!(snap.counter("rt.queries"), Some(6 * 40));
    assert!(snap.histogram("rt.response_time").is_some());
}

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn repro(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(REPRO).args(args).output().expect("repro runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn repro_metrics_snapshot_is_thread_count_invariant() {
    let (ok1, out1, err1) = repro(&["e1", "--quick", "--threads", "1", "--metrics", "-"]);
    let (ok8, out8, _) = repro(&["e1", "--quick", "--threads", "8", "--metrics", "-"]);
    assert!(ok1 && ok8);
    assert_eq!(out1, out8, "metrics snapshot must not depend on --threads");
    assert!(out1.contains("metrics snapshot (logical quantities, deterministic)"));
    assert!(out1.contains("rt.queries"));
    // Wall-clock timings stay off stdout so the diff above is clean.
    assert!(err1.contains("wall-clock"));
    assert!(!out1.contains("wall-clock"));
}

#[test]
fn repro_multiuser_is_thread_count_invariant() {
    let (ok1, out1, err1) = repro(&["multiuser", "--quick", "--threads", "1", "--metrics", "-"]);
    let (ok8, out8, _) = repro(&["multiuser", "--quick", "--threads", "8", "--metrics", "-"]);
    assert!(ok1 && ok8, "{err1}");
    // Tables (closed-loop grid + load sweep) AND the metrics snapshot
    // are byte-identical across thread counts.
    assert_eq!(out1, out8, "multiuser output must not depend on --threads");
    assert!(out1.contains("Multi-user closed loop"));
    assert!(out1.contains("Open-loop load sweep"));
    assert!(out1.contains("multiuser.queries"));
    assert!(out1.contains("multiuser.latency_ms"));
}

#[test]
fn repro_trace_lines_are_json_with_required_keys() {
    let dir = std::env::temp_dir().join(format!("obs_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let (ok, _, _) = repro(&["e1", "--quick", "--trace", trace.to_str().unwrap()]);
    assert!(ok);
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(!text.is_empty());
    for line in text.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad trace line {line:?}: {e}"));
        assert!(v.get("event").and_then(|e| e.as_str()).is_some(), "{line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_rejects_metrics_on_non_engine_experiments() {
    // `avail` left this list in PR 7: its serving sweep runs the engine,
    // so --metrics/--trace now apply.
    for exp in ["t1", "t3", "abl", "thm"] {
        let (ok, _, err) = repro(&[exp, "--metrics", "-"]);
        assert!(!ok, "{exp} should reject --metrics");
        assert!(err.contains("--metrics/--trace do not apply"), "{err}");
    }
}
