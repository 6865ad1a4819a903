//! End-to-end and per-layer benchmark of the decluster workspace.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR [--smoke]
//! perfbench --prepare --work-dir DIR
//! ```
//!
//! One process runs one workload (see `workloads.rs`). It runs ops back
//! to back (a closed loop of one client) for `S` seconds of op time, at
//! least [`MIN_OPS`] of them, moving its thread to the next allowed core
//! every [`PIN_OPS`] ops. Set-up blocks, spread evenly over the loop, set
//! the workload up repeatedly, each ending with an untimed warm-up op.
//! The op figures come from the run's fastest [`FAST_SHARE`] of ops, the
//! set-up figure from its fastest block. Every op's output is checked; a
//! failed check is counted, never fatal.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` is the separate
//! traced run: it records a span around every public call, runs the layer
//! probes and the overhead pairs, writes the spans to DIR and prints the
//! per-layer metrics. Human-readable lines come first; the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! `--prepare` writes the kernel images serve_open adopts; run it before
//! a serve_open run. `--smoke` shortens every phase for self-tests.

mod affinity;
mod trace;
mod workloads;

use decluster_methods::kernel_build_count;
use decluster_obs::{MetricsRecorder, Obs, Recorder};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Phase, Tracer};
use workloads::{Counts, Workload};

/// On a shared machine other tenants slow one core at a time, for 0.1 s
/// to tens of seconds, by up to 1.8x; the thread's CPU time slows with
/// it, and at times a core is slowed for most of a run. The timed loop
/// moves its thread to the next allowed core every [`PIN_OPS`] ops
/// (about 0.3 s), and the op figures come from the run's fastest
/// [`FAST_SHARE`] of ops, which read the op on an unslowed core as long
/// as that share of the run found one. A figure over every op, or over
/// the fastest stretch of a few seconds, moves with how long the run
/// was slowed.
const PIN_OPS: u64 = 20;
const FAST_SHARE: f64 = 0.05;
/// Timed ops per run at least; the fastest share holds 20 or more.
const MIN_OPS: u64 = 400;
const SMOKE_MIN_OPS: u64 = 20;
/// Set-up blocks per run; each repeats the set-up for at least
/// [`SETUP_BLOCK_TIME`], in whole multiples of [`SETUP_BLOCK_REPS`].
const SETUP_BLOCKS: u32 = 16;
const SETUP_BLOCK_REPS: u64 = 3;
const SETUP_BLOCK_TIME: Duration = Duration::from_millis(100);
/// Ops whose work counts are summed; they repeat exactly per seed.
const COUNT_OPS: u64 = 8;
/// Share of the run the traced loop takes; the rest goes to the
/// overhead pairs and the layer probes.
const TRACED_LOOP_SHARE: f64 = 0.5;
const TRACED_MIN_OPS: u64 = 40;
/// Op pairs behind each overhead ratio.
const OVERHEAD_PAIRS: u64 = 12;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The lowest value of a non-empty sample.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank quantile of a sorted non-empty sample.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    smoke: bool,
    prepare: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from("perfbench-work"),
        smoke: false,
        prepare: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds needs a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            "--prepare" => args.prepare = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.prepare && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Runs `op` once and returns its wall time in ms, its outcome and the
/// kernel builds it caused.
fn timed_op(
    w: &mut dyn Workload,
    op: u64,
    obs: &Obs,
    tr: &mut Tracer,
) -> (f64, workloads::Outcome) {
    let builds = kernel_build_count();
    let span = tr.enter("bench.op", Phase::Op, op);
    let t = Instant::now();
    let mut out = w.op(op, obs, tr);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.exit(span);
    out.counts.kernel_builds = kernel_build_count() - builds;
    (ms, out)
}

/// One set-up block: sets the workload up repeatedly, appending each
/// set-up time to `setup_s`, then runs one checked, untimed warm-up op on
/// the last instance to refill caches and scratch. Returns that instance,
/// whether the warm-up op passed its checks, and the block's median
/// set-up time.
fn setup_block(
    args: &Args,
    setup_s: &mut Vec<f64>,
    tr: &mut Tracer,
) -> (Box<dyn Workload>, bool, f64) {
    let first = setup_s.len();
    let mut w = None;
    let start = Instant::now();
    while w.is_none()
        || !(setup_s.len() as u64).is_multiple_of(SETUP_BLOCK_REPS)
        || start.elapsed() < SETUP_BLOCK_TIME
    {
        drop(w.take());
        let rep = setup_s.len() as u64;
        let root = tr.enter("bench.setup", Phase::Setup, rep);
        let t = Instant::now();
        w = Some(workloads::setup(
            &args.workload,
            args.seed,
            rep,
            &args.work_dir,
            tr,
        ));
        setup_s.push(t.elapsed().as_secs_f64());
        tr.exit(root);
    }
    let mut w: Box<dyn Workload> = w.expect("the block ran a set-up");
    let was_on = tr.enabled();
    tr.set_enabled(false);
    let (_, warm) = timed_op(w.as_mut(), 0, &Obs::disabled(), tr);
    tr.set_enabled(was_on);
    (w, warm.ok, median(&setup_s[first..]))
}

/// Alternating op pairs `(a, b)`: returns median(b) / median(a).
fn pair_ratio(
    w: &mut dyn Workload,
    first_op: u64,
    tr: &mut Tracer,
    mut run: impl FnMut(&mut dyn Workload, u64, bool, &mut Tracer) -> f64,
) -> f64 {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for j in 0..OVERHEAD_PAIRS {
        let op = first_op + j;
        if j % 2 == 0 {
            a.push(run(w, op, false, tr));
            b.push(run(w, op, true, tr));
        } else {
            b.push(run(w, op, true, tr));
            a.push(run(w, op, false, tr));
        }
    }
    median(&b) / median(&a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.prepare {
        return match workloads::prepare_open(&args.work_dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: cannot write images: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let metrics = run(&args);
    if let Some(bad) = metrics.1.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }
    let (summary, metrics) = metrics;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        summary.failed == 0,
        summary.attempted,
        summary.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

struct Summary {
    attempted: u64,
    failed: u64,
}

fn run(args: &Args) -> (Summary, Vec<Metric>) {
    let setup_blocks = if args.smoke { 2 } else { SETUP_BLOCKS };
    let mut tr = Tracer::new(args.trace);
    let disabled = Obs::disabled();
    let mut setup_s = Vec::new();
    let (mut w, warm_ok, block_s) = setup_block(args, &mut setup_s, &mut tr);
    let mut block_setup_s = vec![block_s];
    let mut attempted = 1u64;
    let mut failed = u64::from(!warm_ok);
    println!(
        "workload {} seed {} inputs {:016x} trace {}",
        args.workload,
        args.seed,
        w.fingerprint(),
        u8::from(args.trace)
    );

    // The timed closed loop. Set-up blocks are spread evenly over it, so
    // set-up and ops sample the same stretch of machine time.
    let (budget, min_ops) = match (args.trace, args.smoke) {
        (true, _) => (args.seconds * TRACED_LOOP_SHARE, TRACED_MIN_OPS),
        (false, true) => (args.seconds, SMOKE_MIN_OPS),
        (false, false) => (args.seconds, MIN_OPS),
    };
    let mut op_ms = Vec::new();
    let mut op_queries = Vec::new();
    let mut work = Counts {
        kernel_builds: w.setup_kernel_builds(),
        ..Counts::default()
    };
    let cores = affinity::Cores::of_this_thread();
    let mut loop_s = 0.0;
    let mut op = 0u64;
    while loop_s < budget || op < min_ops.max(COUNT_OPS) {
        if !args.trace && op.is_multiple_of(PIN_OPS) {
            cores.pin((op / PIN_OPS) as usize);
        }
        let blocks = block_setup_s.len() as u32;
        if blocks < setup_blocks && loop_s >= budget * f64::from(blocks) / f64::from(setup_blocks) {
            drop(w);
            let (warm_ok, block_s);
            (w, warm_ok, block_s) = setup_block(args, &mut setup_s, &mut tr);
            block_setup_s.push(block_s);
            attempted += 1;
            failed += u64::from(!warm_ok);
        }
        let (ms, out) = timed_op(w.as_mut(), op, &disabled, &mut tr);
        loop_s += ms / 1e3;
        op_ms.push(ms);
        op_queries.push(out.queries);
        attempted += 1;
        failed += u64::from(!out.ok);
        if op < COUNT_OPS {
            work.add(&out.counts);
        }
        op += 1;
    }
    cores.release();
    let w = w.as_mut();

    println!(
        "setup {:.6} s (fastest of {} blocks, {} set-ups); {} ops in {:.3} s",
        fastest(&block_setup_s),
        block_setup_s.len(),
        setup_s.len(),
        op_ms.len(),
        loop_s
    );

    let mut metrics = Vec::new();
    if !args.trace {
        // The fastest FAST_SHARE of ops: their queries per second, and
        // the nearest-rank p5 of all op times (the slowest of them).
        let mut by_ms: Vec<(f64, u64)> = op_ms.iter().copied().zip(op_queries).collect();
        by_ms.sort_by(|a, b| a.0.total_cmp(&b.0));
        let sorted: Vec<f64> = by_ms.iter().map(|&(ms, _)| ms).collect();
        let n_fast = (FAST_SHARE * sorted.len() as f64).ceil() as usize;
        let fast = &by_ms[..n_fast];
        let fast_s = fast.iter().map(|&(ms, _)| ms).sum::<f64>() / 1e3;
        let fast_queries = fast.iter().map(|&(_, q)| q).sum::<u64>();
        println!(
            "fastest {n_fast} of {} ops, taking turns on {} cores every {PIN_OPS} ops",
            sorted.len(),
            cores.count()
        );
        metrics.push(Metric::new("setup_s", fastest(&block_setup_s), "s"));
        metrics.push(Metric::new(
            "queries_per_s",
            fast_queries as f64 / fast_s,
            "1/s",
        ));
        metrics.push(Metric::new(
            "op_ms_p5",
            nearest_rank(&sorted, FAST_SHARE),
            "ms",
        ));
        metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
        // Printed, not declared: over every op they move with how long
        // other tenants slowed the run.
        println!("op_ms_p50 {} ms", nearest_rank(&sorted, 0.50));
        println!("op_ms_p95 {} ms", nearest_rank(&sorted, 0.95));
        println!("failed_ratio {}", failed as f64 / attempted as f64);
        for (name, value) in work.fields() {
            println!("work {name} {value}");
        }
    } else {
        let (probe_metrics, probes_ok, obs_counters, overheads) = traced_extras(w, op, &mut tr);
        attempted += 1;
        failed += u64::from(!probes_ok);
        println!("attribution cells byte-identical: {probes_ok}");
        metrics = per_layer(&tr, &work, &obs_counters, probe_metrics, overheads);
        for (name, value) in work.fields() {
            println!("work {name} {value}");
        }
        for (name, value) in &obs_counters {
            println!("work obs.{name} {value}");
        }
        print_self_times(&tr);
        let path = args
            .work_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&args.work_dir).and_then(|()| tr.write_jsonl(&path)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    (Summary { attempted, failed }, metrics)
}

/// The traced run's extras after its timed loop: the obs and trace
/// overhead pairs, the obs counters of the counted ops, and the layer
/// probes.
fn traced_extras(
    w: &mut dyn Workload,
    next_op: u64,
    tr: &mut Tracer,
) -> (Vec<Metric>, bool, Vec<(String, u64)>, (f64, f64)) {
    // Trace overhead: the same op untraced, then traced (order
    // alternating), on op ids past the timed loop.
    let trace_ratio = pair_ratio(w, next_op, tr, |w, op, traced, tr| {
        tr.set_enabled(traced);
        let (ms, _) = timed_op(w, op, &Obs::disabled(), tr);
        tr.set_enabled(true);
        ms
    });

    // Obs overhead: the same op with a disabled and a registry-backed
    // Obs. The first COUNT_OPS ops' counters are deterministic.
    let counted = Arc::new(MetricsRecorder::new());
    let rest = Arc::new(MetricsRecorder::new());
    let obs_ratio = {
        let (counted_obs, rest_obs) = (Obs::new(counted.clone()), Obs::new(rest.clone()));
        tr.set_enabled(false);
        let ratio = pair_ratio(w, 0, tr, |w, op, enabled, tr| {
            let obs = match (enabled, op < COUNT_OPS) {
                (false, _) => Obs::disabled(),
                (true, true) => counted_obs.clone(),
                (true, false) => rest_obs.clone(),
            };
            timed_op(w, op, &obs, tr).0
        });
        tr.set_enabled(true);
        ratio
    };
    let counters = counted.snapshot().counters;

    let (metrics, ok) = w.probes(tr);
    (metrics, ok, counters, (obs_ratio, trace_ratio))
}

fn per_layer(
    tr: &Tracer,
    work: &Counts,
    counters: &[(String, u64)],
    probe_metrics: Vec<Metric>,
    (obs_ratio, trace_ratio): (f64, f64),
) -> Vec<Metric> {
    // A layer on the workload's own path is read from its set-up or op
    // spans; a layer off the path from its probe spans.
    let layer = |name: &str| {
        [Phase::Setup, Phase::Op, Phase::Probe]
            .iter()
            .find_map(|&p| tr.layer_ms(name, p))
            .unwrap_or(f64::NAN)
    };
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (hits, misses) = match (
        counter("kernel.shape_cache_hits"),
        counter("kernel.shape_cache_misses"),
    ) {
        (0, 0) => (counter("kernel.plan_hits"), counter("kernel.plan_compiles")),
        pair => pair,
    };
    let offered = work.served + work.shed + work.lost;
    let q = work.queries;

    let mut m = vec![
        Metric::new(
            "grid.directory_build_ms",
            layer("grid.directory_build"),
            "ms",
        ),
        Metric::new("core.method_build_ms", layer("core.method_build"), "ms"),
        Metric::new("core.kernel_build_ms", layer("core.kernel_build"), "ms"),
        Metric::new("core.kernel_adopt_ms", layer("core.kernel_adopt"), "ms"),
        Metric::new(
            "core.shape_cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        Metric::new("sim.arrivals_ms_per_op", layer("sim.arrivals"), "ms"),
        Metric::new("sim.serve_ms_per_op", layer("sim.serve"), "ms"),
        Metric::new("sim.events_per_query", ratio(work.events, q), "1/query"),
        Metric::new("sim.pages_per_query", ratio(work.pages, q), "1/query"),
        Metric::new("sim.peak_in_flight", work.peak_in_flight as f64, "count"),
        Metric::new(
            "sim.share.pages_saved_ratio",
            ratio(work.share_saved, work.pages + work.share_saved),
            "ratio",
        ),
        Metric::new(
            "sim.share.merged_ratio",
            ratio(work.share_merged, q),
            "ratio",
        ),
        Metric::new(
            "sim.faults.retries_per_query",
            ratio(work.retries, q),
            "1/query",
        ),
        Metric::new(
            "sim.faults.failover_ratio",
            ratio(work.failovers, q),
            "1/query",
        ),
        Metric::new(
            "sim.faults.availability",
            if offered == 0 {
                1.0
            } else {
                ratio(work.served, offered)
            },
            "ratio",
        ),
        Metric::new("sim.sweep_ms_per_point", layer("sim.sweep"), "ms"),
        Metric::new("sim.report_render_ms", layer("sim.render"), "ms"),
        Metric::new("obs.overhead_ratio", obs_ratio, "ratio"),
        Metric::new("bench.trace_overhead_ratio", trace_ratio, "ratio"),
    ];
    // A workload's own figure for a layer replaces the generic one.
    m.retain(|g| probe_metrics.iter().all(|p| p.name != g.name));
    m.extend(probe_metrics);
    for (name, value) in work.fields() {
        m.push(Metric::new(name, value as f64, "count"));
    }
    m.push(Metric::new("work.shape_cache_hits", hits as f64, "count"));
    m.push(Metric::new(
        "work.shape_cache_misses",
        misses as f64,
        "count",
    ));
    m
}

fn print_self_times(tr: &Tracer) {
    println!(
        "{:<8} {:<24} {:>7} {:>12}",
        "phase", "span", "spans", "self ms"
    );
    for ((phase, name), (n, ms)) in tr.self_time_table() {
        println!(
            "{:<8} {:<24} {:>7} {:>12.3}",
            format!("{phase:?}"),
            name,
            n,
            ms
        );
    }
}
