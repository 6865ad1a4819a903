//! Reproduction harness: regenerates every table and figure of the
//! ICDE'94 declustering study.
//!
//! Run `repro` with no arguments for the usage text — it is generated
//! from the [`EXPERIMENTS`] table below, the single source of truth for
//! experiment names, descriptions, and which experiments accept
//! `--metrics` / `--trace` (the ones that run through the instrumented
//! evaluation engine).
//!
//! `--quick` cuts the query budget (for smoke tests); `--csv DIR` also
//! writes each sweep as CSV into DIR; `--threads N` (N ≥ 1) evaluates
//! sweep points on N worker threads — the tables are bit-identical for
//! every thread count, and so is the `--metrics` snapshot (wall-clock
//! timings go to stderr). `--faults SPEC` overrides the fault schedule
//! of the `faults` experiment (grammar: `fail:D@T`, `transient:D@A..B`,
//! `slow:DxF@A..B`, comma-separated; see EXPERIMENTS.md); `--method
//! NAME` restricts the `faults` table to one method.

use decluster::grid::GridDirectory;
use decluster::obs::{JsonLinesSink, MetricsRecorder, Obs};
use decluster::prelude::*;
use decluster::sim::workload::{all_partial_match_queries, ShapeSweep, SizeSweep};
use decluster::sim::{
    simulate_rebuild, AvailSweep, DbSizePoint, DiskParams, FaultEvent, FaultReport, FaultSchedule,
    LoadPoint, ReplicaPolicy, Report, ReportFormat, RetryPolicy, ServeSweep, ShareSweep, TextTable,
};
use decluster::theory::{impossibility, partial_match};
use std::process::ExitCode;
use std::sync::Arc;

/// Default configuration of the study (see EXPERIMENTS.md).
const GRID_SIDE: u32 = 64;
const DISKS: u32 = 16;
const SEED: u64 = 1994;

/// One experiment the harness can run: CLI name, usage-line description,
/// and whether it runs through the instrumented evaluation engine (the
/// sweep / fault / multi-user paths that feed `--metrics` and
/// `--trace`). This table is the single source of truth for the usage
/// text, name validation, and the metrics/trace gate.
struct ExperimentSpec {
    name: &'static str,
    describe: &'static str,
    engine: bool,
}

const EXPERIMENTS: &[ExperimentSpec] = &[
    ExperimentSpec {
        name: "e1",
        describe: "query-size sweep, 2-D (paper Experiment 1 / Fig 3)",
        engine: true,
    },
    ExperimentSpec {
        name: "e2",
        describe: "query-shape sweep (paper Experiment 2 / Fig 4)",
        engine: true,
    },
    ExperimentSpec {
        name: "e3",
        describe: "query-size sweep, 3 attributes (paper Experiment 3 / Fig 6)",
        engine: true,
    },
    ExperimentSpec {
        name: "e4",
        describe: "disks sweep, small queries (paper Fig 5a)",
        engine: true,
    },
    ExperimentSpec {
        name: "e5",
        describe: "disks sweep, large queries (paper Fig 5b)",
        engine: true,
    },
    ExperimentSpec {
        name: "e6",
        describe: "database-size sweep",
        engine: true,
    },
    ExperimentSpec {
        name: "t1",
        describe: "partial-match optimality-condition table (paper Table 1)",
        engine: false,
    },
    ExperimentSpec {
        name: "t2",
        describe: "partial-match response-time table",
        engine: true,
    },
    ExperimentSpec {
        name: "t3",
        describe: "exact worst/mean/optimal-fraction shape profiles (extension)",
        engine: false,
    },
    ExperimentSpec {
        name: "mix",
        describe: "mixed-workload table: OLTP / OLAP / scan-heavy mixes (extension)",
        engine: true,
    },
    ExperimentSpec {
        name: "avail",
        describe:
            "availability: r-way replication x policy x fault schedule serving sweep (extension)",
        engine: true,
    },
    ExperimentSpec {
        name: "abl",
        describe: "space-filling-curve ablation for HCAM (extension)",
        engine: false,
    },
    ExperimentSpec {
        name: "thm",
        describe: "the M > 5 impossibility theorem",
        engine: false,
    },
    ExperimentSpec {
        name: "faults",
        describe: "degraded-mode table under an injected fault schedule (extension)",
        engine: true,
    },
    ExperimentSpec {
        name: "multiuser",
        describe: "multi-user closed-loop throughput grid + open-loop load sweep (extension)",
        engine: true,
    },
    ExperimentSpec {
        name: "serve",
        describe: "event-driven open-loop serving: per-method saturation-knee curves (extension)",
        engine: true,
    },
    ExperimentSpec {
        name: "share",
        describe:
            "shared-scan batching: shared vs unshared serving across overlap x replicas (extension)",
        engine: true,
    },
    ExperimentSpec {
        name: "all",
        describe: "everything above",
        engine: true,
    },
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let mut u = format!(
        "usage: repro <{}>\n       [--csv DIR] [--quick] [--threads N] [--faults SPEC] \
         [--method NAME]\n       [--replicas R] [--policy NAME] [--clients N] \
         [--rate R]\n       [--share F] [--batch-window MS] [--metrics FILE|-] \
         [--trace FILE|-]\n\n\
         experiments:\n",
        names.join("|")
    );
    for e in EXPERIMENTS {
        u.push_str(&format!("  {:<6} {}\n", e.name, e.describe));
    }
    u.push_str(
        "\n--metrics writes the deterministic metrics snapshot (wall-clock timings go\n\
         to stderr); --trace writes JSON-lines trace events; `-` means stdout. Both\n\
         apply only to experiments that run the instrumented engine:\n ",
    );
    for e in EXPERIMENTS.iter().filter(|e| e.engine) {
        u.push(' ');
        u.push_str(e.name);
    }
    u.push('\n');
    u.push_str(&format!(
        "\n--replicas R (1..{DISKS}) sets the r-way chain depth and --policy \
         ({}) the replica routing\nof the faults, avail, and fault-injected serve \
         experiments.\n",
        ReplicaPolicy::ACCEPTED_NAMES
    ));
    u.push_str(
        "\n--share F redirects fraction F (0..=1) of the serve stream to one hot\n\
         scan and --batch-window MS merges arrivals within MS ms into one shared\n\
         scan; either routes `serve` through the shared-scan path (spread policy,\n\
         healthy mode only, so not combinable with --faults). The `share`\n\
         experiment sweeps overlap x replicas and honors --share as one overlap.\n",
    );
    u
}

/// Shared validation of numeric flag arguments: parses the flag's value
/// and checks it, rendering rejections with the one uniform one-line
/// phrasing `--<flag> needs <what>` used by `--threads` and
/// `--batch-window`.
fn parse_flag<T: std::str::FromStr>(
    flag: &str,
    what: &str,
    arg: Option<&String>,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    arg.and_then(|s| s.parse::<T>().ok())
        .filter(|v| valid(v))
        .ok_or_else(|| format!("{flag} needs {what}"))
}

struct Opts {
    csv_dir: Option<String>,
    queries: usize,
    quick: bool,
    threads: usize,
    /// Arrivals per (rate, method) cell of the `serve` experiment;
    /// `None` = 50,000 (5,000 with `--quick`).
    clients: Option<usize>,
    /// Base arrival rate (queries/s) the `serve` sweep scales around.
    rate: f64,
    /// Fault schedule for the `faults` experiment; `None` = the default
    /// mid-workload single-disk failure.
    faults: Option<FaultSchedule>,
    /// Restrict the `faults` table to one method (validated name).
    method: Option<MethodKind>,
    /// Extra copies per bucket for the replication-aware experiments;
    /// `None` = 1 for `faults`/`serve`, the {1, 2, 3} sweep for `avail`.
    replicas: Option<u32>,
    /// Replica-selection policy; `None` = failover for `faults`/`serve`,
    /// all four policies for `avail`.
    policy: Option<ReplicaPolicy>,
    /// Hot-scan overlap fraction: this share of the `serve` stream is
    /// redirected to one hot scan and the sweep runs through the
    /// shared-scan path; `None` = unshared (0 for the `share` sweep).
    share: Option<f64>,
    /// Shared-scan batch window in ms for the `serve` sweep; `None` =
    /// unshared (0 ms once `--share` routes it through the shared path).
    batch_window: Option<f64>,
    /// Destination for the deterministic metrics snapshot (`-` = stdout).
    metrics: Option<String>,
    /// Destination for JSON-lines trace events (`-` = stdout).
    trace: Option<String>,
    /// The observability handle threaded through the engine; disabled
    /// unless `--metrics` or `--trace` was given.
    obs: Obs,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = None;
    let mut opts = Opts {
        csv_dir: None,
        queries: 1000,
        quick: false,
        threads: 1,
        clients: None,
        rate: 12.0,
        faults: None,
        method: None,
        replicas: None,
        policy: None,
        share: None,
        batch_window: None,
        metrics: None,
        trace: None,
        obs: Obs::disabled(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => match it.next() {
                Some(dir) => opts.csv_dir = Some(dir.clone()),
                None => {
                    eprintln!("--csv needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--quick" => {
                opts.queries = 100;
                opts.quick = true;
            }
            "--threads" => {
                match parse_flag(
                    "--threads",
                    "a positive thread count",
                    it.next(),
                    |&n: &usize| n > 0,
                ) {
                    Ok(n) => opts.threads = n,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--clients" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(0) | None => {
                    eprintln!("--clients needs a positive client count");
                    return ExitCode::FAILURE;
                }
                Some(n) => opts.clients = Some(n),
            },
            "--rate" => match it.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(r) if r > 0.0 && r.is_finite() => opts.rate = r,
                _ => {
                    eprintln!("--rate needs a positive arrival rate");
                    return ExitCode::FAILURE;
                }
            },
            "--faults" => match it.next() {
                Some(spec) => match FaultSchedule::parse(spec, DISKS) {
                    Ok(schedule) => opts.faults = Some(schedule),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--faults needs a schedule spec (e.g. fail:3@50)");
                    return ExitCode::FAILURE;
                }
            },
            "--method" => match it.next() {
                Some(name) => match MethodKind::parse(name) {
                    Ok(kind) => opts.method = Some(kind),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--method needs a method name (e.g. HCAM)");
                    return ExitCode::FAILURE;
                }
            },
            "--replicas" => match it.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(r) if (1..DISKS).contains(&r) => opts.replicas = Some(r),
                _ => {
                    eprintln!("--replicas needs a replica count in 1..{DISKS} (M = {DISKS} disks)");
                    return ExitCode::FAILURE;
                }
            },
            "--policy" => match it.next() {
                Some(name) => match ReplicaPolicy::parse(name) {
                    Ok(policy) => opts.policy = Some(policy),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!(
                        "--policy needs a replica policy ({})",
                        ReplicaPolicy::ACCEPTED_NAMES
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--share" => match it.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(f) if (0.0..=1.0).contains(&f) => opts.share = Some(f),
                _ => {
                    eprintln!("--share needs an overlap fraction in 0..=1");
                    return ExitCode::FAILURE;
                }
            },
            "--batch-window" => {
                match parse_flag(
                    "--batch-window",
                    "a non-negative window in ms",
                    it.next(),
                    |&w: &f64| w.is_finite() && w >= 0.0,
                ) {
                    Ok(w) => opts.batch_window = Some(w),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--metrics" => match it.next() {
                Some(dest) => opts.metrics = Some(dest.clone()),
                None => {
                    eprintln!("--metrics needs a destination file (or - for stdout)");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match it.next() {
                Some(dest) => opts.trace = Some(dest.clone()),
                None => {
                    eprintln!("--trace needs a destination file (or - for stdout)");
                    return ExitCode::FAILURE;
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other if experiment.is_none() => experiment = Some(other.to_owned()),
            other => {
                eprintln!("unexpected argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(experiment) = experiment else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let Some(spec) = EXPERIMENTS.iter().find(|e| e.name == experiment) else {
        eprintln!("unknown experiment {experiment:?}");
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    if (opts.metrics.is_some() || opts.trace.is_some()) && !spec.engine {
        eprintln!(
            "--metrics/--trace do not apply to {experiment}: it computes exact \
             tables without running the instrumented engine"
        );
        return ExitCode::FAILURE;
    }
    let recorder = if opts.metrics.is_some() || opts.trace.is_some() {
        let rec = match opts.trace.as_deref() {
            Some("-") => MetricsRecorder::with_sink(Box::new(JsonLinesSink::new(Box::new(
                std::io::stdout(),
            )
                as Box<dyn std::io::Write + Send>))),
            Some(path) => match std::fs::File::create(path) {
                Ok(f) => MetricsRecorder::with_sink(Box::new(JsonLinesSink::new(
                    Box::new(f) as Box<dyn std::io::Write + Send>
                ))),
                Err(e) => {
                    eprintln!("could not create trace file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => MetricsRecorder::new(),
        };
        let rec = Arc::new(rec);
        opts.obs = Obs::new(rec.clone());
        Some(rec)
    } else {
        None
    };
    if let Err(e) = run(&experiment, &opts) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if let Some(rec) = recorder {
        if let Err(e) = rec.flush() {
            eprintln!("could not flush trace sink: {e}");
            return ExitCode::FAILURE;
        }
        let snapshot = rec.registry().snapshot();
        if let Some(dest) = &opts.metrics {
            // Deterministic sections go to the requested destination (so
            // 1-vs-N-thread diffs stay clean); wall-clock timings always
            // go to stderr.
            let format = metrics_format(dest);
            if dest == "-" {
                print!("{}", snapshot.render(format));
            } else if let Err(e) = std::fs::write(dest, snapshot.render(format)) {
                eprintln!("could not write metrics to {dest}: {e}");
                return ExitCode::FAILURE;
            }
            eprint!("{}", snapshot.render_wall_text());
        }
    }
    ExitCode::SUCCESS
}

/// Picks the metrics report format from the destination name: `.json`
/// and `.csv` extensions select those formats, everything else (incl.
/// `-`) gets the text table.
fn metrics_format(dest: &str) -> ReportFormat {
    if dest.ends_with(".json") {
        ReportFormat::Json
    } else if dest.ends_with(".csv") {
        ReportFormat::Csv
    } else {
        ReportFormat::Table
    }
}

/// Runs `experiment` (or every experiment, for `all`), printing each
/// table and writing its CSVs under `--csv`.
fn run(experiment: &str, opts: &Opts) -> Result<(), String> {
    let runs = |name: &str| experiment == name || experiment == "all";
    if runs("e1") {
        emit(opts, "e1", &e1(opts))?;
    }
    if runs("e2") {
        emit(opts, "e2", &e2(opts))?;
    }
    if runs("e3") {
        emit(opts, "e3", &e3(opts))?;
    }
    if runs("e4") {
        emit(opts, "e4", &e4(opts))?;
    }
    if runs("e5") {
        emit(opts, "e5", &e5(opts))?;
    }
    if runs("e6") {
        emit(opts, "e6", &e6(opts))?;
    }
    if runs("t1") {
        println!("{}", t1());
    }
    if runs("t2") {
        emit(opts, "t2", &t2(opts))?;
    }
    if runs("t3") {
        println!("{}", t3());
    }
    if runs("mix") {
        emit(opts, "mix", &mixes(opts))?;
    }
    if runs("avail") {
        println!("{}", availability());
        emit(opts, "avail", &avail_sweep(opts)?)?;
    }
    if runs("abl") {
        println!("{}", ablation());
    }
    if runs("thm") {
        println!("{}", thm());
    }
    if runs("faults") {
        let schedule = fault_schedule(opts);
        emit(opts, "faults", &faults(opts, &schedule)?)?;
        println!("{}", rebuild_summary(opts, &schedule));
    }
    if runs("multiuser") {
        emit(opts, "multiuser", &multiuser_grid(opts))?;
        let points = load_curve(opts);
        print!("{}", load_sweep_table(&points).render());
        write_csv(opts, "loadsweep", || load_sweep_csv(&points))?;
    }
    if runs("serve") {
        let sweep = serve_sweep(opts)?;
        emit(opts, "serve", &sweep)?;
        write_csv(opts, "serve_samples", || serve_samples_csv(&sweep))?;
    }
    if runs("share") {
        emit(opts, "share", &share_sweep_exp(opts)?)?;
    }
    Ok(())
}

/// Prints `report`'s table and, under `--csv`, writes its CSV as
/// `name.csv`.
fn emit(opts: &Opts, name: &str, report: &dyn Report) -> Result<(), String> {
    println!("{}", report.render(ReportFormat::Table));
    write_csv(opts, name, || report.render(ReportFormat::Csv))
}

/// Under `--csv DIR`, writes `DIR/name.csv`; `csv` renders it only then.
fn write_csv(opts: &Opts, name: &str, csv: impl FnOnce() -> String) -> Result<(), String> {
    let Some(dir) = &opts.csv_dir else {
        return Ok(());
    };
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(format!("{dir}/{name}.csv"), csv()))
        .map_err(|e| format!("could not write {name}.csv: {e}"))
}

fn grid_2d() -> GridSpace {
    GridSpace::new_2d(GRID_SIDE, GRID_SIDE).expect("default grid")
}

fn experiment_2d(opts: &Opts) -> Experiment {
    Experiment::new(grid_2d(), DISKS)
        .with_queries_per_point(opts.queries)
        .with_seed(SEED)
        .with_threads(opts.threads)
        .with_obs(opts.obs.clone())
}

/// E1: query area 1 → 1024 on the 64×64 grid, near-square shapes.
fn e1(opts: &Opts) -> SweepResult {
    let areas = vec![
        1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
    ];
    experiment_2d(opts)
        .run_size_sweep(&SizeSweep::explicit(areas))
        .expect("E1 configuration is valid")
}

/// E2: aspect ratio 1:1 → 1:64 at fixed area 64.
fn e2(opts: &Opts) -> SweepResult {
    experiment_2d(opts)
        .run_shape_sweep(&ShapeSweep::new(64, 6))
        .expect("E2 configuration is valid")
}

/// E3: three attributes (16³ grid), query volume sweep.
fn e3(opts: &Opts) -> SweepResult {
    let space = GridSpace::new_cube(3, 16).expect("cube grid");
    Experiment::new(space, DISKS)
        .with_queries_per_point(opts.queries)
        .with_seed(SEED)
        .with_threads(opts.threads)
        .with_obs(opts.obs.clone())
        .run_size_sweep(&SizeSweep::explicit(vec![
            1, 8, 27, 64, 125, 216, 512, 1024,
        ]))
        .expect("E3 configuration is valid")
}

const DISK_SWEEP: [u32; 16] = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32];

/// E4 / Fig 5(a): disks 2 → 32, small queries (area 4).
fn e4(opts: &Opts) -> SweepResult {
    experiment_2d(opts)
        .run_disk_sweep(&DISK_SWEEP, 4)
        .expect("E4 configuration is valid")
}

/// E5 / Fig 5(b): disks 2 → 32, large queries (area 256).
fn e5(opts: &Opts) -> SweepResult {
    experiment_2d(opts)
        .run_disk_sweep(&DISK_SWEEP, 256)
        .expect("E5 configuration is valid")
}

/// E6: database size 16 → 256 per side, query side an eighth of the grid.
fn e6(opts: &Opts) -> SweepResult {
    let points: Vec<DbSizePoint> = [16u32, 32, 64, 128, 256]
        .iter()
        .map(|&side| DbSizePoint {
            side,
            query_side: (side / 8).max(1),
        })
        .collect();
    experiment_2d(opts)
        .run_dbsize_sweep(&points)
        .expect("E6 configuration is valid")
}

/// T1: the optimality-condition table, verified empirically over every
/// partial-match query of the default grid.
fn t1() -> String {
    use decluster::methods::{AllocationMap, DiskModulo, FieldwiseXor};
    let space = grid_2d();
    let queries = all_partial_match_queries(&space);
    let mut out = String::new();
    out.push_str(&format!(
        "T1: partial-match optimality conditions, verified on {}x{} grid, M={} ({} queries)\n",
        GRID_SIDE,
        GRID_SIDE,
        DISKS,
        queries.len()
    ));
    out.push_str("method  predicted  confirmed  violated  bonus-optimal  unpredicted-suboptimal\n");
    let dm = AllocationMap::from_method(&space, &DiskModulo::new(&space, DISKS).unwrap()).unwrap();
    let check = partial_match::check_prediction(&dm, &queries, partial_match::dm_predicts_optimal);
    out.push_str(&format!(
        "{:6}  {:>9}  {:>9}  {:>8}  {:>13}  {:>22}\n",
        "DM",
        check.predicted,
        check.confirmed,
        check.violated,
        check.bonus_optimal,
        check.unpredicted_suboptimal
    ));
    let fx =
        AllocationMap::from_method(&space, &FieldwiseXor::new(&space, DISKS).unwrap()).unwrap();
    let check = partial_match::check_prediction(&fx, &queries, partial_match::fx_predicts_optimal);
    out.push_str(&format!(
        "{:6}  {:>9}  {:>9}  {:>8}  {:>13}  {:>22}\n",
        "FX",
        check.predicted,
        check.confirmed,
        check.violated,
        check.bonus_optimal,
        check.unpredicted_suboptimal
    ));
    // ECC and HCAM carry no exact partial-match guarantee in the paper's
    // table; report their empirical behaviour with a never-predicting
    // predicate (everything lands in the bonus/suboptimal columns).
    let registry = MethodRegistry::default();
    for name in ["ECC", "HCAM"] {
        let method = registry
            .build_by_name(name, &space, DISKS)
            .expect("method applies to default grid");
        let alloc = AllocationMap::from_method(&space, method.as_ref()).unwrap();
        let check = partial_match::check_prediction(&alloc, &queries, |_, _, _| false);
        out.push_str(&format!(
            "{:6}  {:>9}  {:>9}  {:>8}  {:>13}  {:>22}\n",
            name,
            check.predicted,
            check.confirmed,
            check.violated,
            check.bonus_optimal,
            check.unpredicted_suboptimal
        ));
    }
    out
}

/// T2: partial-match response time vs number of unspecified attributes.
fn t2(opts: &Opts) -> SweepResult {
    experiment_2d(opts)
        .run_partial_match()
        .expect("T2 configuration is valid")
}

/// Mixed workloads (extension): mix 0 = OLTP (point-heavy), mix 1 =
/// balanced default, mix 2 = OLAP (large ranges + partial match).
fn mixes(opts: &Opts) -> SweepResult {
    use decluster::sim::workload::WorkloadMix;
    let oltp = WorkloadMix {
        point: 0.7,
        partial_match: 0.1,
        small_range: 0.2,
        small_area: 9,
        large_range: 0.0,
        large_area: 256,
    };
    let balanced = WorkloadMix::default();
    let olap = WorkloadMix {
        point: 0.05,
        partial_match: 0.35,
        small_range: 0.1,
        small_area: 16,
        large_range: 0.5,
        large_area: 1024,
    };
    experiment_2d(opts)
        .run_mix(&[oltp, balanced, olap])
        .expect("mix configuration is valid")
}

/// T3 (extension): exact placement statistics — not sampled — for the
/// paper's methods on characteristic shapes.
fn t3() -> String {
    use decluster::methods::AllocationMap;
    use decluster::theory::bounds::shape_profile;
    let space = GridSpace::new_2d(32, 32).expect("grid");
    let m = 16;
    let registry = MethodRegistry::default();
    let shapes: [[u32; 2]; 4] = [[2, 2], [4, 4], [2, 8], [1, 16]];
    let mut out = format!(
        "T3: exact shape profiles on 32x32 grid, M={m} (all placements enumerated)\n{:<6} {:>7} {:>6} {:>6} {:>8} {:>6} {:>9}\n",
        "method", "shape", "best", "worst", "mean", "OPT", "opt-frac"
    );
    for method in registry.paper_methods(&space, m) {
        let alloc = AllocationMap::from_method(&space, method.as_ref()).expect("materializes");
        for shape in &shapes {
            let p = shape_profile(&alloc, shape).expect("shape fits");
            out.push_str(&format!(
                "{:<6} {:>7} {:>6} {:>6} {:>8.3} {:>6} {:>8.1}%\n",
                method.name(),
                format!("{}x{}", shape[0], shape[1]),
                p.best,
                p.worst,
                p.mean,
                p.optimal,
                p.optimal_fraction * 100.0
            ));
        }
    }
    out
}

/// Availability (extension): fraction of query placements that survive
/// one disk failure (touch no bucket of the failed disk), averaged over
/// which disk fails. The mirror image of response time: spreading a
/// query across disks speeds it up but exposes it to every failure.
fn availability() -> String {
    use decluster::methods::AllocationMap;
    use decluster::theory::bounds::failure_survival_fraction;
    let space = GridSpace::new_2d(32, 32).expect("grid");
    let m = 16u32;
    let registry = MethodRegistry::default();
    let shapes: [[u32; 2]; 3] = [[2, 2], [4, 4], [1, 16]];
    let mut out = format!(
        "Availability: survival under one disk failure (32x32 grid, M={m};\n\
         fraction of placements untouched by the failed disk, averaged over disks)\n{:<6}",
        "method"
    );
    for shape in &shapes {
        out.push_str(&format!(" {:>8}", format!("{}x{}", shape[0], shape[1])));
    }
    out.push('\n');
    for method in registry.paper_methods(&space, m) {
        let alloc = AllocationMap::from_method(&space, method.as_ref()).expect("materializes");
        out.push_str(&format!("{:<6}", method.name()));
        for shape in &shapes {
            let avg: f64 = (0..m)
                .map(|d| {
                    failure_survival_fraction(&alloc, shape, DiskId(d))
                        .expect("shape fits, disk in range")
                })
                .sum::<f64>()
                / f64::from(m);
            out.push_str(&format!(" {:>7.1}%", avg * 100.0));
        }
        out.push('\n');
    }
    out.push_str(
        "\nPer shape, the response-time ranking inverts: whichever method\n\
         spreads that shape best (HCAM/ECC on squares, DM/FX on lines) leaves\n\
         the fewest queries untouched by a failure. Without replication,\n\
         speed and failure-isolation trade off exactly.\n",
    );
    out
}

/// Default chain depths the `avail` sweep explores.
const AVAIL_REPLICAS: [u32; 3] = [1, 2, 3];

/// Availability sweep (extension): the engine-backed
/// `fault schedule × r × policy` table. One method (`--method`, default
/// HCAM) serves `--clients` Poisson arrivals at `--rate` while each
/// schedule fails, slows, and recovers disks mid-run; every cell
/// reports availability, loss/retry/failover volume, and the
/// response-time and storage overhead relative to the fault-free
/// unreplicated baseline (the first row). `--faults` replaces the
/// default light/heavy schedules; `--replicas`/`--policy` narrow the
/// sweep to one chain depth / one routing policy.
fn avail_sweep(opts: &Opts) -> Result<AvailSweep, String> {
    let clients = opts
        .clients
        .unwrap_or(if opts.quick { 2_000 } else { 20_000 });
    // The serve clock is milliseconds, so schedule boundaries scale with
    // the expected run span.
    let span = (clients as f64 * 1000.0 / opts.rate) as u64;
    let schedules: Vec<(String, FaultSchedule)> = match &opts.faults {
        Some(schedule) => vec![
            ("none".to_owned(), FaultSchedule::healthy(DISKS)),
            (schedule.describe(), schedule.clone()),
        ],
        None => {
            let light = FaultSchedule::healthy(DISKS)
                .fail_stop(3, span / 2)
                .expect("disk 3 exists on the default array");
            let heavy = FaultSchedule::healthy(DISKS)
                .fail_stop(3, span / 4)
                .and_then(|s| s.transient(7, span / 2, 3 * span / 4))
                .and_then(|s| s.slow(11, 2.0, span / 8, span / 2))
                .expect("the default chaos schedule is valid");
            vec![
                ("none".to_owned(), FaultSchedule::healthy(DISKS)),
                ("light".to_owned(), light),
                ("heavy".to_owned(), heavy),
            ]
        }
    };
    let replicas: Vec<u32> = opts
        .replicas
        .map_or_else(|| AVAIL_REPLICAS.to_vec(), |r| vec![r]);
    let method = opts.method.map_or("HCAM", MethodKind::name);
    let mut sweep = experiment_2d(opts)
        .with_method_filter(method)
        .run_avail_sweep(
            &DiskParams::default(),
            clients,
            opts.rate,
            MULTIUSER_AREA,
            &schedules,
            &replicas,
            RetryPolicy::default(),
            0,
        )
        .map_err(|e| match e {
            decluster::sim::SimError::EmptySweep => {
                format!("method {method} is not part of the avail sweep (paper methods only)")
            }
            e => e.to_string(),
        })?;
    if let Some(policy) = opts.policy {
        // Overheads were computed against the full sweep's baseline
        // before the filter, so narrowing the table changes no number.
        sweep.points.retain(|p| p.policy == policy);
    }
    Ok(sweep)
}

/// The schedule the `faults` experiment runs: the `--faults` spec when
/// given, otherwise a fail-stop of disk 3 halfway through the query
/// stream — the paper-style "one of M disks fails mid-workload" scenario.
fn fault_schedule(opts: &Opts) -> FaultSchedule {
    opts.faults.clone().unwrap_or_else(|| {
        FaultSchedule::healthy(DISKS)
            .fail_stop(3, (opts.queries / 2) as u64)
            .expect("disk 3 exists on the default array")
    })
}

/// Faults (extension): every paper method scored healthy vs degraded
/// under the injected schedule, unreplicated and with r-way
/// chained-declustering failover (`--replicas`, `--policy`), over
/// area-64 queries on the default grid.
fn faults(opts: &Opts, schedule: &FaultSchedule) -> Result<FaultReport, String> {
    let mut report = experiment_2d(opts)
        .run_fault_workload_with(
            64,
            schedule,
            &RetryPolicy::default(),
            opts.replicas.unwrap_or(1),
            opts.policy.unwrap_or(ReplicaPolicy::FailoverOnly),
        )
        .map_err(|e| e.to_string())?;
    if let Some(kind) = opts.method {
        let base = kind.name();
        let chained = format!("{base}+chain");
        report.rows.retain(|r| r.name == base || r.name == chained);
        if report.rows.is_empty() {
            return Err(format!(
                "method {base} is not part of the fault workload (paper methods only)"
            ));
        }
    }
    Ok(report)
}

/// Rebuilds the first faulted disk from its chain replica under a live
/// foreground workload and reports the throughput interference.
fn rebuild_summary(opts: &Opts, schedule: &FaultSchedule) -> String {
    use decluster::sim::workload::random_region;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let failed = schedule.events().iter().find_map(|e| match e {
        FaultEvent::FailStop { disk, .. } | FaultEvent::Transient { disk, .. } => Some(*disk),
        FaultEvent::Slow { .. } => None,
    });
    let Some(failed) = failed else {
        return "Rebuild: the schedule fails no disk; nothing to rebuild.".to_owned();
    };
    let space = grid_2d();
    let method = DiskModulo::new(&space, DISKS).expect("DM applies to the default grid");
    let map = AllocationMap::from_method(&space, &method).expect("the default grid materializes");
    let dir = GridDirectory::from_table(space.clone(), DISKS, map.table())
        .expect("a materialized table fits its grid");
    let n = (opts.queries / 4).max(25);
    let mut rng = StdRng::seed_from_u64(SEED);
    let queries: Vec<BucketRegion> = (0..n)
        .map(|_| random_region(&mut rng, &space, &[8, 8]).expect("8x8 fits the default grid"))
        .collect();
    let r = simulate_rebuild(&dir, &DiskParams::default(), failed, &queries, 8, &opts.obs)
        .expect("the schedule's disks are in range");
    format!(
        "Rebuild of disk {} from its chain replica (DM, {}x{} grid, {} queries, 8 clients):\n  \
         {} pages replayed in {:.1} ms; foreground {:.1} -> {:.1} qps (interference {:.2}x)\n",
        r.failed_disk,
        GRID_SIDE,
        GRID_SIDE,
        n,
        r.pages_rebuilt,
        r.rebuild_ms,
        r.healthy_qps,
        r.degraded_qps,
        r.interference_factor
    )
}

/// Client counts of the multi-user closed-loop grid.
const MULTIUSER_CLIENTS: [usize; 6] = [1, 2, 4, 8, 16, 32];
/// Offered rates (queries/s) of the open-loop load sweep.
const MULTIUSER_RATES: [f64; 6] = [10.0, 20.0, 50.0, 100.0, 200.0, 400.0];
/// Query area of both multi-user workloads (the paper's mid-size query).
const MULTIUSER_AREA: u64 = 64;

/// Multi-user closed loop (extension): throughput per method as the
/// client count grows, every cell running the kernel-backed engine over
/// the deterministic executor.
fn multiuser_grid(opts: &Opts) -> SweepResult {
    experiment_2d(opts)
        .run_multiuser_grid(&DiskParams::default(), &MULTIUSER_CLIENTS, MULTIUSER_AREA)
        .expect("multiuser configuration is valid")
}

/// Open-loop latency-vs-load curves over the same engines and queries.
fn load_curve(opts: &Opts) -> Vec<LoadPoint> {
    experiment_2d(opts)
        .run_load_sweep(&DiskParams::default(), &MULTIUSER_RATES, MULTIUSER_AREA)
        .expect("load sweep configuration is valid")
}

fn load_sweep_table(points: &[LoadPoint]) -> TextTable {
    let methods: Vec<String> = points
        .first()
        .map(|p| p.methods.iter().map(|m| m.name.clone()).collect())
        .unwrap_or_default();
    TextTable {
        title: format!(
            "Open-loop load sweep: mean latency (ms) vs offered load, area-{MULTIUSER_AREA} \
             queries on {GRID_SIDE}x{GRID_SIDE}, M={DISKS}:"
        ),
        headers: std::iter::once("rate qps".to_owned())
            .chain(methods)
            .collect(),
        rows: points
            .iter()
            .map(|p| {
                std::iter::once(format!("{:.0}", p.rate_qps))
                    .chain(
                        p.methods
                            .iter()
                            .map(|m| format!("{:.2}", m.mean_latency_ms)),
                    )
                    .collect()
            })
            .collect(),
        separator: false,
    }
}

/// The load sweep's CSV, one line per (rate, method) cell.
fn load_sweep_csv(points: &[LoadPoint]) -> String {
    let mut csv =
        String::from("rate_qps,method,mean_latency_ms,utilization,p50_ms,p95_ms,p99_ms\n");
    for p in points {
        for m in &p.methods {
            csv.push_str(&format!(
                "{},{},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
                p.rate_qps,
                m.name,
                m.mean_latency_ms,
                m.utilization,
                m.tail_ms.p50,
                m.tail_ms.p95,
                m.tail_ms.p99
            ));
        }
    }
    csv
}

/// Rate fractions the `serve` sweep applies to `--rate`: the full ladder
/// brackets the expected knee from 30% through 115% of the base rate.
const SERVE_FRACTIONS: [f64; 6] = [0.3, 0.5, 0.7, 0.85, 1.0, 1.15];
const SERVE_FRACTIONS_QUICK: [f64; 4] = [0.5, 0.85, 1.0, 1.15];

/// Serve (extension): open-loop saturation-knee curves from the
/// event-driven serving core, `--clients` arrivals per (rate, method)
/// cell at rates scaled around `--rate`. `--method` restricts the sweep
/// to one method; the surviving column is bit-identical to its column
/// in the unrestricted run.
fn serve_sweep(opts: &Opts) -> Result<ServeSweep, String> {
    let clients = opts
        .clients
        .unwrap_or(if opts.quick { 5_000 } else { 50_000 });
    let fractions: &[f64] = if opts.quick {
        &SERVE_FRACTIONS_QUICK
    } else {
        &SERVE_FRACTIONS
    };
    let rates: Vec<f64> = fractions.iter().map(|f| f * opts.rate).collect();
    let mut exp = experiment_2d(opts);
    if let Some(kind) = opts.method {
        exp = exp.with_method_filter(kind.name());
    }
    // Without --faults this is the exact historical serve path; with a
    // schedule the same sweep runs through the fault-injected engine
    // (chaos mode), serving across failures with `--replicas`/`--policy`.
    // --share/--batch-window route through the shared-scan path instead
    // (healthy mode only — the shared loop has no fault machinery).
    let sharing = opts.share.is_some() || opts.batch_window.is_some();
    if sharing && opts.faults.is_some() {
        return Err(
            "--share/--batch-window cannot combine with --faults (the shared loop is \
             healthy-mode only)"
                .into(),
        );
    }
    let sweep = match &opts.faults {
        None if sharing => exp
            .run_serve_sweep_shared(
                &DiskParams::default(),
                clients,
                &rates,
                MULTIUSER_AREA,
                opts.share.unwrap_or(0.0),
                opts.batch_window.unwrap_or(0.0),
                opts.replicas.unwrap_or(1),
            )
            .map_err(|e| e.to_string())?,
        None => exp
            .run_serve_sweep(&DiskParams::default(), clients, &rates, MULTIUSER_AREA)
            .map_err(|e| e.to_string())?,
        Some(schedule) => exp
            .run_serve_sweep_degraded(
                &DiskParams::default(),
                clients,
                &rates,
                MULTIUSER_AREA,
                schedule,
                opts.replicas.unwrap_or(1),
                opts.policy.unwrap_or(ReplicaPolicy::FailoverOnly),
                RetryPolicy::default(),
            )
            .map_err(|e| e.to_string())?,
    };
    if sweep.curves.is_empty() {
        let name = opts.method.map(MethodKind::name).unwrap_or("?");
        return Err(format!(
            "method {name} is not part of the serve sweep (paper methods only)"
        ));
    }
    Ok(sweep)
}

/// The serve sweep's mid-run samples, one line per sample.
fn serve_samples_csv(sweep: &ServeSweep) -> String {
    let mut samples =
        String::from("rate_qps,method,at_ms,in_flight,busy_disks,completed,p50_ms,p95_ms,p99_ms\n");
    for curve in &sweep.curves {
        for point in &curve.points {
            for s in &point.samples {
                samples.push_str(&format!(
                    "{},{},{:.3},{},{},{},{:.6},{:.6},{:.6}\n",
                    point.offered_qps,
                    curve.method,
                    s.at_ms,
                    s.in_flight,
                    s.busy_disks,
                    s.completed,
                    s.tail_ms.p50,
                    s.tail_ms.p95,
                    s.tail_ms.p99
                ));
            }
        }
    }
    samples
}

/// Overlap fractions the `share` sweep walks: from disjoint scans to a
/// fully shared hot scan.
const SHARE_OVERLAPS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
const SHARE_OVERLAPS_QUICK: [f64; 3] = [0.0, 0.5, 1.0];

/// Share (extension): shared-scan batching versus plain serving across
/// hot-scan overlap x replica depth, at 1.5x the base rate with an
/// 8-arrival batch window (override with `--batch-window`). `--share F`
/// pins the sweep to one overlap, `--replicas R` to one chain depth.
fn share_sweep_exp(opts: &Opts) -> Result<ShareSweep, String> {
    let clients = opts
        .clients
        .unwrap_or(if opts.quick { 2_000 } else { 20_000 });
    let rate = 1.5 * opts.rate;
    let window_ms = opts.batch_window.unwrap_or(8.0 * 1000.0 / rate);
    let pinned;
    let overlaps: &[f64] = match opts.share {
        Some(f) => {
            pinned = [f];
            &pinned
        }
        None if opts.quick => &SHARE_OVERLAPS_QUICK,
        None => &SHARE_OVERLAPS,
    };
    let replicas: Vec<u32> = match opts.replicas {
        Some(r) => vec![r],
        None => vec![0, 1, 2],
    };
    let mut exp = experiment_2d(opts);
    if let Some(kind) = opts.method {
        exp = exp.with_method_filter(kind.name());
    }
    let sweep = exp
        .run_share_sweep(
            &DiskParams::default(),
            clients,
            rate,
            MULTIUSER_AREA,
            overlaps,
            &replicas,
            window_ms,
        )
        .map_err(|e| e.to_string())?;
    if sweep.points.is_empty() {
        let name = opts.method.map(MethodKind::name).unwrap_or("?");
        return Err(format!(
            "method {name} is not part of the share sweep (paper methods only)"
        ));
    }
    Ok(sweep)
}

/// Ablation (extension): swap HCAM's Hilbert curve for Z-order and a
/// Gray-coded order; exact mean RT over all placements per shape.
fn ablation() -> String {
    use decluster::methods::AllocationMap;
    use decluster::theory::bounds::shape_profile;
    let space = GridSpace::new_2d(32, 32).expect("grid");
    let m = 16;
    let methods: Vec<Box<dyn DeclusteringMethod>> = vec![
        Box::new(Hcam::new(&space, m).expect("hcam")),
        Box::new(CurveAlloc::new(&space, m, CurveKind::Morton).expect("zcam")),
        Box::new(CurveAlloc::new(&space, m, CurveKind::Gray).expect("graycam")),
    ];
    let shapes: [[u32; 2]; 4] = [[2, 2], [3, 3], [4, 4], [2, 8]];
    let mut out = format!(
        "Ablation: curve choice in curve-allocation methods (32x32 grid, M={m})\nexact mean RT over all placements; lower is better\n{:<8}",
        "curve"
    );
    for shape in &shapes {
        out.push_str(&format!(" {:>8}", format!("{}x{}", shape[0], shape[1])));
    }
    out.push('\n');
    for method in &methods {
        let alloc = AllocationMap::from_method(&space, method.as_ref()).expect("materializes");
        out.push_str(&format!("{:<8}", method.name()));
        for shape in &shapes {
            let p = shape_profile(&alloc, shape).expect("shape fits");
            out.push_str(&format!(" {:>8.3}", p.mean));
        }
        out.push('\n');
    }
    out.push_str(
        "\nFinding: Z-order matches or beats Hilbert for declustering on\n\
         power-of-two grids (aligned blocks are contiguous Z-runs), although\n\
         Hilbert clusters strictly better for storage locality; the Gray\n\
         order trails both. See EXPERIMENTS.md.\n",
    );
    out.push_str(&ecc_code_analysis());
    out
}

/// Code-theoretic view of the ECC instances the experiments actually use:
/// block length, dimension, minimum distance (how far apart same-disk
/// buckets sit in coordinate bits), and covering radius.
fn ecc_code_analysis() -> String {
    use decluster::methods::EccDecluster;
    let mut out = String::from(
        "\nECC code analysis (the binary linear codes behind the ECC instances):\n\
         grid        M    [n,k]   d_min  covering radius\n",
    );
    for (dims, m) in [
        (vec![64u32, 64], 16u32),
        (vec![64, 64], 8),
        (vec![32, 32], 16),
        (vec![16, 16, 16], 16),
    ] {
        let space = GridSpace::new(dims.clone()).expect("grid");
        let ecc = EccDecluster::new(&space, m).expect("ECC applies");
        let code = ecc.code().expect("M > 1");
        let dmin = code
            .min_distance()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        let radius = code
            .covering_radius()
            .map(|r| r.to_string())
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{:<10} {:>3}   [{},{}]   {:>5}  {:>15}\n",
            format!("{dims:?}"),
            m,
            code.block_length(),
            code.dimension(),
            dmin,
            radius
        ));
    }
    out
}

/// The impossibility theorem as a table.
fn thm() -> String {
    let mut out = String::from(
        "Theorem: no strictly optimal declustering for range queries when M > 5\n\
         (machine-checked by exhaustive search; UNSAT on a window proves\n\
         impossibility for every grid containing it)\n",
    );
    for d in impossibility::theorem_table(8, 500_000_000) {
        out.push_str(&d.summary());
        out.push('\n');
    }
    out
}
