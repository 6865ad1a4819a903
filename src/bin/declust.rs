//! `declust` — command-line front end for the declustering toolkit.
//!
//! ```text
//! declust methods
//! declust evaluate  --grid 64x64 --disks 16 --method HCAM --shape 4x4 [--queries 1000] [--seed 1994]
//! declust advise    --grid 64x64 --disks 16 --shape 4x4 [--queries 500] [--seed 1994]
//! declust profile   --grid 32x32 --disks 16 --method FX --shape 2x8
//! declust loadcurve --grid 32x32 --disks 8 --shape 3x3 [--rates 1,10,100] [--queries 200]
//! declust theorem   [--max-m 8]
//! ```
//!
//! Grids and shapes are `ROWSxCOLS` (2-D). All runs are deterministic per
//! `--seed`.

use decluster::grid::GridDirectory;
use decluster::prelude::*;
use decluster::sim::workload::random_region;
use decluster::sim::{load_sweep, DiskParams, TextTable};
use decluster::theory::bounds::shape_profile;
use decluster::theory::impossibility::theorem_table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "methods" => cmd_methods(),
        "evaluate" => cmd_evaluate(&flags),
        "advise" => cmd_advise(&flags),
        "profile" => cmd_profile(&flags),
        "loadcurve" => cmd_loadcurve(&flags),
        "theorem" => cmd_theorem(&flags),
        other => {
            eprintln!("error: unknown command {other:?}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // A command's own errors (a bad or missing value) take one line.
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  declust methods
  declust evaluate  --grid RxC --disks M --method NAME --shape RxC [--queries N] [--seed S]
  declust advise    --grid RxC --disks M --shape RxC [--queries N] [--seed S]
  declust profile   --grid RxC --disks M --method NAME --shape RxC
  declust loadcurve --grid RxC --disks M --shape RxC [--rates R1,R2,..] [--queries N] [--seed S]
  declust theorem   [--max-m M]";

type Flags = HashMap<String, String>;

fn parse_flags(args: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got {flag:?}"));
        };
        let Some(value) = args.next() else {
            return Err(format!("--{name} needs a value"));
        };
        flags.insert(name.to_owned(), value);
    }
    Ok(flags)
}

fn parse_pair(s: &str, what: &str) -> Result<(u32, u32), String> {
    let (a, b) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("{what} must look like 64x64, got {s:?}"))?;
    let a = a.parse().map_err(|_| format!("bad {what} rows {a:?}"))?;
    let b = b.parse().map_err(|_| format!("bad {what} cols {b:?}"))?;
    Ok((a, b))
}

fn required<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

fn grid_of(flags: &Flags) -> Result<GridSpace, String> {
    let (r, c) = parse_pair(required(flags, "grid")?, "grid")?;
    GridSpace::new_2d(r, c).map_err(|e| e.to_string())
}

/// The most disks a run takes: 64 times the study's largest `M` (64),
/// where an unbounded count aborts in an `M`-wide allocation.
const MAX_DISKS: u32 = 4096;

fn disks_of(flags: &Flags) -> Result<u32, String> {
    let s = required(flags, "disks")?;
    match s.parse() {
        Ok(m @ 1..=MAX_DISKS) => Ok(m),
        _ => Err(format!(
            "--disks needs a disk count in 1..={MAX_DISKS}, got {s:?}"
        )),
    }
}

fn shape_of(flags: &Flags) -> Result<(u32, u32), String> {
    parse_pair(required(flags, "shape")?, "shape")
}

/// The value of `--name` parsed as a `T`, `default` when the flag is
/// absent; a value that does not parse is an error, not the default.
fn parsed_or<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--{name} needs a non-negative integer, got {s:?}")),
        None => Ok(default),
    }
}

fn seed_of(flags: &Flags) -> Result<u64, String> {
    parsed_or(flags, "seed", 1994)
}

/// The most random queries one run samples: a run at the cap peaks
/// under 100 MB, where an unbounded count grows the region vector until
/// allocation aborts.
const MAX_QUERIES: usize = 1_000_000;

fn queries_of(flags: &Flags, default: usize) -> Result<usize, String> {
    match parsed_or(flags, "queries", default)? {
        n @ 1..=MAX_QUERIES => Ok(n),
        n => Err(format!(
            "--queries needs a query count in 1..={MAX_QUERIES}, got {n}"
        )),
    }
}

fn sample_regions(
    space: &GridSpace,
    shape: (u32, u32),
    n: usize,
    seed: u64,
) -> Result<Vec<BucketRegion>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| random_region(&mut rng, space, &[shape.0, shape.1]).map_err(|e| e.to_string()))
        .collect()
}

fn cmd_methods() -> Result<(), String> {
    println!("available declustering methods:");
    for kind in MethodKind::ALL {
        println!("  {}", kind.name());
    }
    println!("aliases: CMD -> DM, ExFX -> FX, round-robin -> RR, random -> RND");
    Ok(())
}

fn cmd_evaluate(flags: &Flags) -> Result<(), String> {
    let space = grid_of(flags)?;
    let m = disks_of(flags)?;
    let shape = shape_of(flags)?;
    let n = queries_of(flags, 1000)?;
    let seed = seed_of(flags)?;
    let method = MethodRegistry::with_seed(seed)
        .build_by_name(required(flags, "method")?, &space, m)
        .map_err(|e| e.to_string())?;
    let map = AllocationMap::from_method(&space, method.as_ref()).map_err(|e| e.to_string())?;
    let regions = sample_regions(&space, shape, n, seed)?;
    let rts: Vec<u64> = regions.iter().map(|r| map.response_time(r)).collect();
    let mean = rts.iter().sum::<u64>() as f64 / n as f64;
    let worst = rts.iter().copied().max().unwrap_or(0);
    let opt = optimal_response_time(u64::from(shape.0) * u64::from(shape.1), m);
    println!(
        "{} on {:?} with M={m}: {n} random {}x{} queries",
        map.name(),
        space.dims(),
        shape.0,
        shape.1
    );
    println!(
        "  mean RT {mean:.3}  worst RT {worst}  optimal {opt}  mean/opt {:.3}",
        mean / opt as f64
    );
    let stats = map.load_stats();
    println!(
        "  static load {}..{} buckets/disk (stddev {:.2})",
        stats.min, stats.max, stats.stddev
    );
    Ok(())
}

fn cmd_advise(flags: &Flags) -> Result<(), String> {
    let space = grid_of(flags)?;
    let m = disks_of(flags)?;
    let shape = shape_of(flags)?;
    let n = queries_of(flags, 500)?;
    let regions = sample_regions(&space, shape, n, seed_of(flags)?)?;
    let advice = decluster::methods::advise(&space, m, &regions).map_err(|e| e.to_string())?;
    println!(
        "workload: {n} random {}x{} queries on {:?}, M={m}",
        shape.0,
        shape.1,
        space.dims()
    );
    for (name, rt) in &advice.ranking {
        let marker = if *name == advice.winner { "->" } else { "  " };
        println!("  {marker} {name:<5} mean RT {rt:.3}");
    }
    Ok(())
}

fn cmd_profile(flags: &Flags) -> Result<(), String> {
    let space = grid_of(flags)?;
    let m = disks_of(flags)?;
    let shape = shape_of(flags)?;
    let method = MethodRegistry::default()
        .build_by_name(required(flags, "method")?, &space, m)
        .map_err(|e| e.to_string())?;
    let map = AllocationMap::from_method(&space, method.as_ref()).map_err(|e| e.to_string())?;
    let profile = shape_profile(&map, &[shape.0, shape.1])
        .ok_or_else(|| "shape does not fit the grid".to_owned())?;
    println!(
        "{} on {:?} with M={m}: exact profile of {}x{} ({} placements)",
        map.name(),
        space.dims(),
        shape.0,
        shape.1,
        profile.placements
    );
    println!(
        "  best {}  worst {}  mean {:.3}  optimal {}  optimal on {:.1}% of placements",
        profile.best,
        profile.worst,
        profile.mean,
        profile.optimal,
        profile.optimal_fraction * 100.0
    );
    println!(
        "  worst placement: {:?}..{:?}",
        profile.worst_witness.lo(),
        profile.worst_witness.hi()
    );
    Ok(())
}

fn cmd_loadcurve(flags: &Flags) -> Result<(), String> {
    let space = grid_of(flags)?;
    let m = disks_of(flags)?;
    let shape = shape_of(flags)?;
    let n = queries_of(flags, 200)?;
    let seed = seed_of(flags)?;
    let rates: Vec<f64> = flags
        .get("rates")
        .map(String::as_str)
        .unwrap_or("1,10,100")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad rate {s:?}")))
        .collect::<Result<_, _>>()?;
    let regions = sample_regions(&space, shape, n, seed)?;
    let registry = MethodRegistry::default();
    let methods = registry.paper_methods(&space, m);
    // Materialize first: `AllocationMap::from_method` refuses a grid too
    // large to tabulate, where `GridDirectory::build` would abort.
    let dirs: Vec<(&str, GridDirectory)> = methods
        .iter()
        .map(|method| {
            let map =
                AllocationMap::from_method(&space, method.as_ref()).map_err(|e| e.to_string())?;
            let dir = GridDirectory::from_table(space.clone(), m, map.table())
                .expect("a materialized table fits its grid");
            Ok((method.name(), dir))
        })
        .collect::<Result<_, String>>()?;
    let dir_refs: Vec<(&str, &GridDirectory)> = dirs.iter().map(|(name, d)| (*name, d)).collect();
    let points = load_sweep(&dir_refs, &DiskParams::default(), &regions, &rates, seed, 1)
        .map_err(|e| e.to_string())?;
    let table = TextTable {
        title: format!(
            "mean latency (ms) vs offered load, {n} {}x{} queries on {:?} with M={m}:",
            shape.0,
            shape.1,
            space.dims()
        ),
        headers: std::iter::once("rate qps".to_owned())
            .chain(dir_refs.iter().map(|(name, _)| (*name).to_owned()))
            .collect(),
        rows: points
            .iter()
            .map(|p| {
                std::iter::once(p.rate_qps.to_string())
                    .chain(
                        p.methods
                            .iter()
                            .map(|m| format!("{:.2}", m.mean_latency_ms)),
                    )
                    .collect()
            })
            .collect(),
        separator: false,
    };
    print!("{}", table.render());
    Ok(())
}

/// The largest `--max-m` that `theorem` accepts.
const THEOREM_MAX_M: u32 = 12;

fn cmd_theorem(flags: &Flags) -> Result<(), String> {
    let max_m: u32 = parsed_or(flags, "max-m", 8)?;
    if !(1..=THEOREM_MAX_M).contains(&max_m) {
        return Err(format!(
            "--max-m needs a disk count in 1..={THEOREM_MAX_M}, got {max_m}"
        ));
    }
    for d in theorem_table(max_m, 500_000_000) {
        println!("{}", d.summary());
    }
    Ok(())
}
