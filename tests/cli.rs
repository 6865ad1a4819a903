//! Smoke tests for the two binaries: the `declust` CLI and the `repro`
//! harness. Cargo builds the binaries for integration tests and exposes
//! their paths via `CARGO_BIN_EXE_*`.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const DECLUST: &str = env!("CARGO_BIN_EXE_declust");
const REPRO: &str = env!("CARGO_BIN_EXE_repro");

#[test]
fn declust_methods_lists_everything() {
    let (ok, stdout, _) = run(DECLUST, &["methods"]);
    assert!(ok);
    for name in ["DM", "FX", "ECC", "HCAM", "ZCAM", "GrayCAM", "RR", "RND"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn declust_evaluate_reports_metrics() {
    let (ok, stdout, _) = run(
        DECLUST,
        &[
            "evaluate",
            "--grid",
            "16x16",
            "--disks",
            "8",
            "--method",
            "hcam",
            "--shape",
            "2x2",
            "--queries",
            "50",
        ],
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("mean RT"));
    assert!(stdout.contains("static load"));
}

#[test]
fn declust_advise_ranks_methods() {
    let (ok, stdout, _) = run(
        DECLUST,
        &[
            "advise",
            "--grid",
            "16x16",
            "--disks",
            "8",
            "--shape",
            "2x2",
            "--queries",
            "50",
        ],
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("->"));
    assert!(stdout.contains("DM"));
}

#[test]
fn declust_profile_is_exact() {
    let (ok, stdout, _) = run(
        DECLUST,
        &[
            "profile", "--grid", "16x16", "--disks", "16", "--method", "DM", "--shape", "4x4",
        ],
    );
    assert!(ok, "{stdout}");
    // DM on 4x4 with M=16: best = worst = 4 on every placement.
    assert!(stdout.contains("best 4  worst 4"), "{stdout}");
}

#[test]
fn declust_theorem_prints_verdicts() {
    let (ok, stdout, _) = run(DECLUST, &["theorem", "--max-m", "6"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("M =  5"));
    assert!(stdout.contains("EXISTS"));
    assert!(stdout.contains("IMPOSSIBLE"));
}

#[test]
fn declust_rejects_bad_input() {
    let (ok, _, stderr) = run(DECLUST, &["evaluate", "--grid", "banana"]);
    assert!(!ok);
    assert!(stderr.contains("usage") || stderr.contains("error"));
    let (ok, _, _) = run(DECLUST, &["no-such-command"]);
    assert!(!ok);
    let (ok, _, _) = run(DECLUST, &[]);
    assert!(!ok);
    // Values that do not parse, or lie past a bound, fail in one line
    // instead of falling back to a default or a clamp.
    let evaluate = [
        "evaluate", "--grid", "16x16", "--disks", "4", "--method", "DM", "--shape", "2x2",
    ];
    for (args, flag) in [
        (&["--seed", "abc"][..], "--seed"),
        (&["--seed", "-1"], "--seed"),
        (&["--queries", "many"], "--queries"),
        (&["--queries", "1e3"], "--queries"),
        (&["--queries", "0"], "--queries"),
        (&["--queries", "1000001"], "1000000"),
        (&["--queries", "100000000000"], "1000000"),
    ] {
        let args: Vec<&str> = evaluate.iter().chain(args).copied().collect();
        let (ok, stdout, stderr) = run(DECLUST, &args);
        assert!(!ok, "{args:?} should fail:\n{stdout}");
        assert_eq!(stderr.lines().count(), 1, "one-line error, got:\n{stderr}");
        assert!(stderr.contains(flag), "{stderr}");
    }
    for max_m in ["40", "13", "0", "eight"] {
        let (ok, stdout, stderr) = run(DECLUST, &["theorem", "--max-m", max_m]);
        assert!(!ok, "--max-m {max_m} should fail:\n{stdout}");
        assert_eq!(stderr.lines().count(), 1, "one-line error, got:\n{stderr}");
        assert!(stderr.contains("--max-m"), "{stderr}");
    }
}

#[test]
fn declust_refuses_tables_past_one_gib() {
    // 10^10 buckets: the one-u32-per-bucket table would take 40 GB. Each
    // command fails before allocating it, with exit code 1 and a one-line
    // error, not an aborted allocation.
    let grid = ["--grid", "100000x100000", "--disks", "16", "--shape", "4x4"];
    for command in [
        &["evaluate", "--method", "HCAM"][..],
        &["evaluate", "--method", "DM"],
        &["loadcurve"],
    ] {
        let out = Command::new(DECLUST)
            .args(command)
            .args(grid)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "one-line error, got:\n{stderr}");
        assert!(stderr.contains("1 GiB"), "{stderr}");
    }
}

#[test]
fn repro_quick_t1_runs() {
    let (ok, stdout, _) = run(REPRO, &["t1"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("violated"));
    // The theorems hold: zero violations for DM and FX.
    for line in stdout.lines() {
        if line.starts_with("DM") || line.starts_with("FX") {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields[3], "0", "violations in {line}");
        }
    }
}

#[test]
fn repro_rejects_unknown_experiment() {
    // `bench` and `bench_warm` must stay unknown: perfbench/ is the
    // only timing harness.
    for exp in ["e99", "bench", "bench_warm"] {
        let (ok, _, stderr) = run(REPRO, &[exp]);
        assert!(!ok, "{exp} should be rejected");
        assert!(stderr.contains("unknown experiment"), "{stderr}");
    }
}

#[test]
fn repro_rejects_unknown_flags() {
    // `--kernel-cache` was removed; before or after the experiment it is
    // an unknown flag, not an experiment name or a stray argument.
    for (args, flag) in [
        (&["--kernel-cache", "k.dclk", "e1"][..], "--kernel-cache"),
        (&["e1", "--kernel-cache", "k.dclk"], "--kernel-cache"),
        (&["--bogus"], "--bogus"),
    ] {
        let out = Command::new(REPRO)
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "one-line error, got:\n{stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
}

#[test]
fn repro_quick_e2_has_all_methods() {
    let (ok, stdout, _) = run(REPRO, &["e2", "--quick"]);
    assert!(ok, "{stdout}");
    for name in ["DM", "FX", "ECC", "HCAM", "OPT"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn repro_fails_when_a_csv_cannot_be_written() {
    // The CSV directory sits under a regular file, so it cannot be made.
    let file = std::env::temp_dir().join(format!("repro_csv_file_{}", std::process::id()));
    std::fs::write(&file, "").unwrap();
    let dir = file.join("csv");
    let (ok, _, stderr) = run(REPRO, &["e1", "--quick", "--csv", dir.to_str().unwrap()]);
    std::fs::remove_file(&file).ok();
    assert!(!ok, "an unwritable --csv directory must fail the run");
    assert_eq!(stderr.lines().count(), 1, "one-line error, got:\n{stderr}");
    assert!(stderr.contains("could not write e1.csv"), "{stderr}");
}

#[test]
fn repro_rejects_zero_threads() {
    let (ok, _, stderr) = run(REPRO, &["e1", "--quick", "--threads", "0"]);
    assert!(!ok);
    assert_eq!(stderr.lines().count(), 1, "one-line error, got:\n{stderr}");
    assert!(stderr.contains("--threads"), "{stderr}");
}

#[test]
fn repro_rejects_malformed_fault_specs() {
    for spec in [
        "garbage",
        "fail:99@1",
        "slow:0x0.5@0..9",
        "transient:1@9..3",
    ] {
        let (ok, _, stderr) = run(REPRO, &["faults", "--quick", "--faults", spec]);
        assert!(!ok, "spec {spec:?} should be rejected");
        assert_eq!(
            stderr.lines().count(),
            1,
            "one-line error for {spec:?}, got:\n{stderr}"
        );
        assert!(stderr.contains("bad fault spec"), "{stderr}");
    }
}

#[test]
fn repro_rejects_unknown_method_names() {
    let (ok, _, stderr) = run(REPRO, &["faults", "--quick", "--method", "NOPE"]);
    assert!(!ok);
    assert_eq!(stderr.lines().count(), 1, "one-line error, got:\n{stderr}");
    assert!(stderr.contains("unknown method"), "{stderr}");
    // A known method that the fault workload does not run is also a
    // one-line error, not an empty table.
    let (ok, _, stderr) = run(REPRO, &["faults", "--quick", "--method", "RND"]);
    assert!(!ok);
    assert!(
        stderr.contains("not part of the fault workload"),
        "{stderr}"
    );
}

#[test]
fn repro_faults_reports_degraded_mode_and_rebuild() {
    let (ok, stdout, _) = run(
        REPRO,
        &["faults", "--quick", "--faults", "fail:3@50,slow:7x2@0..25"],
    );
    assert!(ok, "{stdout}");
    for needle in [
        "DM+chain",
        "HCAM+chain",
        "avail %",
        "Rebuild of disk 3",
        "interference",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in:\n{stdout}");
    }
}

#[test]
fn repro_rejects_zero_clients() {
    let (ok, _, stderr) = run(REPRO, &["serve", "--quick", "--clients", "0"]);
    assert!(!ok);
    assert_eq!(stderr.lines().count(), 1, "one-line error, got:\n{stderr}");
    assert!(stderr.contains("--clients"), "{stderr}");
}

#[test]
fn repro_rejects_nonpositive_rate() {
    for rate in ["0", "-3", "NaN"] {
        let (ok, _, stderr) = run(REPRO, &["serve", "--quick", "--rate", rate]);
        assert!(!ok, "rate {rate:?} should be rejected");
        assert_eq!(
            stderr.lines().count(),
            1,
            "one-line error for {rate:?}, got:\n{stderr}"
        );
        assert!(stderr.contains("--rate"), "{stderr}");
    }
}

#[test]
fn repro_serve_reports_a_knee_per_method() {
    let (ok, stdout, _) = run(REPRO, &["serve", "--quick", "--clients", "800"]);
    assert!(ok, "{stdout}");
    for name in ["DM", "FX", "ECC", "HCAM"] {
        assert!(
            stdout.contains(&format!("knee {name}")),
            "missing knee line for {name} in:\n{stdout}"
        );
    }
    // Restricting to one method keeps that column bit-identical.
    let (ok, only, _) = run(
        REPRO,
        &["serve", "--quick", "--clients", "800", "--method", "HCAM"],
    );
    assert!(ok, "{only}");
    let full_knee = stdout
        .lines()
        .find(|l| l.starts_with("knee HCAM"))
        .expect("knee line");
    assert!(only.contains(full_knee), "{only}");
    // A method outside the sweep is a one-line error.
    let (ok, _, stderr) = run(REPRO, &["serve", "--quick", "--method", "RND"]);
    assert!(!ok);
    assert!(stderr.contains("not part of the serve sweep"), "{stderr}");
}

#[test]
fn repro_serve_is_thread_count_invariant() {
    let (ok1, t1, _) = run(
        REPRO,
        &["serve", "--quick", "--clients", "800", "--threads", "1"],
    );
    let (ok8, t8, _) = run(
        REPRO,
        &["serve", "--quick", "--clients", "800", "--threads", "8"],
    );
    assert!(ok1 && ok8);
    assert_eq!(t1, t8, "serve tables differ between --threads 1 and 8");
}

#[test]
fn repro_rejects_bad_replica_counts() {
    for r in ["0", "16", "banana"] {
        let (ok, _, stderr) = run(REPRO, &["avail", "--quick", "--replicas", r]);
        assert!(!ok, "replicas {r:?} should be rejected");
        assert_eq!(
            stderr.lines().count(),
            1,
            "one-line error for {r:?}, got:\n{stderr}"
        );
        assert!(stderr.contains("--replicas"), "{stderr}");
    }
}

#[test]
fn repro_rejects_unknown_policy_names() {
    let (ok, _, stderr) = run(REPRO, &["avail", "--quick", "--policy", "bogus"]);
    assert!(!ok);
    assert_eq!(stderr.lines().count(), 1, "one-line error, got:\n{stderr}");
    assert!(stderr.contains("unknown replica policy"), "{stderr}");
    // The error names every accepted policy so the fix is self-evident.
    for name in ["primary", "failover", "nearest", "roundrobin"] {
        assert!(stderr.contains(name), "missing {name} in:\n{stderr}");
    }
    // A method outside the sweep is a one-line error, not an empty table.
    let (ok, _, stderr) = run(REPRO, &["avail", "--quick", "--method", "RND"]);
    assert!(!ok);
    assert!(stderr.contains("not part of the avail sweep"), "{stderr}");
}

#[test]
fn repro_avail_narrows_to_one_replica_and_policy() {
    let (ok, stdout, _) = run(
        REPRO,
        &[
            "avail",
            "--quick",
            "--clients",
            "600",
            "--replicas",
            "2",
            "--policy",
            "failover",
        ],
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("failover"), "{stdout}");
    for hidden in ["roundrobin", "nearest"] {
        assert!(
            !stdout.contains(hidden),
            "policy filter leaked {hidden}:\n{stdout}"
        );
    }
    // The three default schedules each keep exactly one row.
    for schedule in ["none", "light", "heavy"] {
        assert!(stdout.contains(schedule), "missing {schedule}:\n{stdout}");
    }
}

#[test]
fn repro_avail_is_thread_count_invariant() {
    let (ok1, t1, _) = run(
        REPRO,
        &["avail", "--quick", "--clients", "600", "--threads", "1"],
    );
    let (ok8, t8, _) = run(
        REPRO,
        &["avail", "--quick", "--clients", "600", "--threads", "8"],
    );
    assert!(ok1 && ok8);
    assert_eq!(t1, t8, "avail tables differ between --threads 1 and 8");
}

#[test]
fn repro_serve_runs_through_a_chaos_schedule() {
    let (ok, stdout, _) = run(
        REPRO,
        &[
            "serve",
            "--quick",
            "--clients",
            "800",
            "--faults",
            "fail:3@20000,transient:7@5000..15000",
            "--replicas",
            "2",
            "--policy",
            "failover",
        ],
    );
    assert!(ok, "{stdout}");
    for name in ["DM", "FX", "ECC", "HCAM"] {
        assert!(
            stdout.contains(&format!("knee {name}")),
            "missing knee line for {name} in:\n{stdout}"
        );
    }
}

#[test]
fn repro_faults_is_thread_count_invariant() {
    let (ok1, t1, _) = run(REPRO, &["faults", "--quick", "--threads", "1"]);
    let (ok8, t8, _) = run(REPRO, &["faults", "--quick", "--threads", "8"]);
    assert!(ok1 && ok8);
    assert_eq!(t1, t8, "fault tables differ between --threads 1 and 8");
}

#[test]
fn repro_rejects_bad_share_fractions() {
    for f in ["-0.1", "1.5", "NaN", "banana"] {
        let (ok, _, stderr) = run(REPRO, &["serve", "--quick", "--share", f]);
        assert!(!ok, "share {f:?} should be rejected");
        assert_eq!(
            stderr.lines().count(),
            1,
            "one-line error for {f:?}, got:\n{stderr}"
        );
        assert!(stderr.contains("--share"), "{stderr}");
    }
}

#[test]
fn repro_rejects_bad_batch_windows() {
    for w in ["-1", "inf", "NaN", "banana"] {
        let (ok, _, stderr) = run(REPRO, &["serve", "--quick", "--batch-window", w]);
        assert!(!ok, "window {w:?} should be rejected");
        assert_eq!(
            stderr.lines().count(),
            1,
            "one-line error for {w:?}, got:\n{stderr}"
        );
        assert!(stderr.contains("--batch-window"), "{stderr}");
    }
}

#[test]
fn repro_rejects_sharing_combined_with_faults() {
    let (ok, _, stderr) = run(
        REPRO,
        &[
            "serve",
            "--quick",
            "--share",
            "0.5",
            "--faults",
            "fail:3@50",
        ],
    );
    assert!(!ok);
    assert_eq!(stderr.lines().count(), 1, "one-line error, got:\n{stderr}");
    assert!(stderr.contains("--faults"), "{stderr}");
}

#[test]
fn repro_serve_with_zero_share_knobs_matches_plain_serve() {
    let (ok0, shared0, _) = run(
        REPRO,
        &[
            "serve",
            "--quick",
            "--clients",
            "800",
            "--share",
            "0",
            "--batch-window",
            "0",
        ],
    );
    let (ok, plain, _) = run(REPRO, &["serve", "--quick", "--clients", "800"]);
    assert!(ok0 && ok);
    assert_eq!(
        shared0, plain,
        "--share 0 --batch-window 0 must be byte-identical to the unshared serve"
    );
}

#[test]
fn repro_serve_shared_path_reports_curves() {
    let (ok, stdout, _) = run(
        REPRO,
        &[
            "serve",
            "--quick",
            "--clients",
            "600",
            "--share",
            "0.8",
            "--batch-window",
            "50",
        ],
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Shared serve sweep"), "{stdout}");
    for name in ["DM", "FX", "ECC", "HCAM"] {
        assert!(
            stdout.contains(&format!("knee {name}")),
            "missing knee line for {name} in:\n{stdout}"
        );
    }
}

#[test]
fn repro_share_reports_speedups() {
    let (ok, stdout, _) = run(
        REPRO,
        &["share", "--quick", "--clients", "500", "--rate", "60"],
    );
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Share sweep"), "{stdout}");
    assert!(stdout.contains("best speedup"), "{stdout}");
    assert!(stdout.contains("pages saved"), "{stdout}");
    // A method outside the sweep is a one-line error, not an empty table.
    let (ok, _, stderr) = run(REPRO, &["share", "--quick", "--method", "RND"]);
    assert!(!ok);
    assert!(stderr.contains("not part of the share sweep"), "{stderr}");
}

#[test]
fn repro_share_is_thread_count_invariant() {
    let args = ["share", "--quick", "--clients", "500", "--rate", "60"];
    let (ok1, t1, _) = run(REPRO, &[&args[..], &["--threads", "1"][..]].concat());
    let (ok8, t8, _) = run(REPRO, &[&args[..], &["--threads", "8"][..]].concat());
    assert!(ok1 && ok8);
    assert_eq!(t1, t8, "share tables differ between --threads 1 and 8");
}
