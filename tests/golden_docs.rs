//! EXPERIMENTS.md quotes `repro` output in fenced code blocks, and this
//! test checks every line of them:
//!
//! * a block fenced as `text repro-all` quotes `repro all`: each of its
//!   lines must be a line of the checked-in golden stdout,
//!   `results/all.txt`, which CI regenerates and diffs against the
//!   build;
//! * a block fenced as `text repro ARGS` quotes `repro ARGS`, which
//!   the test runs through the built `repro` (the quoted runs are
//!   `--quick` ones, each well under a second): each of its lines must
//!   be a line of that run's stdout.
//!
//! Excerpts of rows are allowed.

use std::collections::HashSet;
use std::process::Command;

const GOLDEN_FENCE: &str = "```text repro-all";
const RUN_FENCE: &str = "```text repro ";
const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn read(path: &str) -> String {
    let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The bodies of the blocks whose fence line starts with `fence`, with
/// the line number of each fence and the rest of its fence line.
fn tagged_blocks<'a>(doc: &'a str, fence: &str) -> Vec<(usize, &'a str, Vec<&'a str>)> {
    let mut blocks = Vec::new();
    let mut lines = doc.lines().enumerate();
    while let Some((n, line)) = lines.next() {
        if let Some(rest) = line.strip_prefix(fence) {
            let body = lines
                .by_ref()
                .map(|(_, l)| l)
                .take_while(|l| !l.starts_with("```"))
                .collect();
            blocks.push((n + 1, rest, body));
        }
    }
    blocks
}

/// Panics unless every line of each block is in `source`.
fn check_lines(block: &str, fence_line: usize, body: &[&str], source: &HashSet<&str>) {
    assert!(
        !body.is_empty(),
        "empty block at EXPERIMENTS.md:{fence_line}"
    );
    for line in body {
        assert!(
            source.contains(line),
            "EXPERIMENTS.md block at line {fence_line} quotes a line that \
             {block} does not print:\n{line}"
        );
    }
}

#[test]
fn experiments_md_quotes_match_the_golden_stdout() {
    let golden = read("results/all.txt");
    let golden: HashSet<&str> = golden.lines().collect();
    let doc = read("EXPERIMENTS.md");
    let blocks = tagged_blocks(&doc, GOLDEN_FENCE);
    assert!(blocks.len() >= 10, "only {} tagged blocks", blocks.len());
    for (fence_line, rest, body) in blocks {
        assert!(rest.is_empty(), "EXPERIMENTS.md:{fence_line}: bad fence");
        check_lines("results/all.txt", fence_line, &body, &golden);
    }
}

#[test]
fn experiments_md_quotes_match_the_quick_runs() {
    let doc = read("EXPERIMENTS.md");
    let blocks = tagged_blocks(&doc, RUN_FENCE);
    assert!(blocks.len() >= 3, "only {} run blocks", blocks.len());
    for (fence_line, args, body) in blocks {
        let out = Command::new(REPRO)
            .args(args.split_whitespace())
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "EXPERIMENTS.md:{fence_line}: `repro {args}` failed"
        );
        let stdout = String::from_utf8(out.stdout).expect("repro prints UTF-8");
        let lines: HashSet<&str> = stdout.lines().collect();
        check_lines(&format!("`repro {args}`"), fence_line, &body, &lines);
    }
}
