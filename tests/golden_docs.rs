//! EXPERIMENTS.md quotes `repro all` output in code blocks fenced as
//! `text repro-all`. Every line of such a block must be a line of the
//! checked-in golden stdout, `results/all.txt`, which CI regenerates and
//! diffs against the build. Excerpts of rows are allowed.

const FENCE: &str = "```text repro-all";

fn read(path: &str) -> String {
    let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The bodies of the tagged blocks, with the line number of each fence.
fn tagged_blocks(doc: &str) -> Vec<(usize, Vec<&str>)> {
    let mut blocks = Vec::new();
    let mut lines = doc.lines().enumerate();
    while let Some((n, line)) = lines.next() {
        if line == FENCE {
            let body = lines
                .by_ref()
                .map(|(_, l)| l)
                .take_while(|l| !l.starts_with("```"))
                .collect();
            blocks.push((n + 1, body));
        }
    }
    blocks
}

#[test]
fn experiments_md_quotes_match_the_golden_stdout() {
    let golden = read("results/all.txt");
    let golden: std::collections::HashSet<&str> = golden.lines().collect();
    let doc = read("EXPERIMENTS.md");
    let blocks = tagged_blocks(&doc);
    assert!(blocks.len() >= 10, "only {} tagged blocks", blocks.len());
    for (fence_line, body) in blocks {
        assert!(
            !body.is_empty(),
            "empty block at EXPERIMENTS.md:{fence_line}"
        );
        for line in body {
            assert!(
                golden.contains(line),
                "EXPERIMENTS.md block at line {fence_line} quotes a line that \
                 results/all.txt does not have:\n{line}"
            );
        }
    }
}
