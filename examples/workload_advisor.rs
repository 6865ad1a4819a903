//! The paper's closing recommendation, executed: *"information about
//! common queries on a relation ought to be used in deciding the
//! declustering for it"*. Two relations with different query mixes get
//! different declustering methods from the advisor.
//!
//! ```text
//! cargo run --release --example workload_advisor
//! ```

use decluster::methods::advise;
use decluster::prelude::*;
use decluster::sim::workload::random_region;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let space = GridSpace::new_2d(32, 32).expect("valid grid");
    let m = 16;
    let mut rng = StdRng::seed_from_u64(7);

    // Relation A: an OLAP-style mix of full-row scans (one attribute
    // pinned, the other free) - partial-match territory.
    let rows: Vec<BucketRegion> = (0..32)
        .map(|r| {
            RangeQuery::new([r, 0], [r, 31])
                .expect("row query")
                .region(&space)
                .expect("fits grid")
        })
        .collect();

    // Relation B: interactive small square lookups placed anywhere.
    let squares: Vec<BucketRegion> = (0..200)
        .map(|_| random_region(&mut rng, &space, &[3, 3]).expect("3x3 fits"))
        .collect();

    for (label, sample) in [("row scans", &rows), ("small 3x3 squares", &squares)] {
        let advice = advise(&space, m, sample).expect("workload non-empty");
        println!("Workload: {label}");
        for (name, mean_rt) in &advice.ranking {
            let marker = if *name == advice.winner { "->" } else { "  " };
            println!("  {marker} {name:<5} mean RT {mean_rt:.3}");
        }
        let stats = advice.allocation.load_stats();
        println!(
            "  winner {} materialized: load {}..{} buckets/disk\n",
            advice.winner, stats.min, stats.max
        );
    }

    println!(
        "Different workloads, different winners - which is why the paper
concludes parallel database systems must support several declustering
methods rather than hard-wiring one."
    );
}
