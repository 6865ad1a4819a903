//! Cross-crate property tests: invariants that must hold for every
//! method, grid, disk count, and query simultaneously.

use decluster::prelude::*;
use decluster::sim::{degraded_outcome, FaultSchedule, QueryOutcome, ReplicaPolicy, RetryPolicy};
use proptest::prelude::*;

/// Strategy: a small 2-D grid, a legal disk count, and a random in-grid
/// query box.
fn config() -> impl Strategy<Value = (GridSpace, u32, (u32, u32, u32, u32))> {
    (2u32..24, 2u32..24, 1u32..20).prop_flat_map(|(d0, d1, m)| {
        let g = GridSpace::new_2d(d0, d1).expect("grid");
        ((0..d0), (0..d0), (0..d1), (0..d1)).prop_map(move |(r0, r1, c0, c1)| {
            (
                g.clone(),
                m,
                (r0.min(r1), r0.max(r1), c0.min(c1), c0.max(c1)),
            )
        })
    })
}

fn region_of(g: &GridSpace, q: (u32, u32, u32, u32)) -> BucketRegion {
    RangeQuery::new([q.0, q.2], [q.1, q.3])
        .expect("bounds ordered")
        .region(g)
        .expect("in grid")
}

/// The degraded RT of a query whose per-disk primary counts are `hist`,
/// through the fault path the `faults` experiment runs: the disks that
/// `failed` marks fail-stop at t = 0, and each batch is served by the
/// first live copy on its `r`-way chain, with instant failure detection.
/// `None` when some touched batch has no live copy.
fn chain_rt(hist: &[u64], failed: &[bool], r: u32) -> Option<u64> {
    let mut schedule = FaultSchedule::healthy(failed.len() as u32);
    for (d, _) in failed.iter().enumerate().filter(|(_, &down)| down) {
        schedule = schedule.fail_stop(d as u32, 0).expect("disk in range");
    }
    let outcome = degraded_outcome(
        hist,
        &schedule,
        0,
        &RetryPolicy::instant(),
        r,
        ReplicaPolicy::FailoverOnly,
        &mut Vec::new(),
    )
    .expect("one count per disk, r < M");
    match outcome {
        QueryOutcome::Served { response_time, .. } => Some(response_time),
        QueryOutcome::Unavailable { .. } => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every method: RT within [optimal, |Q|]; disks in range; totals add up.
    #[test]
    fn response_time_is_bounded((g, m, q) in config()) {
        let region = region_of(&g, q);
        let registry = MethodRegistry::default();
        for method in registry.with_baselines(&g, m) {
            let map = AllocationMap::from_method(&g, method.as_ref()).expect("materializes");
            let rt = map.response_time(&region);
            let opt = optimal_response_time(region.num_buckets(), m);
            prop_assert!(rt >= opt, "{} RT {rt} below optimal {opt}", method.name());
            prop_assert!(rt <= region.num_buckets(), "{} RT above |Q|", method.name());
            let hist = map.access_histogram(&region);
            prop_assert_eq!(hist.iter().sum::<u64>(), region.num_buckets());
            prop_assert_eq!(hist.iter().copied().max().unwrap_or(0), rt);
        }
    }

    /// Materialized and direct evaluation agree for every method.
    #[test]
    fn materialization_is_faithful((g, m, q) in config()) {
        let region = region_of(&g, q);
        let registry = MethodRegistry::default();
        for method in registry.paper_methods(&g, m) {
            let map = AllocationMap::from_method(&g, method.as_ref()).expect("materializes");
            prop_assert_eq!(
                map.response_time(&region),
                response_time(method.as_ref(), &region),
                "{} disagrees with its materialization", method.name()
            );
        }
    }

    /// Load balance: the structured methods keep static loads within the
    /// tightest possible bound (max - min <= 1) on power-of-two square
    /// grids with M dividing the side (DM's balance precondition
    /// d_i mod M = 0; the others are balanced regardless).
    #[test]
    fn structured_methods_balance_loads(side_pow in 2u32..6, m_sub in 0u32..4) {
        let side = 1u32 << side_pow;
        let m = 1u32 << m_sub.min(side_pow);
        let g = GridSpace::new_2d(side, side).expect("grid");
        let registry = MethodRegistry::default();
        for method in registry.paper_methods(&g, m) {
            let map = AllocationMap::from_method(&g, method.as_ref()).expect("materializes");
            let stats = map.load_stats();
            prop_assert!(
                stats.max - stats.min <= 1,
                "{} load spread {}..{} on {side}x{side}, M={m}",
                method.name(), stats.min, stats.max
            );
        }
    }

    /// Translation invariance of the modulo family: shifting a query by a
    /// multiple of M along one axis leaves DM's response time unchanged.
    #[test]
    fn dm_is_translation_invariant_mod_m(
        m in 2u32..8, w in 1u32..5, h in 1u32..5, r in 0u32..4, c in 0u32..4
    ) {
        let g = GridSpace::new_2d(64, 64).expect("grid");
        let dm = DiskModulo::new(&g, m).expect("dm");
        let base = RangeQuery::new([r, c], [r + h - 1, c + w - 1])
            .expect("query").region(&g).expect("fits");
        let shifted = RangeQuery::new([r + m, c], [r + m + h - 1, c + w - 1])
            .expect("query").region(&g).expect("fits");
        prop_assert_eq!(response_time(&dm, &base), response_time(&dm, &shifted));
    }

    /// The optimal bound is monotone in query size and anti-monotone in M.
    #[test]
    fn optimal_bound_monotonicity(n in 0u64..10_000, m in 1u32..64) {
        prop_assert!(optimal_response_time(n + 1, m) >= optimal_response_time(n, m));
        prop_assert!(optimal_response_time(n, m + 1) <= optimal_response_time(n, m));
    }

    /// Chained declustering vs the `theory::bounds` failure enumeration,
    /// for every paper method and every single-disk failure on a small
    /// grid: each placement stays available with degraded RT >= healthy
    /// RT, placements the failure leaves untouched keep their healthy RT
    /// exactly, and the fraction of untouched placements agrees with
    /// [`failure_survival_fraction`]'s independent (kernel-based) count.
    #[test]
    fn chained_failures_match_the_theory_enumeration(
        rows in 3u32..9, cols in 3u32..9, m in 2u32..6, h in 1u32..4, w in 1u32..4
    ) {
        use decluster::theory::bounds::failure_survival_fraction;
        let (h, w) = (h.min(rows), w.min(cols));
        let g = GridSpace::new_2d(rows, cols).expect("grid");
        for method in MethodRegistry::default().paper_methods(&g, m) {
            let map = AllocationMap::from_method(&g, method.as_ref()).expect("materializes");
            for f in 0..m {
                let failed: Vec<bool> = (0..m).map(|d| d == f).collect();
                let mut untouched = 0u64;
                let mut placements = 0u64;
                for r in 0..=(rows - h) {
                    for c in 0..=(cols - w) {
                        let region = RangeQuery::new([r, c], [r + h - 1, c + w - 1])
                            .expect("query").region(&g).expect("fits");
                        placements += 1;
                        let hist = map.access_histogram(&region);
                        let healthy = map.response_time(&region);
                        let degraded = chain_rt(&hist, &failed, 1)
                            .expect("chained survives any single failure");
                        prop_assert!(
                            degraded >= healthy,
                            "{}: degraded {degraded} < healthy {healthy}", method.name()
                        );
                        if hist[f as usize] == 0 {
                            untouched += 1;
                            prop_assert_eq!(
                                degraded, healthy,
                                "{}: untouched placement changed RT", method.name()
                            );
                        }
                    }
                }
                let fraction = failure_survival_fraction(&map, &[h, w], DiskId(f))
                    .expect("shape fits, disk in range");
                prop_assert_eq!(
                    fraction,
                    untouched as f64 / placements as f64,
                    "{}: theory enumeration disagrees for failed disk {f}", method.name()
                );
            }
        }
    }

    /// The r = 1 chain against a hand-rolled one-successor reference on
    /// random grids and random failure masks: every bucket reads its
    /// primary, a failed primary falls back to `(primary + 1) mod M`, and
    /// the query is lost when that successor is down too. The fault path
    /// must reproduce this reference exactly from the naive walk's
    /// histogram and from the kernel's.
    #[test]
    fn r1_masked_failover_matches_the_one_successor_reference(
        (g, m, q) in config(), bits in any::<u32>()
    ) {
        prop_assume!(m >= 2);
        let region = region_of(&g, q);
        let failed: Vec<bool> = (0..m).map(|d| (bits >> d) & 1 != 0).collect();
        for method in MethodRegistry::default().paper_methods(&g, m) {
            let map = AllocationMap::from_method(&g, method.as_ref()).expect("materializes");
            let kernel = map.disk_counts().expect("kernel builds");
            let mut per_disk = vec![0u64; m as usize];
            let mut lost = false;
            for bucket in region.iter() {
                let p = map.disk_of(bucket.as_slice()).0;
                let serving = if !failed[p as usize] {
                    p
                } else {
                    let s = (p + 1) % m;
                    if failed[s as usize] {
                        lost = true;
                        break;
                    }
                    s
                };
                per_disk[serving as usize] += 1;
            }
            let reference = if lost {
                None
            } else {
                Some(per_disk.iter().copied().max().unwrap_or(0))
            };
            prop_assert_eq!(
                chain_rt(&map.access_histogram(&region), &failed, 1),
                reference,
                "{}: naive histogram diverged from the reference (mask {bits:b})",
                method.name()
            );
            prop_assert_eq!(
                chain_rt(&kernel.access_histogram(&region), &failed, 1),
                reference,
                "{}: kernel histogram diverged from the reference (mask {bits:b})",
                method.name()
            );
        }
    }

    /// An r-way chain survives ANY `<= r` simultaneous failures with
    /// availability 1.0: every placement of the shape stays answerable at
    /// a degraded RT no better than healthy. Cross-checked against the
    /// `theory::bounds` failure enumeration: for single failures, the
    /// fraction of placements whose RT is untouched equals
    /// [`failure_survival_fraction`] — replication lifts the *answerable*
    /// fraction to 1.0 but cannot change which placements dodge the
    /// failed disk entirely.
    #[test]
    fn r_way_chains_survive_any_r_failures(
        rows in 3u32..7, cols in 3u32..7, m in 2u32..5, r_raw in 1u32..4,
        h in 1u32..3, w in 1u32..3
    ) {
        use decluster::theory::bounds::failure_survival_fraction;
        let r = r_raw.min(m - 1);
        let (h, w) = (h.min(rows), w.min(cols));
        let g = GridSpace::new_2d(rows, cols).expect("grid");
        for method in MethodRegistry::default().paper_methods(&g, m) {
            let map = AllocationMap::from_method(&g, method.as_ref()).expect("materializes");
            let kernel = map.disk_counts().expect("kernel builds");
            for bits in 0u32..(1 << m) {
                if bits.count_ones() > r {
                    continue;
                }
                let failed: Vec<bool> = (0..m).map(|d| (bits >> d) & 1 != 0).collect();
                let mut untouched = 0u64;
                let mut placements = 0u64;
                for row in 0..=(rows - h) {
                    for col in 0..=(cols - w) {
                        let region = RangeQuery::new([row, col], [row + h - 1, col + w - 1])
                            .expect("query").region(&g).expect("fits");
                        placements += 1;
                        let hist = kernel.access_histogram(&region);
                        let healthy = map.response_time(&region);
                        let degraded = chain_rt(&hist, &failed, r);
                        prop_assert!(
                            degraded.is_some(),
                            "{}: r = {r} lost a query under mask {bits:b}", method.name()
                        );
                        prop_assert!(
                            degraded.unwrap() >= healthy,
                            "{}: degraded below healthy under mask {bits:b}", method.name()
                        );
                        if bits.count_ones() == 1 && hist[bits.trailing_zeros() as usize] == 0 {
                            untouched += 1;
                            prop_assert_eq!(
                                degraded.unwrap(), healthy,
                                "{}: untouched placement changed RT", method.name()
                            );
                        }
                    }
                }
                if bits.count_ones() == 1 {
                    let f = bits.trailing_zeros();
                    let fraction = failure_survival_fraction(&map, &[h, w], DiskId(f))
                        .expect("shape fits, disk in range");
                    prop_assert_eq!(
                        fraction,
                        untouched as f64 / placements as f64,
                        "{}: theory enumeration disagrees for failed disk {f} at r = {r}",
                        method.name()
                    );
                }
            }
        }
    }

    /// One failure on the classic r = 1 chain at most doubles the healthy
    /// RT: the failed disk's whole share lands on its one successor,
    /// which serves at most its own batch plus that share.
    #[test]
    fn one_failure_at_most_doubles_the_healthy_rt(
        (g, m, q) in config(), f_raw in any::<u32>()
    ) {
        prop_assume!(m >= 2);
        let region = region_of(&g, q);
        let f = f_raw % m;
        let failed: Vec<bool> = (0..m).map(|d| d == f).collect();
        for method in MethodRegistry::default().paper_methods(&g, m) {
            let map = AllocationMap::from_method(&g, method.as_ref()).expect("materializes");
            let healthy = map.response_time(&region);
            let degraded = chain_rt(&map.access_histogram(&region), &failed, 1)
                .expect("r = 1 survives one failure");
            prop_assert!(
                healthy <= degraded && degraded <= 2 * healthy,
                "{}: failed disk {f} took RT {healthy} to {degraded}", method.name()
            );
        }
    }

    /// A deeper chain never loses a query that a shallower chain serves,
    /// and never raises its RT: each batch whose shallow chain has a live
    /// copy is served by the same first live copy on the deeper chain.
    /// Chains from no replication (r = 0) to r = M - 1, under random
    /// failure masks.
    #[test]
    fn deeper_chains_never_lose_or_slow_a_served_query(
        (g, m, q) in config(), bits in any::<u32>()
    ) {
        prop_assume!(m >= 2);
        let region = region_of(&g, q);
        let failed: Vec<bool> = (0..m).map(|d| (bits >> d) & 1 != 0).collect();
        for method in MethodRegistry::default().paper_methods(&g, m) {
            let map = AllocationMap::from_method(&g, method.as_ref()).expect("materializes");
            let hist = map.access_histogram(&region);
            for r in 0..m - 1 {
                let Some(shallow) = chain_rt(&hist, &failed, r) else {
                    continue;
                };
                let deeper = chain_rt(&hist, &failed, r + 1);
                prop_assert!(
                    deeper.is_some_and(|rt| rt <= shallow),
                    "{}: r = {} gave {deeper:?} where r = {r} served at {shallow} (mask {bits:b})",
                    method.name(), r + 1
                );
            }
        }
    }
}
