use decluster_grid::BucketRegion;
use decluster_methods::DeclusteringMethod;

/// Response time of a query under a declustering method, in bucket
/// retrievals: the maximum number of the query's buckets that land on any
/// single disk (Definition 5 of the paper — all disks work in parallel, so
/// the busiest disk finishes last).
///
/// This is the naive `O(|Q|)` walk over every bucket of the region — the
/// reference implementation, and the only choice for an arbitrary
/// [`DeclusteringMethod`] trait object. When the same allocation is
/// queried repeatedly, materialize it and use
/// [`DiskCounts::response_time`](decluster_methods::DiskCounts::response_time),
/// which answers each rectangular query in `O(M · 2^k)` through the
/// prefix-sum kernel (built once per allocation with
/// [`decluster_methods::AllocationMap::disk_counts`]).
pub fn response_time(method: &dyn DeclusteringMethod, region: &BucketRegion) -> u64 {
    let mut per_disk = vec![0u64; method.num_disks() as usize];
    for bucket in region.iter() {
        per_disk[method.disk_of(bucket.as_slice()).index()] += 1;
    }
    per_disk.into_iter().max().unwrap_or(0)
}

/// The unbeatable lower bound on response time: `ceil(|Q| / M)` for a
/// query touching `num_buckets` buckets on `m` disks. An allocation
/// achieving this for a query is *optimal* for it.
pub fn optimal_response_time(num_buckets: u64, m: u32) -> u64 {
    if m == 0 {
        return num_buckets;
    }
    num_buckets.div_ceil(u64::from(m))
}

/// Additive deviation from optimality: `RT − ceil(|Q|/M)`; zero iff the
/// method is optimal for this query.
pub fn deviation_from_optimal(method: &dyn DeclusteringMethod, region: &BucketRegion) -> u64 {
    response_time(method, region) - optimal_response_time(region.num_buckets(), method.num_disks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use decluster_grid::{GridSpace, RangeQuery};
    use decluster_methods::{AllocationMap, DiskModulo, FieldwiseXor};

    #[test]
    fn batched_path_matches_naive_path() {
        let g = GridSpace::new_2d(16, 16).unwrap();
        let dm = DiskModulo::new(&g, 5).unwrap();
        let map = AllocationMap::from_method(&g, &dm).unwrap();
        let kernel = map.disk_counts().unwrap();
        for (lo, hi) in [
            ([0u32, 0u32], [3u32, 3u32]),
            ([2, 5], [9, 14]),
            ([0, 0], [15, 15]),
        ] {
            let r = RangeQuery::new(lo, hi).unwrap().region(&g).unwrap();
            assert_eq!(kernel.response_time(&r), response_time(&dm, &r));
        }
    }

    #[test]
    fn optimal_bound_rounds_up() {
        assert_eq!(optimal_response_time(0, 4), 0);
        assert_eq!(optimal_response_time(1, 4), 1);
        assert_eq!(optimal_response_time(4, 4), 1);
        assert_eq!(optimal_response_time(5, 4), 2);
        assert_eq!(optimal_response_time(17, 4), 5);
        assert_eq!(optimal_response_time(7, 0), 7);
    }

    #[test]
    fn response_time_never_beats_optimal() {
        let g = GridSpace::new_2d(16, 16).unwrap();
        let dm = DiskModulo::new(&g, 5).unwrap();
        for (lo, hi) in [
            ([0u32, 0u32], [3u32, 3u32]),
            ([2, 5], [9, 14]),
            ([0, 0], [15, 15]),
        ] {
            let r = RangeQuery::new(lo, hi).unwrap().region(&g).unwrap();
            let rt = response_time(&dm, &r);
            assert!(rt >= optimal_response_time(r.num_buckets(), 5));
        }
    }

    #[test]
    fn dm_is_optimal_on_full_rows() {
        let g = GridSpace::new_2d(16, 16).unwrap();
        let dm = DiskModulo::new(&g, 16).unwrap();
        let row = RangeQuery::new([3, 0], [3, 15])
            .unwrap()
            .region(&g)
            .unwrap();
        assert_eq!(response_time(&dm, &row), 1);
        assert_eq!(deviation_from_optimal(&dm, &row), 0);
    }

    #[test]
    fn dm_antidiagonal_is_pessimal() {
        // A square aligned with DM's anti-diagonals: the middle diagonal
        // gets ~side buckets on one disk.
        let g = GridSpace::new_2d(16, 16).unwrap();
        let dm = DiskModulo::new(&g, 16).unwrap();
        let sq = RangeQuery::new([0, 0], [7, 7]).unwrap().region(&g).unwrap();
        let rt = response_time(&dm, &sq);
        assert_eq!(rt, 8); // longest anti-diagonal of an 8x8 square
        assert_eq!(optimal_response_time(64, 16), 4);
        assert_eq!(deviation_from_optimal(&dm, &sq), 4);
    }

    #[test]
    fn fx_beats_dm_on_an_unaligned_square() {
        // 4x4 square at offset <1,2>, M=16. FX spreads it better than DM:
        // hand-computing i^j over i in 1..5, j in 2..6 gives a max disk
        // count of 3, while DM's middle anti-diagonal holds 4 buckets.
        let g = GridSpace::new_2d(16, 16).unwrap();
        let fx = FieldwiseXor::new(&g, 16).unwrap();
        let dm = DiskModulo::new(&g, 16).unwrap();
        let sq = RangeQuery::new([1, 2], [4, 5]).unwrap().region(&g).unwrap();
        assert_eq!(response_time(&fx, &sq), 3);
        assert_eq!(response_time(&dm, &sq), 4);
    }

    #[test]
    fn single_bucket_query_rt_is_one() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&g, 4).unwrap();
        let r = RangeQuery::new([5, 5], [5, 5]).unwrap().region(&g).unwrap();
        assert_eq!(response_time(&dm, &r), 1);
        assert_eq!(deviation_from_optimal(&dm, &r), 0);
    }
}
