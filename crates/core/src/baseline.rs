use crate::{DeclusteringMethod, MethodError, Result};
use decluster_grid::{DiskId, GridSpace};

/// Row-major round-robin baseline: `disk = linearize(bucket) mod M`.
///
/// The naive "deal pages in scan order" allocation every comparison needs
/// as a floor. Identical to BDM on this grid (see
/// [`crate::GeneralizedDiskModulo::bdm`]) but kept separate so reports can
/// show the baseline by name.
#[derive(Clone, Debug)]
pub struct RoundRobin {
    m: u32,
    space: GridSpace,
}

impl RoundRobin {
    /// Creates a round-robin baseline for `space` over `m` disks.
    ///
    /// # Errors
    /// [`MethodError::ZeroDisks`] when `m == 0`.
    pub fn new(space: &GridSpace, m: u32) -> Result<Self> {
        if m == 0 {
            return Err(MethodError::ZeroDisks);
        }
        Ok(RoundRobin {
            m,
            space: space.clone(),
        })
    }
}

impl DeclusteringMethod for RoundRobin {
    fn name(&self) -> &'static str {
        "RR"
    }

    fn num_disks(&self) -> u32 {
        self.m
    }

    #[inline]
    fn disk_of(&self, bucket: &[u32]) -> DiskId {
        DiskId((self.space.linearize_unchecked(bucket) % u64::from(self.m)) as u32)
    }

    fn fill_table(&self, space: &GridSpace, out: &mut Vec<u32>) {
        let m = u64::from(self.m);
        out.extend((0..space.num_buckets()).map(|id| (id % m) as u32));
    }
}

/// Seeded pseudo-random baseline: `disk = splitmix64(seed ⊕ linearize(bucket)) mod M`.
///
/// Deterministic for a given seed, so experiments are reproducible, but
/// structure-free: the canonical "no spatial intelligence" comparison
/// point. Uses a SplitMix64 finalizer rather than the `rand` crate so the
/// assignment is a pure O(1) function of the bucket (no state, no
/// materialization).
#[derive(Clone, Debug)]
pub struct RandomAlloc {
    m: u32,
    seed: u64,
    space: GridSpace,
}

impl RandomAlloc {
    /// Creates a random baseline for `space` over `m` disks with the given
    /// seed.
    ///
    /// # Errors
    /// [`MethodError::ZeroDisks`] when `m == 0`.
    pub fn new(space: &GridSpace, m: u32, seed: u64) -> Result<Self> {
        if m == 0 {
            return Err(MethodError::ZeroDisks);
        }
        Ok(RandomAlloc {
            m,
            seed,
            space: space.clone(),
        })
    }
}

impl DeclusteringMethod for RandomAlloc {
    fn name(&self) -> &'static str {
        "RND"
    }

    fn num_disks(&self) -> u32 {
        self.m
    }

    #[inline]
    fn disk_of(&self, bucket: &[u32]) -> DiskId {
        let id = self.space.linearize_unchecked(bucket);
        DiskId((crate::splitmix64(self.seed ^ id) % u64::from(self.m)) as u32)
    }

    fn fill_table(&self, space: &GridSpace, out: &mut Vec<u32>) {
        let m = u64::from(self.m);
        out.extend(
            (0..space.num_buckets()).map(|id| (crate::splitmix64(self.seed ^ id) % m) as u32),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_follows_scan_order() {
        let g = GridSpace::new_2d(4, 4).unwrap();
        let rr = RoundRobin::new(&g, 3).unwrap();
        assert_eq!(rr.disk_of(&[0, 0]), DiskId(0));
        assert_eq!(rr.disk_of(&[0, 1]), DiskId(1));
        assert_eq!(rr.disk_of(&[0, 2]), DiskId(2));
        assert_eq!(rr.disk_of(&[0, 3]), DiskId(0));
        assert_eq!(rr.disk_of(&[1, 0]), DiskId(1));
        assert_eq!(rr.name(), "RR");
    }

    #[test]
    fn round_robin_balances_perfectly_when_divisible() {
        let g = GridSpace::new_2d(6, 6).unwrap();
        let rr = RoundRobin::new(&g, 4).unwrap();
        let mut counts = [0u64; 4];
        for b in g.iter() {
            counts[rr.disk_of(b.as_slice()).index()] += 1;
        }
        assert_eq!(counts, [9, 9, 9, 9]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let a = RandomAlloc::new(&g, 7, 42).unwrap();
        let b = RandomAlloc::new(&g, 7, 42).unwrap();
        let c = RandomAlloc::new(&g, 7, 43).unwrap();
        let mut differs = false;
        for bucket in g.iter() {
            assert_eq!(a.disk_of(bucket.as_slice()), b.disk_of(bucket.as_slice()));
            differs |= a.disk_of(bucket.as_slice()) != c.disk_of(bucket.as_slice());
        }
        assert!(differs, "different seeds should give different allocations");
    }

    #[test]
    fn random_spreads_over_all_disks() {
        let g = GridSpace::new_2d(32, 32).unwrap();
        let r = RandomAlloc::new(&g, 8, 1).unwrap();
        let mut counts = [0u64; 8];
        for b in g.iter() {
            counts[r.disk_of(b.as_slice()).index()] += 1;
        }
        // 1024 buckets over 8 disks: expect 128 each; allow generous slack.
        assert!(counts.iter().all(|&c| c > 64 && c < 256), "{counts:?}");
    }

    #[test]
    fn zero_disks_rejected() {
        let g = GridSpace::new_2d(4, 4).unwrap();
        assert!(RoundRobin::new(&g, 0).is_err());
        assert!(RandomAlloc::new(&g, 0, 0).is_err());
    }
}
