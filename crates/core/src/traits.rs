use decluster_grid::{DiskId, GridSpace};

/// A grid-based declustering method: a total function from bucket
/// coordinates to disks.
///
/// Implementations are constructed for a specific grid and disk count and
/// must be **total** (every in-grid bucket gets a disk), **deterministic**,
/// and must return disks in `0..num_disks()`. Those invariants are enforced
/// by each implementation's constructor plus the property tests in this
/// crate; [`crate::AllocationMap::from_method`] additionally asserts the
/// range invariant while materializing.
///
/// The trait is object-safe so heterogeneous method sets can be swept by
/// the experiment harness (`Vec<Box<dyn DeclusteringMethod>>`).
pub trait DeclusteringMethod: Send + Sync {
    /// Short stable name used in reports and the registry
    /// (e.g. `"DM"`, `"FX"`, `"ECC"`, `"HCAM"`).
    fn name(&self) -> &'static str;

    /// Number of disks this instance declusters over (`M`).
    fn num_disks(&self) -> u32;

    /// The disk assigned to the bucket with the given coordinates.
    ///
    /// `bucket` must be an in-grid coordinate vector for the grid the
    /// method was constructed with; implementations may panic or return an
    /// arbitrary in-range disk on out-of-grid input (they never return an
    /// out-of-range disk).
    fn disk_of(&self, bucket: &[u32]) -> DiskId;

    /// Appends the disk of every bucket of `space`, in row-major order,
    /// to `out`: exactly `space.num_buckets()` entries, entry `i` being
    /// the disk of the bucket with linear id `i`.
    ///
    /// `space` must be the grid the method was constructed with. The
    /// default walks the grid calling [`DeclusteringMethod::disk_of`] per
    /// bucket, and is the reference every override must equal; methods
    /// override it to fill a row or a whole table at a time.
    /// [`crate::AllocationMap::from_method`] materializes through it.
    fn fill_table(&self, space: &GridSpace, out: &mut Vec<u32>) {
        space.for_each_bucket(|bucket| out.push(self.disk_of(bucket.as_slice()).0));
    }
}

impl<T: DeclusteringMethod + ?Sized> DeclusteringMethod for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn num_disks(&self) -> u32 {
        (**self).num_disks()
    }
    fn disk_of(&self, bucket: &[u32]) -> DiskId {
        (**self).disk_of(bucket)
    }
    fn fill_table(&self, space: &GridSpace, out: &mut Vec<u32>) {
        (**self).fill_table(space, out)
    }
}

impl<T: DeclusteringMethod + ?Sized> DeclusteringMethod for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn num_disks(&self) -> u32 {
        (**self).num_disks()
    }
    fn disk_of(&self, bucket: &[u32]) -> DiskId {
        (**self).disk_of(bucket)
    }
    fn fill_table(&self, space: &GridSpace, out: &mut Vec<u32>) {
        (**self).fill_table(space, out)
    }
}

/// How [`fill_rows`] folds a bucket's per-coordinate terms into its disk.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fold {
    /// The terms are residues mod `m`; the disk is their sum mod `m`.
    AddMod(u32),
    /// The disk is the XOR of the terms, reduced mod `m`.
    XorMod(u32),
}

impl Fold {
    /// Folds one more term into `acc`.
    #[inline]
    fn step(self, acc: u32, term: u32) -> u32 {
        match self {
            Fold::AddMod(m) => add_mod(acc, term, m),
            Fold::XorMod(_) => acc ^ term,
        }
    }
}

/// `(a + b) mod m` for residues `a, b < m`, without overflow.
#[inline]
fn add_mod(a: u32, b: u32, m: u32) -> u32 {
    if a >= m - b {
        a - (m - b)
    } else {
        a + b
    }
}

/// The row fill shared by the methods whose disk folds one term per
/// coordinate (DM, GDM/BDM, FX/ExFX, ECC): appends the disk of every
/// bucket of `space` to `out` in row-major order, as
/// [`DeclusteringMethod::fill_table`] specifies.
///
/// `term(dim, c)` is the contribution of coordinate `c` on dimension
/// `dim`. The last dimension's terms are computed once per call; each row
/// (a run along the last dimension) folds the terms of its leading
/// coordinates into one prefix, then combines that prefix with every
/// last-dimension term. A bucket costs one add mod `m`, or one XOR and
/// a mask (a remainder when `m` is not a power of two).
pub(crate) fn fill_rows(
    space: &GridSpace,
    fold: Fold,
    term: impl Fn(usize, u32) -> u32,
    out: &mut Vec<u32>,
) {
    let dims = space.dims();
    let last = dims.len() - 1;
    let row: Vec<u32> = (0..dims[last]).map(|c| term(last, c)).collect();
    // The leading coordinates of the current row, advanced like an
    // odometer.
    let mut lead = vec![0u32; last];
    for _ in 0..space.num_buckets() / u64::from(dims[last]) {
        let p = lead
            .iter()
            .enumerate()
            .fold(0, |acc, (dim, &c)| fold.step(acc, term(dim, c)));
        match fold {
            Fold::AddMod(m) => out.extend(row.iter().map(|&t| add_mod(p, t, m))),
            Fold::XorMod(m) if m.is_power_of_two() => {
                out.extend(row.iter().map(|&t| (p ^ t) & (m - 1)));
            }
            Fold::XorMod(m) => out.extend(row.iter().map(|&t| (p ^ t) % m)),
        }
        for (c, &d) in lead.iter_mut().zip(&dims[..last]).rev() {
            *c += 1;
            if *c < d {
                break;
            }
            *c = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;
    impl DeclusteringMethod for Fixed {
        fn name(&self) -> &'static str {
            "FIXED"
        }
        fn num_disks(&self) -> u32 {
            1
        }
        fn disk_of(&self, _: &[u32]) -> DiskId {
            DiskId(0)
        }
    }

    #[test]
    fn trait_is_object_safe_and_forwards() {
        let boxed: Box<dyn DeclusteringMethod> = Box::new(Fixed);
        assert_eq!(boxed.name(), "FIXED");
        assert_eq!(boxed.disk_of(&[1, 2]), DiskId(0));
        let by_ref: &dyn DeclusteringMethod = &Fixed;
        assert_eq!((&by_ref).num_disks(), 1);
    }
}
