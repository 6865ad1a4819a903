use crate::traits::{fill_rows, Fold};
use crate::{DeclusteringMethod, MethodError, Result};
use decluster_ecc::{BinaryLinearCode, BitMatrix};
use decluster_grid::{DiskId, GridSpace};

/// Coordinate bits covered by a dimension's low syndrome table; the bits
/// above have a table of their own, so no table passes 2^16 entries.
const LOW_BITS: u32 = 16;

/// Error-Correcting-Code (ECC) declustering, Faloutsos & Metaxas (IEEE
/// Transactions on Computers, 1991).
///
/// Requires every `d_i` and `M` to be powers of two. A bucket's
/// coordinates are concatenated into an `n`-bit word
/// (`n = Σ log2(d_i)`); the `M = 2^r` disks are the cosets of an
/// `[n, n−r]` binary linear code, and the bucket's disk is the syndrome of
/// its word under the code's parity-check matrix. Disk 0 holds exactly the
/// codewords — buckets on one disk differ in at least `d_min` coordinate
/// bits, spreading similar buckets across disks.
///
/// The parity-check equations come from a shortened-Hamming construction
/// (`d_min ≥ 3`) when `n ≤ 2^r − 1`, falling back to a full-rank
/// repeated-column construction (`d_min = 2`) for wider words — the
/// programmatic stand-in for the Reza `[20]` code tables the original paper
/// reads equations from (DESIGN.md §4).
///
/// The syndrome is linear over GF(2), so a word's syndrome is the XOR of
/// its coordinates' syndromes. The constructor tabulates those per
/// dimension, and a bucket's disk is the XOR of one low-bits and one
/// high-bits table entry per coordinate.
#[derive(Clone, Debug)]
pub struct EccDecluster {
    m: u32,
    /// Per dimension, the syndromes of a coordinate's low [`LOW_BITS`]
    /// bits and of its high bits (one zero entry when the side fits the
    /// low table).
    syndromes: Vec<[Vec<u32>; 2]>,
    /// `None` for the trivial single-disk case (`M = 1`).
    code: Option<BinaryLinearCode>,
}

impl EccDecluster {
    /// Creates an ECC instance for `space` over `m` disks.
    ///
    /// # Errors
    /// * [`MethodError::NotPowerOfTwo`] if `m` or any `d_i` is not a power
    ///   of two.
    /// * [`MethodError::UnsupportedGrid`] if the grid has fewer buckets
    ///   than disks (the syndrome map cannot be onto).
    pub fn new(space: &GridSpace, m: u32) -> Result<Self> {
        if m == 0 {
            return Err(MethodError::ZeroDisks);
        }
        if !m.is_power_of_two() {
            return Err(MethodError::NotPowerOfTwo {
                what: "number of disks".into(),
                value: u64::from(m),
            });
        }
        let mut dim_bits = Vec::with_capacity(space.k());
        for (i, &d) in space.dims().iter().enumerate() {
            if !d.is_power_of_two() {
                return Err(MethodError::NotPowerOfTwo {
                    what: format!("partitions on dimension {i}"),
                    value: u64::from(d),
                });
            }
            dim_bits.push(d.trailing_zeros());
        }
        let n: u32 = dim_bits.iter().sum();
        let r = m.trailing_zeros();
        let code = if m == 1 {
            None
        } else {
            if n < r {
                return Err(MethodError::UnsupportedGrid {
                    method: "ECC",
                    reason: format!("grid has 2^{n} buckets, fewer than M = 2^{r} disks"),
                });
            }
            let h = if u128::from(n) < (1u128 << r) {
                BitMatrix::hamming_parity_check(r, n as usize)?
            } else {
                BitMatrix::cyclic_parity_check(r, n as usize)?
            };
            Some(BinaryLinearCode::from_parity_check(h)?)
        };
        // Dimension 0 sits in the word's least-significant bits.
        let mut shift = 0;
        let syndromes = dim_bits
            .iter()
            .map(|&bits| {
                let low = bits.min(LOW_BITS);
                let tables = [
                    field_syndromes(code.as_ref(), shift, low),
                    field_syndromes(code.as_ref(), shift + low, bits - low),
                ];
                shift += bits;
                tables
            })
            .collect();
        Ok(EccDecluster { m, syndromes, code })
    }

    /// The underlying code, if `M > 1`.
    pub fn code(&self) -> Option<&BinaryLinearCode> {
        self.code.as_ref()
    }

    /// The syndrome of coordinate `c` on dimension `dim`.
    #[inline]
    fn term(&self, dim: usize, c: u32) -> u32 {
        let [low, high] = &self.syndromes[dim];
        low[(c & ((1 << LOW_BITS) - 1)) as usize] ^ high[(c >> LOW_BITS) as usize]
    }
}

/// The syndrome of every value of a `bits`-bit field whose bit `i` is
/// bit `shift + i` of the code word, indexed by the field's value; all
/// zero without a code.
fn field_syndromes(code: Option<&BinaryLinearCode>, shift: u32, bits: u32) -> Vec<u32> {
    let mut table = vec![0u32; 1 << bits];
    if let Some(code) = code {
        // The values below 2^(i+1) are those below 2^i, then the same
        // with bit i set: linearity adds that bit's column.
        for i in 0..bits {
            let column = code.syndrome(1u128 << (shift + i)) as u32;
            let (done, next) = table.split_at_mut(1 << i);
            for (s, &t) in next.iter_mut().zip(done.iter()) {
                *s = t ^ column;
            }
        }
    }
    table
}

impl DeclusteringMethod for EccDecluster {
    fn name(&self) -> &'static str {
        "ECC"
    }

    fn num_disks(&self) -> u32 {
        self.m
    }

    #[inline]
    fn disk_of(&self, bucket: &[u32]) -> DiskId {
        debug_assert_eq!(bucket.len(), self.syndromes.len());
        let syndrome = bucket
            .iter()
            .enumerate()
            .fold(0, |acc, (dim, &c)| acc ^ self.term(dim, c));
        DiskId(syndrome)
    }

    fn fill_table(&self, space: &GridSpace, out: &mut Vec<u32>) {
        fill_rows(space, Fold::XorMod(self.m), |dim, c| self.term(dim, c), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Concatenates a bucket's coordinate bits into the code word
    /// (dimension 0 in the least-significant bits).
    fn word_of(space: &GridSpace, bucket: &[u32]) -> u128 {
        let mut word: u128 = 0;
        let mut shift: u32 = 0;
        for (&c, &d) in bucket.iter().zip(space.dims()) {
            word |= u128::from(c) << shift;
            shift += d.trailing_zeros();
        }
        word
    }

    /// The disk of every bucket as the code's syndrome of its word: the
    /// parity-check multiply that the syndrome tables replace.
    fn assert_disks_are_syndromes(space: &GridSpace, m: u32) {
        let ecc = EccDecluster::new(space, m).unwrap();
        let code = ecc.code().unwrap();
        for b in space.iter() {
            let expected = code.syndrome(word_of(space, b.as_slice())) as u32;
            assert_eq!(
                ecc.disk_of(b.as_slice()).0,
                expected,
                "{:?} at {b}",
                space.dims()
            );
        }
    }

    #[test]
    fn disks_are_syndromes_under_both_constructions() {
        // Shortened Hamming (n <= 2^r - 1): n = 6, 8, 12, 7 with r = 3, 4, 4, 3.
        for (dims, m) in [
            (vec![8u32, 8], 8u32),
            (vec![16, 16], 16),
            (vec![64, 64], 16),
            (vec![2, 16, 4], 8),
        ] {
            let g = GridSpace::new(dims).unwrap();
            assert!(g.num_buckets().trailing_zeros() < m, "Hamming");
            assert_disks_are_syndromes(&g, m);
        }
        // The cyclic fallback (n > 2^r - 1): n = 12 with r = 1 and 2,
        // n = 15 with r = 2.
        for (dims, m) in [
            (vec![64u32, 64], 2u32),
            (vec![64, 64], 4),
            (vec![32, 32, 32], 4),
        ] {
            let g = GridSpace::new(dims).unwrap();
            assert!(g.num_buckets().trailing_zeros() >= m, "cyclic");
            assert_disks_are_syndromes(&g, m);
        }
    }

    #[test]
    fn coordinates_past_the_low_table_use_the_high_one() {
        // Dimension 0 has 2^18 partitions: its bits 16 and 17 are read
        // from the high table.
        let g = GridSpace::new(vec![1 << 18, 2]).unwrap();
        let ecc = EccDecluster::new(&g, 8).unwrap();
        assert_eq!(ecc.syndromes[0][1].len(), 4);
        assert_eq!(ecc.syndromes[1][1], vec![0]);
        assert_disks_are_syndromes(&g, 8);
    }

    #[test]
    fn validation_rejects_non_powers_of_two() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        assert!(matches!(
            EccDecluster::new(&g, 6).unwrap_err(),
            MethodError::NotPowerOfTwo { .. }
        ));
        let g = GridSpace::new_2d(6, 8).unwrap();
        assert!(matches!(
            EccDecluster::new(&g, 4).unwrap_err(),
            MethodError::NotPowerOfTwo { .. }
        ));
        let g = GridSpace::new_2d(8, 8).unwrap();
        assert_eq!(
            EccDecluster::new(&g, 0).unwrap_err(),
            MethodError::ZeroDisks
        );
    }

    #[test]
    fn rejects_more_disks_than_buckets() {
        let g = GridSpace::new_2d(2, 2).unwrap();
        assert!(matches!(
            EccDecluster::new(&g, 32).unwrap_err(),
            MethodError::UnsupportedGrid { method: "ECC", .. }
        ));
    }

    #[test]
    fn single_disk_is_trivial() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let ecc = EccDecluster::new(&g, 1).unwrap();
        for b in g.iter() {
            assert_eq!(ecc.disk_of(b.as_slice()), DiskId(0));
        }
    }

    #[test]
    fn disk_zero_holds_exactly_the_codewords() {
        let g = GridSpace::new_2d(8, 8).unwrap(); // n = 6 bits
        let ecc = EccDecluster::new(&g, 8).unwrap(); // r = 3
        let code = ecc.code().unwrap();
        let mut on_disk0 = 0u32;
        for b in g.iter() {
            let word = word_of(&g, b.as_slice());
            let disk = ecc.disk_of(b.as_slice());
            assert_eq!(disk.0 == 0, code.is_codeword(word));
            if disk.0 == 0 {
                on_disk0 += 1;
            }
        }
        assert_eq!(u128::from(on_disk0), 1u128 << code.dimension());
    }

    #[test]
    fn load_is_perfectly_balanced() {
        // Cosets partition the word space evenly, so every disk gets
        // exactly num_buckets / M buckets.
        for (dims, m) in [
            (vec![8u32, 8], 4u32),
            (vec![16, 16], 16),
            (vec![4, 4, 4], 8),
        ] {
            let g = GridSpace::new(dims).unwrap();
            let ecc = EccDecluster::new(&g, m).unwrap();
            let mut counts = vec![0u64; m as usize];
            for b in g.iter() {
                counts[ecc.disk_of(b.as_slice()).index()] += 1;
            }
            let expected = g.num_buckets() / u64::from(m);
            assert!(counts.iter().all(|&c| c == expected), "{counts:?}");
        }
    }

    #[test]
    fn same_disk_buckets_differ_in_at_least_min_distance_bits() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let ecc = EccDecluster::new(&g, 8).unwrap();
        let dmin = ecc.code().unwrap().min_distance().unwrap();
        assert!(dmin >= 3);
        let words: Vec<(u128, u32)> = g
            .iter()
            .map(|b| (word_of(&g, b.as_slice()), ecc.disk_of(b.as_slice()).0))
            .collect();
        for (i, &(wa, da)) in words.iter().enumerate() {
            for &(wb, db) in &words[i + 1..] {
                if da == db {
                    assert!((wa ^ wb).count_ones() >= dmin);
                }
            }
        }
    }

    #[test]
    fn wide_grid_with_few_disks_uses_fallback_but_stays_balanced() {
        // n = 12 bits, M = 2 (r = 1): Hamming capacity is 1 column, so the
        // cyclic construction kicks in.
        let g = GridSpace::new_2d(64, 64).unwrap();
        let ecc = EccDecluster::new(&g, 2).unwrap();
        let mut counts = [0u64; 2];
        for b in g.iter() {
            counts[ecc.disk_of(b.as_slice()).index()] += 1;
        }
        assert_eq!(counts[0], counts[1]);
    }

    #[test]
    fn word_of_packs_dimension_zero_lowest() {
        let g = GridSpace::new_2d(4, 8).unwrap(); // bits: 2, 3
        assert_eq!(word_of(&g, &[0b11, 0b101]), 0b1_0111);
    }

    proptest::proptest! {
        #[test]
        fn disks_are_syndromes_on_random_grids(
            bits in proptest::collection::vec(0u32..=4, 1..5),
            r in 1u32..=5,
        ) {
            let space = GridSpace::new(bits.iter().map(|&b| 1u32 << b).collect::<Vec<_>>()).unwrap();
            if bits.iter().sum::<u32>() >= r {
                assert_disks_are_syndromes(&space, 1 << r);
            }
        }
    }

    #[test]
    fn asymmetric_dimensions() {
        let g = GridSpace::new(vec![2, 16, 4]).unwrap(); // n = 1+4+2 = 7
        let ecc = EccDecluster::new(&g, 8).unwrap();
        let mut counts = vec![0u64; 8];
        for b in g.iter() {
            counts[ecc.disk_of(b.as_slice()).index()] += 1;
        }
        assert!(counts.iter().all(|&c| c == 16), "{counts:?}");
    }
}
