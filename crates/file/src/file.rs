use crate::{IoReport, Result};
use decluster_grid::{
    BucketRegion, DiskId, GridError, GridSchema, PartialMatchQuery, PointQuery, Record,
    ValueRangeQuery,
};
use decluster_methods::{
    AllocationMap, DeclusteringMethod, MethodError, MethodKind, MethodRegistry,
};
use std::fmt;

/// Errors from declustered-file operations.
#[derive(Debug)]
pub enum FileError {
    /// Record routing / query mapping failed.
    Grid(GridError),
    /// Declustering-method construction failed.
    Method(MethodError),
}

impl fmt::Display for FileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FileError::Grid(e) => write!(f, "grid error: {e}"),
            FileError::Method(e) => write!(f, "method error: {e}"),
        }
    }
}

impl std::error::Error for FileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FileError::Grid(e) => Some(e),
            FileError::Method(e) => Some(e),
        }
    }
}

impl From<GridError> for FileError {
    fn from(e: GridError) -> Self {
        FileError::Grid(e)
    }
}

impl From<MethodError> for FileError {
    fn from(e: MethodError) -> Self {
        FileError::Method(e)
    }
}

/// The result of a scan: matching records plus the I/O accounting.
#[derive(Clone, Debug)]
pub struct ScanResult {
    /// Records satisfying the query, in bucket order.
    pub records: Vec<Record>,
    /// What the parallel I/O subsystem had to do.
    pub io: IoReport,
}

/// Static statistics of a declustered file.
#[derive(Clone, Debug, PartialEq)]
pub struct FileStats {
    /// Total records stored.
    pub records: u64,
    /// Buckets with at least one record.
    pub occupied_buckets: u64,
    /// Total buckets in the grid.
    pub total_buckets: u64,
    /// Records per disk.
    pub records_per_disk: Vec<u64>,
}

impl FileStats {
    /// Max-over-mean record skew across disks (1.0 = perfectly even).
    pub fn disk_skew(&self) -> f64 {
        let m = self.records_per_disk.len().max(1) as f64;
        let mean = self.records as f64 / m;
        if mean == 0.0 {
            return 1.0;
        }
        let max = self.records_per_disk.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }
}

/// A multi-attribute file declustered over `M` disks: the paper's storage
/// model, usable as a miniature storage engine.
///
/// Records are grouped into grid buckets (schema routing); each bucket
/// lives on exactly one disk (declustering). Scans map a value-level
/// query to its bucket region, read only the touched buckets, filter
/// records against the exact predicate, and report per-disk I/O.
pub struct DeclusteredFile {
    schema: GridSchema,
    allocation: AllocationMap,
    /// Records per linear bucket id.
    buckets: Vec<Vec<Record>>,
    records: u64,
}

impl DeclusteredFile {
    /// Creates an empty file declustered by `kind` over `num_disks`.
    ///
    /// # Errors
    /// Method construction errors (e.g. ECC on a non-power-of-two grid).
    pub fn create(schema: GridSchema, kind: MethodKind, num_disks: u32) -> Result<Self> {
        let method = MethodRegistry::default().build(kind, schema.space(), num_disks)?;
        Self::with_method(schema, method.as_ref())
    }

    /// Creates an empty file declustered by an explicit method instance.
    ///
    /// # Errors
    /// Materialization errors for oversized grids.
    pub fn with_method(schema: GridSchema, method: &dyn DeclusteringMethod) -> Result<Self> {
        let allocation = AllocationMap::from_method(schema.space(), method)?;
        let total = schema.space().num_buckets() as usize;
        Ok(DeclusteredFile {
            schema,
            allocation,
            buckets: vec![Vec::new(); total],
            records: 0,
        })
    }

    /// The file's schema.
    pub fn schema(&self) -> &GridSchema {
        &self.schema
    }

    /// The materialized allocation in use.
    pub fn allocation(&self) -> &AllocationMap {
        &self.allocation
    }

    /// Number of records stored.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Inserts a record, returning the disk it landed on.
    ///
    /// # Errors
    /// Routing errors for malformed records.
    pub fn insert(&mut self, record: Record) -> Result<DiskId> {
        let bucket = self.schema.bucket_of(&record)?;
        let id = self
            .schema
            .space()
            .linearize(&bucket)
            .expect("routed bucket is in grid");
        let disk = self.allocation.disk_of(bucket.as_slice());
        self.buckets[id as usize].push(record);
        self.records += 1;
        Ok(disk)
    }

    /// Bulk-inserts records; stops at the first failure, reporting how
    /// many were inserted.
    ///
    /// # Errors
    /// The first routing error, annotated with the successful count via
    /// `Ok(n)` semantics — callers needing partial results should insert
    /// one at a time.
    pub fn bulk_load(&mut self, records: impl IntoIterator<Item = Record>) -> Result<u64> {
        let mut n = 0;
        for record in records {
            self.insert(record)?;
            n += 1;
        }
        Ok(n)
    }

    /// Executes a value-level range query: reads the touched buckets,
    /// filters exactly, and accounts the I/O.
    ///
    /// # Errors
    /// Query-mapping errors (arity, types, inverted ranges).
    pub fn scan(&self, query: &ValueRangeQuery) -> Result<ScanResult> {
        let region = self.schema.region_of(query)?;
        Ok(self.scan_region(&region, |r| Self::matches(query, r)))
    }

    /// Executes a partial-match query at bucket granularity (partition
    /// indices, per the paper's query model).
    ///
    /// # Errors
    /// Query-mapping errors.
    pub fn scan_partial_match(&self, query: &PartialMatchQuery) -> Result<ScanResult> {
        let region = query.region(self.schema.space())?;
        Ok(self.scan_region(&region, |_| true))
    }

    /// Executes a point query at bucket granularity.
    ///
    /// # Errors
    /// Query-mapping errors.
    pub fn scan_point(&self, query: &PointQuery) -> Result<ScanResult> {
        let region = query.region(self.schema.space())?;
        Ok(self.scan_region(&region, |_| true))
    }

    /// Executes a value-level range query and also reports its wall-clock
    /// response time under a physical disk model: the directory is built
    /// from the current allocation (buckets laid out in row-major order
    /// per disk) and every disk reads its touched pages in one elevator
    /// pass — [`decluster_sim::IoSimulator::query_response_ms`] semantics.
    ///
    /// # Errors
    /// Query-mapping errors, as for [`DeclusteredFile::scan`].
    pub fn scan_timed(
        &self,
        query: &ValueRangeQuery,
        io: &decluster_sim::IoSimulator,
    ) -> Result<(ScanResult, f64)> {
        let region = self.schema.region_of(query)?;
        let result = self.scan_region(&region, |r| Self::matches(query, r));
        let dir = decluster_grid::GridDirectory::build(
            self.schema.space().clone(),
            self.allocation.num_disks(),
            |b| self.allocation.disk_of(b.as_slice()),
        );
        let ms = io.query_response_ms(&dir, &region);
        Ok((result, ms))
    }

    /// Executes a value-level range query with one worker thread per
    /// disk, mirroring the parallel I/O subsystem the paper assumes:
    /// every disk filters its own buckets concurrently, and the result is
    /// merged in disk order. Produces exactly the records and I/O report
    /// of [`DeclusteredFile::scan`].
    ///
    /// # Errors
    /// Query-mapping errors, as for `scan`.
    pub fn scan_parallel(&self, query: &ValueRangeQuery) -> Result<ScanResult> {
        let region = self.schema.region_of(query)?;
        let m = self.allocation.num_disks() as usize;
        let space = self.schema.space();
        // Partition the region's bucket ids by disk up front.
        let mut per_disk_ids: Vec<Vec<u64>> = vec![Vec::new(); m];
        for bucket in region.iter() {
            let id = space.linearize_unchecked(bucket.as_slice());
            per_disk_ids[self.allocation.disk_of(bucket.as_slice()).index()].push(id);
        }
        let per_disk_counts: Vec<u64> = per_disk_ids.iter().map(|v| v.len() as u64).collect();
        // One scoped worker per non-idle disk.
        let mut per_disk_records: Vec<Vec<Record>> = Vec::with_capacity(m);
        std::thread::scope(|scope| {
            let handles: Vec<_> = per_disk_ids
                .iter()
                .map(|ids| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for &id in ids {
                            for record in &self.buckets[id as usize] {
                                if Self::matches(query, record) {
                                    out.push(record.clone());
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            for handle in handles {
                per_disk_records.push(handle.join().expect("scan worker never panics"));
            }
        });
        Ok(ScanResult {
            records: per_disk_records.into_iter().flatten().collect(),
            io: IoReport::from_histogram(per_disk_counts),
        })
    }

    /// Reads all buckets of `region`, collecting records that pass
    /// `filter` and accounting per-disk bucket reads.
    fn scan_region(&self, region: &BucketRegion, filter: impl Fn(&Record) -> bool) -> ScanResult {
        let m = self.allocation.num_disks() as usize;
        let mut per_disk = vec![0u64; m];
        let mut records = Vec::new();
        let space = self.schema.space();
        for bucket in region.iter() {
            let id = space.linearize_unchecked(bucket.as_slice());
            per_disk[self.allocation.disk_of(bucket.as_slice()).index()] += 1;
            for record in &self.buckets[id as usize] {
                if filter(record) {
                    records.push(record.clone());
                }
            }
        }
        ScanResult {
            records,
            io: IoReport::from_histogram(per_disk),
        }
    }

    /// Exact record-level predicate for a value range query.
    fn matches(query: &ValueRangeQuery, record: &Record) -> bool {
        query
            .intervals()
            .iter()
            .zip(record.values())
            .all(|(interval, v)| match interval {
                None => true,
                Some((lo, hi)) => {
                    let ge = matches!(
                        lo.partial_cmp_same_type(v),
                        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                    );
                    let le = matches!(
                        v.partial_cmp_same_type(hi),
                        Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                    );
                    ge && le
                }
            })
    }

    /// Re-declusters the file in place with a different method (e.g.
    /// after the advisor saw the real workload), returning how many
    /// records would migrate between disks — the cost a DBA weighs
    /// against the response-time gain.
    ///
    /// Bucket contents never change (the grid is untouched); only the
    /// bucket→disk mapping does, so migration is counted per record whose
    /// bucket changes disks.
    ///
    /// # Errors
    /// Method construction/materialization errors; the file is left
    /// unchanged on error.
    pub fn rebalance(&mut self, method: &dyn DeclusteringMethod) -> Result<u64> {
        let new_allocation = AllocationMap::from_method(self.schema.space(), method)?;
        let mut migrated = 0u64;
        let space = self.schema.space();
        for bucket in space.iter() {
            let id = space.linearize_unchecked(bucket.as_slice());
            if self.allocation.disk_of(bucket.as_slice())
                != new_allocation.disk_of(bucket.as_slice())
            {
                migrated += self.buckets[id as usize].len() as u64;
            }
        }
        self.allocation = new_allocation;
        Ok(migrated)
    }

    /// Static statistics: occupancy and per-disk record counts.
    pub fn stats(&self) -> FileStats {
        let m = self.allocation.num_disks() as usize;
        let mut records_per_disk = vec![0u64; m];
        let mut occupied = 0u64;
        let space = self.schema.space();
        for bucket in space.iter() {
            let id = space.linearize_unchecked(bucket.as_slice());
            let n = self.buckets[id as usize].len() as u64;
            if n > 0 {
                occupied += 1;
                records_per_disk[self.allocation.disk_of(bucket.as_slice()).index()] += n;
            }
        }
        FileStats {
            records: self.records,
            occupied_buckets: occupied,
            total_buckets: space.num_buckets(),
            records_per_disk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decluster_grid::{AttributeDomain, Partitioning, Value};

    fn schema() -> GridSchema {
        GridSchema::uniform(
            vec![
                AttributeDomain::int("x", 0, 99),
                AttributeDomain::int("y", 0, 99),
            ],
            10,
        )
        .unwrap()
    }

    fn loaded_file(kind: MethodKind) -> DeclusteredFile {
        loaded_into(schema(), kind)
    }

    fn loaded_into(schema: GridSchema, kind: MethodKind) -> DeclusteredFile {
        let mut f = DeclusteredFile::create(schema, kind, 5).unwrap();
        // One record at every (x, y) multiple of 10 => one per bucket.
        for x in (0..100).step_by(10) {
            for y in (0..100).step_by(10) {
                f.insert(Record::new(vec![Value::Int(x), Value::Int(y)]))
                    .unwrap();
            }
        }
        f
    }

    #[test]
    fn create_insert_len() {
        let mut f = DeclusteredFile::create(schema(), MethodKind::Dm, 4).unwrap();
        assert!(f.is_empty());
        let disk = f
            .insert(Record::new(vec![Value::Int(15), Value::Int(25)]))
            .unwrap();
        // Bucket <1,2> under DM with M=4: disk (1+2)%4 = 3.
        assert_eq!(disk, DiskId(3));
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
    }

    #[test]
    fn insert_rejects_malformed_records() {
        let mut f = DeclusteredFile::create(schema(), MethodKind::Dm, 4).unwrap();
        assert!(f.insert(Record::new(vec![Value::Int(1)])).is_err());
        assert!(f
            .insert(Record::new(vec![Value::Int(1), Value::Int(200)]))
            .is_err());
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn scan_returns_exactly_the_matching_records() {
        // x in [0, 49], y in [20, 39]: x in {0,10,20,30,40}, y in {20,30}.
        let q = ValueRangeQuery::new(vec![
            Some((Value::Int(0), Value::Int(49))),
            Some((Value::Int(20), Value::Int(39))),
        ])
        .unwrap();
        let expected: Vec<(i64, i64)> = (0..50)
            .step_by(10)
            .flat_map(|x| [(x, 20), (x, 30)])
            .collect();
        // Besides the uniform grid, explicit uneven cuts: one-value
        // partitions, cuts on record values, and a touched bucket (y in
        // [39, 90)) holding records outside the query.
        let cuts = |c: &[i64]| {
            Partitioning::from_cuts(c.iter().map(|&v| Value::Int(v)).collect()).unwrap()
        };
        let uneven = GridSchema::new(
            schema().attributes().to_vec(),
            vec![cuts(&[3, 4, 17, 40, 50, 51]), cuts(&[20, 21, 39, 90])],
        )
        .unwrap();
        // Touched buckets: 5x2 partitions uniform, 5x3 uneven.
        for (f, buckets) in [
            (loaded_file(MethodKind::Hcam), 10),
            (loaded_into(uneven, MethodKind::Hcam), 15),
        ] {
            let scan = f.scan(&q).unwrap();
            let mut got: Vec<(i64, i64)> = scan
                .records
                .iter()
                .map(|r| match (r.value(0), r.value(1)) {
                    (Value::Int(x), Value::Int(y)) => (*x, *y),
                    _ => panic!("wrong types"),
                })
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected);
            assert_eq!(scan.io.buckets_touched, buckets);
            assert!(scan.io.response_time >= scan.io.optimal);
        }
    }

    #[test]
    fn scan_filters_at_record_granularity() {
        // Two records in the same bucket, only one matching.
        let mut f = DeclusteredFile::create(schema(), MethodKind::Dm, 4).unwrap();
        f.insert(Record::new(vec![Value::Int(11), Value::Int(11)]))
            .unwrap();
        f.insert(Record::new(vec![Value::Int(19), Value::Int(11)]))
            .unwrap();
        let q = ValueRangeQuery::new(vec![Some((Value::Int(10), Value::Int(15))), None]).unwrap();
        let scan = f.scan(&q).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].value(0), &Value::Int(11));
    }

    #[test]
    fn partial_match_and_point_scans() {
        let f = loaded_file(MethodKind::Dm);
        let pm = PartialMatchQuery::new(vec![Some(3), None]).unwrap();
        let scan = f.scan_partial_match(&pm).unwrap();
        assert_eq!(scan.records.len(), 10); // one row of buckets
        assert_eq!(scan.io.buckets_touched, 10);
        // DM is optimal for one-unspecified PM queries: 10 buckets over 5
        // disks, response 2.
        assert_eq!(scan.io.response_time, 2);
        assert_eq!(scan.io.deviation_factor(), 1.0);

        let pt = PointQuery::new([3, 4]);
        let scan = f.scan_point(&pt).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.io.response_time, 1);
    }

    #[test]
    fn bulk_load_counts() {
        let mut f = DeclusteredFile::create(schema(), MethodKind::Fx, 4).unwrap();
        let n = f
            .bulk_load((0..50).map(|i| Record::new(vec![Value::Int(i), Value::Int(i)])))
            .unwrap();
        assert_eq!(n, 50);
        assert_eq!(f.len(), 50);
    }

    #[test]
    fn stats_reflect_contents() {
        let f = loaded_file(MethodKind::Hcam);
        let stats = f.stats();
        assert_eq!(stats.records, 100);
        assert_eq!(stats.occupied_buckets, 100);
        assert_eq!(stats.total_buckets, 100);
        assert_eq!(stats.records_per_disk.iter().sum::<u64>(), 100);
        // HCAM balances buckets evenly: skew == 1.0 on this uniform load.
        assert_eq!(stats.disk_skew(), 1.0);
    }

    #[test]
    fn empty_file_scan() {
        let f = DeclusteredFile::create(schema(), MethodKind::Dm, 4).unwrap();
        let q = ValueRangeQuery::new(vec![None, None]).unwrap();
        let scan = f.scan(&q).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.io.buckets_touched, 100); // still reads the region
        assert_eq!(f.stats().disk_skew(), 1.0);
    }

    #[test]
    fn scan_query_errors_propagate() {
        let f = loaded_file(MethodKind::Dm);
        let bad_arity = ValueRangeQuery::new(vec![None]).unwrap();
        assert!(f.scan(&bad_arity).is_err());
        let inverted =
            ValueRangeQuery::new(vec![Some((Value::Int(50), Value::Int(10))), None]).unwrap();
        assert!(f.scan(&inverted).is_err());
    }

    #[test]
    fn timed_scan_agrees_with_plain_scan_and_times_positively() {
        let f = loaded_file(MethodKind::Fx);
        let io = decluster_sim::IoSimulator::default();
        let q = ValueRangeQuery::new(vec![Some((Value::Int(0), Value::Int(49))), None]).unwrap();
        let (scan, ms) = f.scan_timed(&q, &io).unwrap();
        let plain = f.scan(&q).unwrap();
        assert_eq!(scan.io, plain.io);
        assert_eq!(scan.records.len(), plain.records.len());
        assert!(ms > 0.0);
        // A bigger query costs at least as much wall-clock.
        let big = ValueRangeQuery::new(vec![None, None]).unwrap();
        let (_, big_ms) = f.scan_timed(&big, &io).unwrap();
        assert!(big_ms >= ms);
    }

    #[test]
    fn parallel_scan_matches_sequential_scan() {
        let f = loaded_file(MethodKind::Hcam);
        let q = ValueRangeQuery::new(vec![
            Some((Value::Int(0), Value::Int(69))),
            Some((Value::Int(20), Value::Int(99))),
        ])
        .unwrap();
        let seq = f.scan(&q).unwrap();
        let par = f.scan_parallel(&q).unwrap();
        assert_eq!(seq.io, par.io);
        let key = |r: &Record| {
            let (Value::Int(x), Value::Int(y)) = (r.value(0).clone(), r.value(1).clone()) else {
                panic!("typed")
            };
            (x, y)
        };
        let mut a = seq.records;
        let mut b = par.records;
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_scan_on_empty_file_and_errors() {
        let f = DeclusteredFile::create(schema(), MethodKind::Dm, 4).unwrap();
        let q = ValueRangeQuery::new(vec![None, None]).unwrap();
        let scan = f.scan_parallel(&q).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.io.buckets_touched, 100);
        assert!(f
            .scan_parallel(&ValueRangeQuery::new(vec![None]).unwrap())
            .is_err());
    }

    #[test]
    fn rebalance_counts_migrations_and_switches_allocation() {
        use decluster_methods::{DiskModulo, Hcam};
        let mut f = loaded_file(MethodKind::Dm);
        let space = f.schema().space().clone();
        // Rebalancing to the same method moves nothing.
        let dm = DiskModulo::new(&space, 5).unwrap();
        assert_eq!(f.rebalance(&dm).unwrap(), 0);
        // Switching to HCAM moves some (but not all) records.
        let hcam = Hcam::new(&space, 5).unwrap();
        let moved = f.rebalance(&hcam).unwrap();
        assert!(moved > 0 && moved < f.len());
        // Scans now follow the new allocation: a one-unspecified PM query
        // under HCAM is typically not optimal.
        let pm = PartialMatchQuery::new(vec![Some(3), None]).unwrap();
        let scan = f.scan_partial_match(&pm).unwrap();
        assert_eq!(scan.records.len(), 10);
        // And the allocation's name reflects the switch.
        assert_eq!(f.allocation().name(), "HCAM");
    }

    #[test]
    fn rebalance_respects_record_weights() {
        // Put many records in one bucket; migration count is per record.
        let mut f = DeclusteredFile::create(schema(), MethodKind::Dm, 5).unwrap();
        for _ in 0..7 {
            f.insert(Record::new(vec![Value::Int(15), Value::Int(25)]))
                .unwrap();
        }
        let space = f.schema().space().clone();
        // An allocation differing only on that bucket's disk.
        let before = f.allocation().disk_of(&[1, 2]);
        let flipped = decluster_methods::RandomAlloc::new(&space, 5, 99).unwrap();
        let moved = f.rebalance(&flipped).unwrap();
        let after = f.allocation().disk_of(&[1, 2]);
        if before == after {
            assert_eq!(moved, 0);
        } else {
            assert_eq!(moved, 7);
        }
    }

    #[test]
    fn every_method_kind_backs_a_file() {
        for kind in [
            MethodKind::Dm,
            MethodKind::Bdm,
            MethodKind::Fx,
            MethodKind::Hcam,
            MethodKind::Zcam,
            MethodKind::GrayCam,
            MethodKind::RoundRobin,
            MethodKind::Random,
        ] {
            let f = DeclusteredFile::create(schema(), kind, 5).unwrap();
            assert_eq!(f.allocation().num_disks(), 5);
        }
        // ECC needs power-of-two partitions: 10 is not.
        assert!(DeclusteredFile::create(schema(), MethodKind::Ecc, 4).is_err());
    }
}
