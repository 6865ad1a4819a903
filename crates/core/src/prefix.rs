use crate::{AllocationMap, DeclusteringMethod, MethodError, Result};
use decluster_grid::{BucketCoord, BucketRegion, GridSpace, COORD_INLINE_DIMS};
use smallvec::SmallVec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of kernel table builds (every [`DiskCounts`]
/// construction that walks the grid, including a cache miss recompiling
/// a stale image). See [`kernel_build_count`].
static KERNEL_BUILDS: AtomicU64 = AtomicU64::new(0);

/// The number of kernel table builds this process has performed.
///
/// The warm-start contract is pinned against this counter: a process
/// that loads every kernel from a persisted [`crate::KernelCache`] must
/// reach its first scored query with a delta of zero. The counter is a
/// relaxed atomic — it orders nothing, it only counts.
pub fn kernel_build_count() -> u64 {
    KERNEL_BUILDS.load(Ordering::Relaxed)
}

/// Batched response-time kernel: one k-D inclusive prefix-sum table per
/// disk over a materialized allocation.
///
/// The table holds, for each cell and disk `d`, the number of buckets
/// with coordinates `≤` the cell's coordinates (component-wise) that
/// live on disk `d` — a per-disk summed-area table. Any rectangular
/// query's per-disk bucket counts then follow from `2^k`
/// inclusion–exclusion corner lookups, so [`DiskCounts::response_time`]
/// costs `O(M · 2^k)` regardless of the query's area, where the naive
/// walk in [`AllocationMap::response_time`] costs `O(|Q|)`. For the
/// paper's sweeps — thousands of placements of large rectangles over a
/// fixed allocation — this turns the dominant cost from the query area
/// into the (tiny) corner count.
///
/// Construction walks the grid once per dimension (`O(k · N · M)` time,
/// `O(N · M)` space for `N` buckets), so the kernel pays off when an
/// allocation is queried more than a handful of times.
///
/// # Kernel v2: count lanes, query plans, scratch buffers
///
/// Three refinements of the plain corner walk, all bit-identical to the
/// naive walk (property-tested):
///
/// * **Adaptive count width.** Every count on disk `d` is capped by the
///   number of buckets `d` holds, so a table whose heaviest disk holds at
///   most `u16::MAX` buckets (every paper grid, and the 16^4 grid at
///   `M = 64`) stores `u16` lanes — half the bytes, half the memory
///   traffic of the `u32` layout, which remains the fallback when one
///   disk holds more.
/// * **Shape-compiled plans** ([`CornerPlan`]). The paper's sweeps score
///   thousands of *placements of the same query shape*. The `2^k` signed
///   corner row-offsets depend only on the shape (its per-dimension
///   extents), not the placement, so they are compiled once per shape;
///   each placement then costs one base-row computation plus an offset
///   add per corner, instead of re-deriving every corner from scratch.
/// * **Scratch buffers** ([`Scratch`]). The `*_with` entry points thread
///   the plan cache (and the naive walk's accumulator) through the
///   scoring loop, so repeated-query scoring allocates nothing per query.
///
/// Every entry point — plain, histogram, single-disk and
/// the batch walk of [`ScoreBatch`] — sums corner rows through a plan:
/// the `*_with` forms cache it, the plain forms compile one per call.
/// All but the single-disk count run 16-lane chunks plus one remainder
/// chunk. The batch walk resolves each shape run's corner rows once, so
/// a placement off the `lo = 0` faces sums them with no per-corner test;
/// the other entry points test each corner against the placement's edge.
#[derive(Clone, Debug)]
pub struct DiskCounts {
    /// Disks (`M`).
    m: u32,
    /// Partitions per dimension, cached from the grid.
    dims: Vec<u32>,
    /// Cell strides in *rows* (a row is `m` lanes wide).
    strides: Vec<usize>,
    /// Inclusive prefix sums, lane `table[cell * m + disk]`.
    table: CountLane,
}

/// The prefix-sum table at its adaptive lane width: `u16` when every
/// count fits (the heaviest disk holds ≤ `u16::MAX` buckets), `u32`
/// otherwise. Both paths run the same monomorphized build and scoring
/// code and produce identical counts; only the bytes moved differ.
///
/// The table is immutable once built and shared: cloning a kernel (a
/// [`crate::KernelCache`] insert or lookup, an engine or context clone)
/// bumps a reference count instead of copying the table.
///
/// Crate-visible so `persist` can serialize the table at its native
/// width (the v3 kernel image is lane-width-aware) and decode an image
/// straight into it.
#[derive(Clone, Debug)]
pub(crate) enum CountLane {
    U16(Arc<[u16]>),
    U32(Arc<[u32]>),
}

impl CountLane {
    fn bytes(&self) -> usize {
        match self {
            CountLane::U16(t) => t.len() * std::mem::size_of::<u16>(),
            CountLane::U32(t) => t.len() * std::mem::size_of::<u32>(),
        }
    }
}

/// A count-lane integer: the private trait behind [`CountLane`]'s two
/// monomorphizations.
trait Lane: Copy + Default + Ord + std::ops::AddAssign<Self> {
    const ONE: Self;
    fn widen(self) -> i64;
    fn wrapping_add_lane(self, rhs: Self) -> Self;
    fn wrapping_sub_lane(self, rhs: Self) -> Self;
}

impl Lane for u16 {
    const ONE: Self = 1;
    #[inline(always)]
    fn widen(self) -> i64 {
        i64::from(self)
    }
    #[inline(always)]
    fn wrapping_add_lane(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }
    #[inline(always)]
    fn wrapping_sub_lane(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }
}

impl Lane for u32 {
    const ONE: Self = 1;
    #[inline(always)]
    fn widen(self) -> i64 {
        i64::from(self)
    }
    #[inline(always)]
    fn wrapping_add_lane(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }
    #[inline(always)]
    fn wrapping_sub_lane(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }
}

/// Indicator table + one blocked, division-free running-sum pass per
/// axis: turns per-cell disk indicators into inclusive prefix sums over
/// the box `[0, coord]`.
///
/// For axis `a`, cells sharing every coordinate before `a` form
/// contiguous blocks of `dims[a]` slices of `strides[a]` rows each; the
/// first slice carries the axis's zero coordinate (nothing to add), and
/// every later slice adds the slice before it. The two slices come from
/// one `split_at_mut`, so each add runs over contiguous lanes with no
/// runtime-stride indexing, and vectorizes.
///
/// The table is allocated once, as the shared slice the kernel keeps,
/// and filled in place: no second allocation and no copy into the `Arc`.
fn build_table<T: Lane>(
    map: &AllocationMap,
    lanes: usize,
    dims: &[u32],
    strides: &[usize],
) -> Arc<[T]> {
    let total = map.table().len();
    let mut shared: Arc<[T]> = std::iter::repeat_n(T::default(), total * lanes).collect();
    let table = Arc::get_mut(&mut shared).expect("a fresh table has one owner");
    for (row, &disk) in table.chunks_exact_mut(lanes).zip(map.table()) {
        row[disk as usize] = T::ONE;
    }
    for (axis, &d) in dims.iter().enumerate() {
        let stride = strides[axis] * lanes;
        for block in table.chunks_exact_mut(stride * d as usize) {
            for r in 1..d as usize {
                let (before, from_r) = block.split_at_mut(r * stride);
                let prev = &before[(r - 1) * stride..];
                for (v, &p) in from_r[..stride].iter_mut().zip(prev) {
                    *v += p;
                }
            }
        }
    }
    shared
}

/// Disk lanes the planned kernel sums per step: a paper-sized `M = 16`
/// is exactly one chunk, 32 bytes of `u16` counts.
const LANE_CHUNK: usize = 16;

/// One placement of a query shape on a kernel's grid: the row of its
/// `lo` corner and the bit-mask of dimensions sitting on the grid edge
/// (`lo == 0`), whose low-face corners vanish. With the shape's
/// [`CornerPlan`] it is all the planned kernel reads of a region.
#[derive(Clone, Copy, Debug, Default)]
struct PlacementKey {
    base: usize,
    edge: u32,
}

/// The per-disk counts of placement `key` on lanes `start..start +
/// width` (`width ≤ LANE_CHUNK`), summed over the plan's corner rows;
/// lanes past `width` stay zero. Corners whose low face falls off the
/// grid edge contribute zero and are skipped.
///
/// Accumulation runs in *native lane width* with wrapping arithmetic:
/// every final per-disk count is a bucket count `≤` the grid total,
/// which fits the lane type by construction, and modular add/sub is
/// exact whenever the true result fits — intermediate partial sums may
/// "wrap negative" freely. That leaves plain `u16`/`u32` adds on a
/// fixed-size array, which the compiler vectorizes.
#[inline(always)]
fn chunk_counts<T: Lane>(
    table: &[T],
    lanes: usize,
    plan: &CornerPlan,
    key: PlacementKey,
    start: usize,
    width: usize,
) -> [T; LANE_CHUNK] {
    let mut acc = [T::default(); LANE_CHUNK];
    for c in &plan.corners {
        if c.lo_mask & key.edge != 0 {
            continue;
        }
        let row = (key.base as i64 + c.offset) as usize * lanes + start;
        let src = &table[row..row + width];
        if c.sign > 0 {
            for (a, &v) in acc.iter_mut().zip(src) {
                *a = a.wrapping_add_lane(v);
            }
        } else {
            for (a, &v) in acc.iter_mut().zip(src) {
                *a = a.wrapping_sub_lane(v);
            }
        }
    }
    acc
}

/// The one planned lane routine behind plain, histogram and batch
/// scoring: hands `emit(start, width, counts)` the per-disk counts
/// of placement `key` in full 16-lane chunks, then one zero-padded
/// remainder chunk. A full chunk's width is a constant after inlining,
/// so each corner row costs one or two SIMD adds with no call and no
/// lane loop left.
#[inline(always)]
fn planned_chunks<T: Lane>(
    table: &[T],
    lanes: usize,
    plan: &CornerPlan,
    key: PlacementKey,
    mut emit: impl FnMut(usize, usize, &[T; LANE_CHUNK]),
) {
    let full = lanes - lanes % LANE_CHUNK;
    let mut start = 0;
    while start < full {
        let counts = chunk_counts(table, lanes, plan, key, start, LANE_CHUNK);
        emit(start, LANE_CHUNK, &counts);
        start += LANE_CHUNK;
    }
    if full < lanes {
        let counts = chunk_counts(table, lanes, plan, key, full, lanes - full);
        emit(full, lanes - full, &counts);
    }
}

/// The RT reduction over [`planned_chunks`]: the max count over lanes.
/// Counts are never negative, so padding lanes cannot raise the max.
#[inline(always)]
fn lane_max<T: Lane>(table: &[T], lanes: usize, plan: &CornerPlan, key: PlacementKey) -> u64 {
    let mut max = T::default();
    planned_chunks(table, lanes, plan, key, |_, _, counts| {
        max = max.max(counts.iter().copied().fold(T::default(), Ord::max));
    });
    max.widen() as u64
}

/// The histogram over [`planned_chunks`]: every lane's count, widened,
/// into `out` (cleared first).
#[inline(always)]
fn lane_histogram<T: Lane>(
    table: &[T],
    lanes: usize,
    plan: &CornerPlan,
    key: PlacementKey,
    out: &mut Vec<u64>,
) {
    out.clear();
    planned_chunks(table, lanes, plan, key, |_, width, counts| {
        out.extend(counts[..width].iter().map(|v| v.widen() as u64));
    });
}

/// The sparse histogram over [`planned_chunks`]: `(disk, count)` for
/// every lane with a nonzero count, in lane order, appended to `row`.
#[inline(always)]
fn lane_sparse<T: Lane>(
    table: &[T],
    lanes: usize,
    plan: &CornerPlan,
    key: PlacementKey,
    row: &mut Vec<(u32, u64)>,
) {
    planned_chunks(table, lanes, plan, key, |start, width, counts| {
        for (lane, &c) in counts[..width].iter().enumerate() {
            if c != T::default() {
                row.push(((start + lane) as u32, c.widen() as u64));
            }
        }
    });
}

/// A run's corner rows resolved for one grid: each corner's lane offset
/// from the run's lowest corner row (`lo - 1` on every dimension),
/// multiplied by the lane count in advance and paired by sign. An
/// interior placement, one with no dimension on the `lo = 0` face,
/// reads every corner at these offsets from its anchor lane, so it needs
/// no sign or edge test per corner.
#[derive(Clone, Debug, Default)]
struct RunRows {
    /// Rows from the lowest corner row up to the `lo` row: the sum of
    /// the strides.
    below: usize,
    /// Lane offsets of one `+` and one `-` corner each: a box has as
    /// many corners of each sign (`2^(k-1)`, as `k ≥ 1`).
    pairs: Vec<[usize; 2]>,
}

impl RunRows {
    /// Makes these the rows of `plan` on a table `lanes` wide.
    fn resolve(&mut self, plan: &CornerPlan, lanes: usize) {
        self.below = plan.strides.iter().sum();
        // The lowest corner's offset is `-below`, so none is negative.
        let lane = |c: &PlanCorner| (c.offset + self.below as i64) as usize * lanes;
        let plus = plan.corners.iter().filter(|c| c.sign > 0);
        let minus = plan.corners.iter().filter(|c| c.sign < 0);
        self.pairs.clear();
        self.pairs
            .extend(plus.zip(minus).map(|(p, m)| [lane(p), lane(m)]));
    }
}

/// Every `+` row minus every `-` row of `rows`, `width ≤ LANE_CHUNK`
/// lanes each from lane `at` on, in a zero-padded chunk: the wrapping
/// sum of [`chunk_counts`] with no corner skipped. A full chunk's width
/// is a constant after inlining, so each row is read as one fixed array.
#[inline(always)]
fn signed_rows<T: Lane>(table: &[T], rows: &RunRows, at: usize, width: usize) -> [T; LANE_CHUNK] {
    let mut acc = [T::default(); LANE_CHUNK];
    for &[plus, minus] in &rows.pairs {
        let plus = &table[at + plus..at + plus + width];
        let minus = &table[at + minus..at + minus + width];
        for ((a, &p), &m) in acc.iter_mut().zip(plus).zip(minus) {
            *a = a.wrapping_add_lane(p).wrapping_sub_lane(m);
        }
    }
    acc
}

/// The RT of an interior placement whose lowest corner row starts at
/// lane `anchor`: full 16-lane chunks, then one remainder chunk, folded
/// lane by lane into one chunk that takes a single lane max.
#[inline(always)]
fn interior_max<T: Lane>(table: &[T], lanes: usize, rows: &RunRows, anchor: usize) -> u64 {
    let full = lanes - lanes % LANE_CHUNK;
    let mut best = [T::default(); LANE_CHUNK];
    let mut fold = |counts: [T; LANE_CHUNK]| {
        for (b, c) in best.iter_mut().zip(counts) {
            *b = (*b).max(c);
        }
    };
    let mut start = 0;
    while start < full {
        fold(signed_rows(table, rows, anchor + start, LANE_CHUNK));
        start += LANE_CHUNK;
    }
    if full < lanes {
        fold(signed_rows(table, rows, anchor + full, lanes - full));
    }
    best.into_iter().fold(T::default(), Ord::max).widen() as u64
}

/// Walks one run of equal-shape placements, handing each RT to `sink`
/// in order: interior placements through the run's resolved `rows`,
/// placements on a `lo = 0` face through [`lane_max`], which skips the
/// corners that fall off the grid.
fn walk_run<T: Lane>(
    table: &[T],
    lanes: usize,
    plan: &CornerPlan,
    rows: &RunRows,
    keys: &[PlacementKey],
    sink: &mut impl FnMut(u64),
) {
    for &key in keys {
        sink(if key.edge == 0 {
            // Every `lo` coordinate is at least 1, so the lowest corner
            // row sits at or after row 0.
            interior_max(table, lanes, rows, (key.base - rows.below) * lanes)
        } else {
            lane_max(table, lanes, plan, key)
        });
    }
}

/// Counts the response time `rt` into `hist`, growing it to `rt + 1`
/// bins when `rt` is the largest yet.
#[inline]
fn count_rt(hist: &mut Vec<u64>, rt: u64) {
    let bin = usize::try_from(rt).expect("a response time counts buckets held in memory");
    if bin >= hist.len() {
        hist.resize(bin + 1, 0);
    }
    hist[bin] += 1;
}

/// One inclusion–exclusion corner of a compiled plan.
#[derive(Clone, Copy, Debug, Default)]
struct PlanCorner {
    /// Dimensions on which this corner takes the excluded low face
    /// (`lo - 1`); the corner is skipped when any of them sits on the
    /// grid edge (`lo == 0`), where the prefix sum below is zero.
    lo_mask: u32,
    /// Signed row offset from the region's `lo` row.
    offset: i64,
    /// Inclusion–exclusion sign (`+1` / `-1`).
    sign: i64,
}

/// A query *shape* compiled against a kernel's grid layout: the `2^k`
/// signed corner row-offsets of a rectangle with fixed per-dimension
/// extents, precomputed once so every *placement* of that shape costs
/// only a base-row add per corner.
///
/// A plan is tied to a grid layout (the strides), not to a method: every
/// kernel of an [`sim-level context`](DiskCounts) over the same grid
/// accepts the same plan, so one compilation serves all methods of a
/// sweep point. Compile with [`DiskCounts::compile_plan`]; the `*_with`
/// scoring entry points keep one cached in their [`Scratch`] and re-use
/// it while consecutive queries share a shape.
#[derive(Clone, Debug)]
pub struct CornerPlan {
    /// Per-dimension extents of the compiled shape.
    extents: SmallVec<[u32; 8]>,
    /// Row strides of the grid the plan was compiled against.
    strides: SmallVec<[usize; 8]>,
    /// All `2^k` corners.
    corners: SmallVec<[PlanCorner; 16]>,
}

/// A query shape's per-dimension extents as a plan reads them: a
/// region's, or the one shape of a corner batch
/// ([`Scratch::shape_batch`]).
trait Shape {
    fn arity(&self) -> usize;
    fn side(&self, dim: usize) -> u64;
}

impl Shape for BucketRegion {
    #[inline]
    fn arity(&self) -> usize {
        self.dims()
    }
    #[inline]
    fn side(&self, dim: usize) -> u64 {
        self.extent(dim)
    }
}

impl Shape for [u32] {
    #[inline]
    fn arity(&self) -> usize {
        self.len()
    }
    #[inline]
    fn side(&self, dim: usize) -> u64 {
        u64::from(self[dim])
    }
}

impl CornerPlan {
    /// Whether this plan answers `region` on `kernel`: same grid layout
    /// and same per-dimension extents. Placement (the `lo` corner) is
    /// free — that is the point of the plan.
    pub fn matches(&self, kernel: &DiskCounts, region: &BucketRegion) -> bool {
        self.fits(kernel, region)
    }

    /// [`CornerPlan::matches`] for any [`Shape`].
    fn fits<S: Shape + ?Sized>(&self, kernel: &DiskCounts, shape: &S) -> bool {
        let k = self.extents.len();
        shape.arity() == k
            && kernel.strides.as_slice() == self.strides.as_slice()
            && (0..k).all(|d| shape.side(d) == u64::from(self.extents[d]))
    }

    /// Corners the plan holds (`2^k`).
    pub fn num_corners(&self) -> usize {
        self.corners.len()
    }
}

/// Reusable scoring state for the `*_with` kernel entry points: a cached
/// [`CornerPlan`] with hit/compile counts, the naive walk's per-disk
/// accumulator, the `lo` corners of a one-shape batch, and the placement
/// keys and resolved corner rows of the current [`ScoreBatch`].
///
/// Keep one per worker thread and thread it through the scoring loop;
/// a `Scratch` may be re-used freely across queries, methods, and even
/// grids — every entry point revalidates the cached plan (and batch
/// keys) against the kernel it is called on and recomputes on mismatch.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// Wide accumulator for the naive per-bucket walk
    /// ([`AllocationMap::response_time_with`]).
    acc: Vec<i64>,
    /// The most recently compiled plan, reused while shapes repeat.
    plan: Option<CornerPlan>,
    plan_hits: u64,
    plan_compiles: u64,
    /// `lo` corners of a one-shape batch, `k` coordinates per placement
    /// ([`Scratch::corners_mut`]).
    corners: Vec<u32>,
    /// Placement keys of the batch being scored.
    keys: BatchKeys,
    /// Corner rows of the shape run being scored.
    rows: RunRows,
}

/// Where a [`ScoreBatch`] reads its placements.
#[derive(Clone, Copy, Debug)]
enum Placements<'a> {
    /// One region per placement; shapes may vary.
    Regions(&'a [BucketRegion]),
    /// Placements of one shape with these per-dimension extents, whose
    /// `lo` corners sit in the scratch's corner buffer.
    Corners(&'a [u32]),
}

/// A maximal run of consecutive equal-shape placements of a
/// [`ScoreBatch`]: every placement of it covers the same buckets and
/// reads the same corner plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeRun {
    /// Dimensions of the shape.
    pub arity: usize,
    /// Buckets one placement covers (the product of its extents).
    pub buckets: u64,
    /// Placements in the run.
    pub len: usize,
}

/// The placement keys of one [`ScoreBatch`], computed by the first
/// kernel that scores it and read by every later kernel over the same
/// grid layout.
#[derive(Clone, Debug, Default)]
struct BatchKeys {
    /// Row strides the keys were computed against; `None` until a
    /// kernel of the current batch computes them.
    strides: Option<SmallVec<[usize; 8]>>,
    /// One key per placement of the batch, in order.
    placements: Vec<PlacementKey>,
    /// Exclusive end of each maximal run of consecutive equal-shape
    /// placements: each run resolves its corner plan once.
    run_ends: Vec<usize>,
}

impl BatchKeys {
    /// Makes the keys those of `placements` on `kernel`'s grid
    /// (`corners` is the scratch's corner buffer), recomputing unless
    /// they already are.
    fn ensure(&mut self, kernel: &DiskCounts, placements: Placements<'_>, corners: &[u32]) {
        if self.strides.as_deref() == Some(kernel.strides.as_slice()) {
            return;
        }
        self.placements.clear();
        self.run_ends.clear();
        match placements {
            Placements::Regions(regions) => {
                self.placements
                    .extend(regions.iter().map(|r| kernel.placement_key(r)));
                let mut end = 0;
                for run in regions.chunk_by(BucketRegion::same_shape) {
                    end += run.len();
                    self.run_ends.push(end);
                }
            }
            Placements::Corners(extents) => {
                let room = kernel.room_for(extents);
                for lo in corners.chunks_exact(extents.len()) {
                    assert!(
                        lo.iter().zip(&room).all(|(&l, &r)| l <= r),
                        "corner {lo:?} places a {extents:?} box off the grid"
                    );
                    self.placements.push(kernel.corner_key(lo));
                }
                if !self.placements.is_empty() {
                    self.run_ends.push(self.placements.len());
                }
            }
        }
        self.strides = Some(SmallVec::from_slice(&kernel.strides));
    }
}

/// One batch of placements scored through a [`Scratch`] on any number
/// of kernels over one grid: the sweep engine's hot path.
///
/// A batch has one of two sources. [`Scratch::batch`] scores a slice of
/// regions, whose shapes may vary; [`Scratch::shape_batch`] scores the
/// placements of one shape from the flat `lo` corners in the scratch's
/// corner buffer, with no region built. The first kernel computes each
/// placement's key (its base row and edge mask) into the scratch; every
/// later kernel of the batch reads the same keys, revalidated against
/// its strides the way plans are. The plan is resolved once per run of
/// equal shapes (a corner batch is one run), and the plan counters move
/// exactly as a per-query [`DiskCounts::response_time_with`] loop over
/// the same kernels and regions would move them. Borrowing the scratch
/// (and the regions) for the batch's lifetime is what ties the cached
/// keys to these placements.
#[derive(Debug)]
pub struct ScoreBatch<'a> {
    scratch: &'a mut Scratch,
    placements: Placements<'a>,
}

impl ScoreBatch<'_> {
    /// Placements in the batch.
    pub fn len(&self) -> usize {
        match self.placements {
            Placements::Regions(regions) => regions.len(),
            Placements::Corners(extents) => self.scratch.corners.len() / extents.len(),
        }
    }

    /// Whether the batch holds no placement.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The batch's maximal runs of consecutive equal-shape placements, in
    /// batch order: one run for a corner batch (none when it is empty).
    pub fn shape_runs(&self) -> impl Iterator<Item = ShapeRun> + '_ {
        let (regions, corner_run) = match self.placements {
            Placements::Regions(regions) => (regions, None),
            Placements::Corners(extents) => {
                let run = ShapeRun {
                    arity: extents.len(),
                    buckets: extents.iter().map(|&e| u64::from(e)).product(),
                    len: self.len(),
                };
                (&[][..], (run.len > 0).then_some(run))
            }
        };
        regions
            .chunk_by(BucketRegion::same_shape)
            .map(|run| ShapeRun {
                arity: run[0].dims(),
                buckets: run[0].num_buckets(),
                len: run.len(),
            })
            .chain(corner_run)
    }

    /// Writes the response time of every placement of the batch on
    /// `kernel` into `out`, in batch order. Each equals
    /// [`DiskCounts::response_time_with`] on the placement's region
    /// (property-tested).
    ///
    /// # Panics
    /// Panics if `out` and the batch differ in length, if the shape's
    /// arity does not match the grid, or if a corner places the shape
    /// off the grid.
    pub fn response_times(&mut self, kernel: &DiskCounts, out: &mut [u64]) {
        assert_eq!(out.len(), self.len(), "one response time per placement");
        let mut slots = out.iter_mut();
        kernel.batch_walk(self.placements, self.scratch, |rt| {
            *slots.next().expect("one slot per placement") = rt;
        });
    }

    /// Counts the response time of every placement of the batch on
    /// `kernel` into `hist`, cleared first: `hist[rt]` placements take
    /// `rt` bucket reads on their busiest disk, and `hist.len()` is the
    /// largest RT plus one (zero for an empty batch). The same walk as
    /// [`ScoreBatch::response_times`], with the same plan counters.
    ///
    /// # Panics
    /// As [`ScoreBatch::response_times`], bar the length check.
    pub fn rt_histogram(&mut self, kernel: &DiskCounts, hist: &mut Vec<u64>) {
        hist.clear();
        kernel.batch_walk(self.placements, self.scratch, |rt| count_rt(hist, rt));
    }

    /// [`ScoreBatch::rt_histogram`] under `map`, by the naive per-bucket
    /// walk ([`AllocationMap::response_time_with`]): the fallback for an
    /// allocation whose kernel could not be built. Plan slot and keys
    /// are left alone.
    ///
    /// # Panics
    /// Panics if a corner places the shape off the grid.
    pub fn naive_rt_histogram(&mut self, map: &AllocationMap, hist: &mut Vec<u64>) {
        hist.clear();
        match self.placements {
            Placements::Regions(regions) => {
                for region in regions {
                    count_rt(hist, map.response_time_with(region, self.scratch));
                }
            }
            Placements::Corners(extents) => {
                // The walk borrows the scratch's accumulator, so the
                // corners step out of the scratch for the loop.
                let corners = std::mem::take(&mut self.scratch.corners);
                for lo in corners.chunks_exact(extents.len()) {
                    let region = corner_region(map.space(), lo, extents);
                    count_rt(hist, map.response_time_with(&region, self.scratch));
                }
                self.scratch.corners = corners;
            }
        }
    }
}

/// The region of the `extents` box whose `lo` corner is `lo`.
///
/// # Panics
/// Panics if the box does not fit `space`.
fn corner_region(space: &GridSpace, lo: &[u32], extents: &[u32]) -> BucketRegion {
    let mut hi = SmallVec::<[u32; COORD_INLINE_DIMS]>::new();
    for (&l, &e) in lo.iter().zip(extents) {
        hi.push(l.saturating_add(e.saturating_sub(1)));
    }
    BucketRegion::new(
        space,
        BucketCoord::new(SmallVec::from_slice(lo)),
        BucketCoord::new(hi),
    )
    .unwrap_or_else(|e| panic!("corner {lo:?} places a {extents:?} box off the grid: {e}"))
}

impl Scratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts scoring `regions` as one [`ScoreBatch`]. Keys cached by an
    /// earlier batch are dropped; the plan slot and its counters carry
    /// over, as they do between per-query calls.
    pub fn batch<'a>(&'a mut self, regions: &'a [BucketRegion]) -> ScoreBatch<'a> {
        self.keys.strides = None;
        ScoreBatch {
            scratch: self,
            placements: Placements::Regions(regions),
        }
    }

    /// The corner buffer of the next [`Scratch::shape_batch`], emptied:
    /// push each placement's `lo` corner, one coordinate per dimension,
    /// placement after placement.
    pub fn corners_mut(&mut self) -> &mut Vec<u32> {
        self.corners.clear();
        &mut self.corners
    }

    /// Starts scoring, as one [`ScoreBatch`], the placements of the box
    /// with per-dimension `extents` whose `lo` corners the corner buffer
    /// holds ([`Scratch::corners_mut`]). The batch is one shape run with
    /// one corner plan, and its keys come straight from the corners; it
    /// scores exactly as [`Scratch::batch`] over the same placements'
    /// regions would (property-tested). Keys cached by an earlier batch
    /// are dropped; the plan slot and its counters carry over.
    ///
    /// # Panics
    /// Panics if `extents` is empty or holds a zero, or if the buffer
    /// does not hold a whole number of corners.
    pub fn shape_batch<'a>(&'a mut self, extents: &'a [u32]) -> ScoreBatch<'a> {
        assert!(
            !extents.is_empty() && !extents.contains(&0),
            "a corner batch needs a box shape, not {extents:?}"
        );
        assert_eq!(
            self.corners.len() % extents.len(),
            0,
            "the corner buffer holds whole {}-D corners",
            extents.len()
        );
        self.keys.strides = None;
        ScoreBatch {
            scratch: self,
            placements: Placements::Corners(extents),
        }
    }

    /// Drops the cached plan (the next planned call recompiles).
    ///
    /// Callers that report plan statistics per batch (the sweep engine)
    /// reset at batch start so hit/compile counts depend only on the
    /// batch's query sequence, never on which worker ran the previous
    /// batch — that keeps the observability counters thread-count
    /// deterministic.
    pub fn reset_plan(&mut self) {
        self.plan = None;
    }

    /// Returns `(plan_hits, plan_compiles)` accumulated since the last
    /// drain and resets both to zero.
    pub fn drain_plan_stats(&mut self) -> (u64, u64) {
        let stats = (self.plan_hits, self.plan_compiles);
        self.plan_hits = 0;
        self.plan_compiles = 0;
        stats
    }

    /// The accumulator, cleared and sized to `lanes` (shared with the
    /// naive walk in [`AllocationMap::response_time_with`]).
    pub(crate) fn lanes_mut(&mut self, lanes: usize) -> &mut [i64] {
        self.acc.clear();
        self.acc.resize(lanes, 0);
        &mut self.acc
    }
}

/// One slot of a [`PlanCache`]: a compiled plan plus its last-touched
/// tick for LRU eviction.
#[derive(Clone, Debug)]
struct PlanSlot {
    plan: CornerPlan,
    last_used: u64,
}

/// A bounded, deterministic cross-query cache of [`CornerPlan`]s, keyed
/// by query shape (per-dimension extents) + grid strides.
///
/// [`Scratch`] caches exactly one plan — enough for sweeps that score
/// placements of one shape back to back, but a serving loop interleaves
/// arrivals of *different* shapes, recompiling on every alternation.
/// The serving loops hold one `PlanCache` per loop-scratch instead, so
/// a working set of up to `capacity` live shapes compiles each shape
/// once per run.
///
/// Determinism: lookups scan slots in insertion order, eviction removes
/// the least-recently-used slot (ticks are unique, so there are no
/// ties), and the loops [`clear`](PlanCache::clear) the cache at run
/// start — hit/miss counts are a pure function of the run's query
/// sequence, never of which worker previously used the buffers. That
/// makes the `kernel.shape_cache_*` observability counters
/// thread-count-deterministic, like the `Scratch` plan counters.
///
/// Allocation: slots live in a `Vec` that `clear` keeps at capacity,
/// and a compiled plan's `SmallVec`s are inline for `k ≤ 4`, so a
/// warmed serving loop takes hits and compiles misses without touching
/// the heap.
#[derive(Clone, Debug)]
pub struct PlanCache {
    slots: Vec<PlanSlot>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Default shape working-set bound: comfortably above any paper
    /// workload mix (the serving mixes use at most a dozen shapes)
    /// while keeping the linear probe short.
    pub const DEFAULT_CAPACITY: usize = 32;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to `capacity` compiled shapes.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a plan cache needs at least one slot");
        PlanCache {
            slots: Vec::with_capacity(capacity),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The slot bound this cache was built with (shapes it can hold
    /// before evicting).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Compiled shapes currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no compiled shapes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drops every cached plan (keeping slot capacity) and resets the
    /// LRU clock. Serving loops call this at run start so cache
    /// behavior depends only on the run's own query sequence.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.tick = 0;
    }

    /// Returns `(hits, misses)` accumulated since the last drain and
    /// resets both to zero.
    pub fn drain_stats(&mut self) -> (u64, u64) {
        let stats = (self.hits, self.misses);
        self.hits = 0;
        self.misses = 0;
        stats
    }

    /// The plan for `region`'s shape on `kernel`, compiling (and
    /// inserting, evicting the least-recently-used slot when full) on
    /// miss.
    fn ensure(&mut self, kernel: &DiskCounts, region: &BucketRegion) -> &CornerPlan {
        self.tick += 1;
        if let Some(i) = self
            .slots
            .iter()
            .position(|s| s.plan.matches(kernel, region))
        {
            self.hits += 1;
            self.slots[i].last_used = self.tick;
            return &self.slots[i].plan;
        }
        self.misses += 1;
        let slot = PlanSlot {
            plan: kernel.compile_plan(region),
            last_used: self.tick,
        };
        let i = if self.slots.len() < self.capacity {
            self.slots.push(slot);
            self.slots.len() - 1
        } else {
            let (lru, _) = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .expect("capacity > 0 means the full cache is non-empty");
            self.slots[lru] = slot;
            lru
        };
        &self.slots[i].plan
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DiskCounts {
    /// Builds the per-disk prefix-sum table for `map`, choosing the
    /// narrow (`u16`) count lane whenever the heaviest disk's bucket
    /// count fits it.
    ///
    /// # Errors
    /// [`MethodError::UnsupportedGrid`] if the `buckets × disks` table
    /// would not fit in memory (callers should fall back to the naive
    /// per-bucket walk).
    pub fn build(map: &AllocationMap) -> Result<Self> {
        Self::build_inner(map, false)
    }

    /// Builds the kernel with `u32` count lanes regardless of the disk
    /// loads — the v1 layout. A testing hook for comparing lane widths;
    /// [`DiskCounts::build`] picks the narrow lane automatically whenever
    /// it fits and the two produce identical counts (property-tested
    /// below).
    ///
    /// # Errors
    /// As [`DiskCounts::build`].
    pub fn build_wide(map: &AllocationMap) -> Result<Self> {
        Self::build_inner(map, true)
    }

    fn build_inner(map: &AllocationMap, force_wide: bool) -> Result<Self> {
        let space = map.space();
        let m = map.num_disks();
        let too_large = || MethodError::UnsupportedGrid {
            method: "DiskCounts",
            reason: "buckets x disks table too large to materialize".into(),
        };
        // A count on disk `d` is at most the number of buckets `d` holds,
        // so the bucket total must fit the widest lane and the heaviest
        // disk must fit the narrow one (the load walk runs only when the
        // total alone does not settle it); `2^k` corner enumeration
        // additionally needs `k` to stay a sane bit-mask width.
        let total = usize::try_from(space.num_buckets()).map_err(|_| too_large())?;
        if space.num_buckets() > u64::from(u32::MAX) || space.dims().len() > 24 {
            return Err(too_large());
        }
        let narrow = !force_wide
            && (total <= usize::from(u16::MAX) || map.load_stats().max <= u64::from(u16::MAX));
        let lane_bytes = if narrow { 2 } else { 4 };
        let cells = total.checked_mul(m as usize).ok_or_else(too_large)?;
        // Cap the table at ~1 GiB so a huge grid degrades to the naive
        // walk instead of aborting on allocation failure.
        if cells.checked_mul(lane_bytes).ok_or_else(too_large)? > 1usize << 30 {
            return Err(too_large());
        }

        let dims = space.dims().to_vec();
        let k = dims.len();
        let mut strides = vec![1usize; k];
        for i in (0..k.saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1] as usize;
        }

        let lanes = m as usize;
        let table = if narrow {
            CountLane::U16(build_table(map, lanes, &dims, &strides))
        } else {
            CountLane::U32(build_table(map, lanes, &dims, &strides))
        };
        KERNEL_BUILDS.fetch_add(1, Ordering::Relaxed);
        Ok(DiskCounts {
            m,
            dims,
            strides,
            table,
        })
    }

    /// Reassembles a kernel from its persisted parts (the v3 image
    /// loader in `persist`). The caller guarantees the parts are
    /// mutually consistent — `persist` revalidates dims, strides, and
    /// cell count before calling. Does not count as a build: nothing
    /// walks the grid.
    pub(crate) fn from_parts(
        m: u32,
        dims: Vec<u32>,
        strides: Vec<usize>,
        table: CountLane,
    ) -> Self {
        DiskCounts {
            m,
            dims,
            strides,
            table,
        }
    }

    /// Partitions per dimension (cached from the grid at build time).
    pub(crate) fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Cell strides in rows (a row is `m` lanes wide).
    pub(crate) fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// The table at its native lane width (for serialization).
    pub(crate) fn lane(&self) -> &CountLane {
        &self.table
    }

    /// Disks (`M`).
    #[inline]
    pub fn num_disks(&self) -> u32 {
        self.m
    }

    /// Bits per stored count: 16 when no disk holds more than `u16::MAX`
    /// buckets (every paper grid), 32 when one does (and under
    /// [`DiskCounts::build_wide`]).
    pub fn lane_bits(&self) -> u32 {
        match self.table {
            CountLane::U16(_) => u16::BITS,
            CountLane::U32(_) => u32::BITS,
        }
    }

    /// Approximate heap footprint of the table in bytes.
    pub fn table_bytes(&self) -> usize {
        self.table.bytes()
    }

    /// Compiles `region`'s *shape* into a [`CornerPlan`] for this
    /// kernel's grid. The plan answers every placement of that shape —
    /// on this kernel or any other kernel over the same grid.
    ///
    /// # Panics
    /// Panics if the region's arity does not match the grid.
    pub fn compile_plan(&self, region: &BucketRegion) -> CornerPlan {
        self.compile(region)
    }

    /// [`DiskCounts::compile_plan`] for any [`Shape`].
    fn compile<S: Shape + ?Sized>(&self, shape: &S) -> CornerPlan {
        let k = self.dims.len();
        assert_eq!(shape.arity(), k, "region arity does not match grid");
        let mut extents: SmallVec<[u32; 8]> = SmallVec::new();
        for dim in 0..k {
            extents.push(shape.side(dim) as u32);
        }
        let mut corners: SmallVec<[PlanCorner; 16]> = SmallVec::new();
        for mask in 0u32..(1u32 << k) {
            let mut offset = 0i64;
            for dim in 0..k {
                let stride = self.strides[dim] as i64;
                if mask & (1 << dim) != 0 {
                    // Excluded slab below the lower face: row `lo - 1`.
                    offset -= stride;
                } else {
                    // Inclusive upper face: row `lo + extent - 1`.
                    offset += (i64::from(extents[dim]) - 1) * stride;
                }
            }
            corners.push(PlanCorner {
                lo_mask: mask,
                offset,
                sign: if mask.count_ones() % 2 == 0 { 1 } else { -1 },
            });
        }
        CornerPlan {
            extents,
            strides: SmallVec::from_slice(&self.strides),
            corners,
        }
    }

    /// `region`'s [`PlacementKey`] on this kernel's grid.
    #[inline]
    fn placement_key(&self, region: &BucketRegion) -> PlacementKey {
        self.corner_key(region.lo().as_slice())
    }

    /// The [`PlacementKey`] of the placement whose `lo` corner is `lo`.
    #[inline]
    fn corner_key(&self, lo: &[u32]) -> PlacementKey {
        let mut key = PlacementKey::default();
        for (dim, (&l, &stride)) in lo.iter().zip(&self.strides).enumerate() {
            key.base += l as usize * stride;
            key.edge |= u32::from(l == 0) << dim;
        }
        key
    }

    /// The largest `lo` coordinate, per dimension, at which a box of
    /// `extents` still fits this kernel's grid.
    ///
    /// # Panics
    /// Panics if the arity differs from the grid's or an extent exceeds
    /// its side.
    fn room_for(&self, extents: &[u32]) -> SmallVec<[u32; 8]> {
        assert_eq!(
            extents.len(),
            self.dims.len(),
            "region arity does not match grid"
        );
        let mut room = SmallVec::new();
        for (&e, &d) in extents.iter().zip(&self.dims) {
            assert!(e <= d, "a {extents:?} box does not fit the grid");
            room.push(d - e);
        }
        room
    }

    /// Ensures `scratch` caches a plan valid for `shape` on this kernel,
    /// counting the hit or the recompilation.
    fn ensure_plan<S: Shape + ?Sized>(&self, shape: &S, scratch: &mut Scratch) {
        match &scratch.plan {
            Some(p) if p.fits(self, shape) => scratch.plan_hits += 1,
            _ => {
                scratch.plan_compiles += 1;
                scratch.plan = Some(self.compile(shape));
            }
        }
    }

    /// The RT reduction of `region` through `plan`: the max over its
    /// lanes.
    fn planned_response_time(&self, region: &BucketRegion, plan: &CornerPlan) -> u64 {
        let key = self.placement_key(region);
        let lanes = self.m as usize;
        match &self.table {
            CountLane::U16(t) => lane_max(t, lanes, plan, key),
            CountLane::U32(t) => lane_max(t, lanes, plan, key),
        }
    }

    /// The one batch walk behind every [`ScoreBatch`] sink: placement
    /// keys from (or into) the scratch, one plan resolution per run of
    /// equal shapes and its corner rows resolved once, then every
    /// placement's RT handed to `sink` in batch order.
    fn batch_walk(
        &self,
        placements: Placements<'_>,
        scratch: &mut Scratch,
        mut sink: impl FnMut(u64),
    ) {
        scratch.keys.ensure(self, placements, &scratch.corners);
        let lanes = self.m as usize;
        let mut start = 0;
        for run in 0..scratch.keys.run_ends.len() {
            let end = scratch.keys.run_ends[run];
            // The run's first placement hits or compiles exactly as the
            // per-query path would; the rest share its shape, so hit.
            match placements {
                Placements::Regions(regions) => self.ensure_plan(&regions[start], scratch),
                Placements::Corners(extents) => self.ensure_plan(extents, scratch),
            }
            scratch.plan_hits += (end - start - 1) as u64;
            let plan = scratch.plan.as_ref().expect("plan just ensured");
            scratch.rows.resolve(plan, lanes);
            let keys = &scratch.keys.placements[start..end];
            match &self.table {
                CountLane::U16(t) => walk_run(t, lanes, plan, &scratch.rows, keys, &mut sink),
                CountLane::U32(t) => walk_run(t, lanes, plan, &scratch.rows, keys, &mut sink),
            }
            start = end;
        }
    }

    /// Per-disk bucket counts of `region` (the access histogram), via
    /// `2^k` corner lookups per disk.
    pub fn access_histogram(&self, region: &BucketRegion) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.m as usize);
        self.planned_histogram(region, &self.compile_plan(region), &mut out);
        out
    }

    /// As [`DiskCounts::access_histogram`], but through the scratch's
    /// plan cache into a caller-owned buffer — nothing allocated per
    /// query once the buffer has grown.
    pub fn access_histogram_with(
        &self,
        region: &BucketRegion,
        scratch: &mut Scratch,
        out: &mut Vec<u64>,
    ) {
        self.ensure_plan(region, scratch);
        let plan = scratch.plan.as_ref().expect("plan just ensured");
        self.planned_histogram(region, plan, out);
    }

    /// `region`'s nonzero per-disk counts as `(disk, count)` pairs in
    /// disk order, appended to `row`, with the plan resolved through a
    /// cross-query [`PlanCache`] instead of a scratch's single slot —
    /// the serving loop's plan table, where arrivals interleave
    /// different shapes and a row keeps only the disks a region touches.
    pub fn sparse_histogram_cached(
        &self,
        region: &BucketRegion,
        plans: &mut PlanCache,
        row: &mut Vec<(u32, u64)>,
    ) {
        let plan = plans.ensure(self, region);
        let key = self.placement_key(region);
        let lanes = self.m as usize;
        match &self.table {
            CountLane::U16(t) => lane_sparse(t, lanes, plan, key, row),
            CountLane::U32(t) => lane_sparse(t, lanes, plan, key, row),
        }
    }

    /// `region`'s per-disk counts through `plan` into `out`.
    fn planned_histogram(&self, region: &BucketRegion, plan: &CornerPlan, out: &mut Vec<u64>) {
        let key = self.placement_key(region);
        let lanes = self.m as usize;
        match &self.table {
            CountLane::U16(t) => lane_histogram(t, lanes, plan, key, out),
            CountLane::U32(t) => lane_histogram(t, lanes, plan, key, out),
        }
    }

    /// Response time of `region`: max over disks of its per-disk bucket
    /// count. `O(M · 2^k)`, independent of the region's area.
    ///
    /// This entry point compiles the region's [`CornerPlan`] per call;
    /// when scoring many placements, prefer
    /// [`DiskCounts::response_time_with`], which compiles it once per
    /// shape.
    pub fn response_time(&self, region: &BucketRegion) -> u64 {
        self.planned_response_time(region, &self.compile_plan(region))
    }

    /// Response time of `region` through `scratch`'s cached plan: the
    /// kernel-v2 hot path, with the plan compiled only when the shape
    /// changes.
    pub fn response_time_with(&self, region: &BucketRegion, scratch: &mut Scratch) -> u64 {
        self.ensure_plan(region, scratch);
        let plan = scratch.plan.as_ref().expect("plan just ensured");
        self.planned_response_time(region, plan)
    }

    /// Bucket count of `region` on one disk (`2^k` lookups). Used by
    /// availability analysis, which only needs the failed disk's share.
    pub fn count_on_disk(&self, region: &BucketRegion, disk: u32) -> u64 {
        assert!(disk < self.m, "disk {disk} out of range (m = {})", self.m);
        self.planned_count(region, &self.compile_plan(region), disk)
    }

    /// As [`DiskCounts::count_on_disk`], through the scratch's plan
    /// cache: per placement of a repeated shape only the single lane is
    /// read per corner, with no corner re-derivation.
    ///
    /// # Panics
    /// Panics if `disk` is out of range.
    pub fn count_on_disk_with(
        &self,
        region: &BucketRegion,
        disk: u32,
        scratch: &mut Scratch,
    ) -> u64 {
        assert!(disk < self.m, "disk {disk} out of range (m = {})", self.m);
        self.ensure_plan(region, scratch);
        let plan = scratch.plan.as_ref().expect("plan just ensured");
        self.planned_count(region, plan, disk)
    }

    /// `region`'s count on lane `disk` through `plan`: one table read
    /// per corner.
    fn planned_count(&self, region: &BucketRegion, plan: &CornerPlan, disk: u32) -> u64 {
        let key = self.placement_key(region);
        let lanes = self.m as usize;
        let idx = disk as usize;
        let single = |rows: &dyn Fn(usize) -> i64| -> i64 {
            plan.corners
                .iter()
                .filter(|c| c.lo_mask & key.edge == 0)
                .map(|c| c.sign * rows((key.base as i64 + c.offset) as usize * lanes + idx))
                .sum()
        };
        let acc = match &self.table {
            CountLane::U16(t) => single(&|i| t[i].widen()),
            CountLane::U32(t) => single(&|i| t[i].widen()),
        };
        acc.max(0) as u64
    }
}

impl AllocationMap {
    /// Builds the [`DiskCounts`] prefix-sum kernel for this allocation.
    ///
    /// # Errors
    /// [`MethodError::UnsupportedGrid`] when the table would be too
    /// large; callers should fall back to [`AllocationMap::response_time`].
    pub fn disk_counts(&self) -> Result<DiskCounts> {
        DiskCounts::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskModulo, FieldwiseXor, RandomAlloc};
    use decluster_grid::{BucketRegion, GridSpace, RangeQuery};

    fn kernel_for(
        space: &GridSpace,
        method: &dyn crate::DeclusteringMethod,
    ) -> (AllocationMap, DiskCounts) {
        let map = AllocationMap::from_method(space, method).unwrap();
        let dc = map.disk_counts().unwrap();
        (map, dc)
    }

    #[test]
    fn matches_naive_on_pinned_2d_cases() {
        let g = GridSpace::new_2d(8, 8).unwrap();
        let dm = DiskModulo::new(&g, 4).unwrap();
        let (map, dc) = kernel_for(&g, &dm);
        for (lo, hi) in [
            ([0, 0], [0, 3]),
            ([0, 0], [1, 1]),
            ([1, 2], [5, 6]),
            ([0, 0], [7, 7]),
        ] {
            let r = RangeQuery::new(lo, hi).unwrap().region(&g).unwrap();
            assert_eq!(dc.response_time(&r), map.response_time(&r));
            assert_eq!(dc.access_histogram(&r), map.access_histogram(&r));
        }
    }

    #[test]
    fn exhaustive_2d_regions_match_naive() {
        let g = GridSpace::new_2d(5, 7).unwrap();
        let fx = FieldwiseXor::new(&g, 3).unwrap();
        let (map, dc) = kernel_for(&g, &fx);
        for y0 in 0..5u32 {
            for y1 in y0..5 {
                for x0 in 0..7u32 {
                    for x1 in x0..7 {
                        let r = BucketRegion::new(&g, [y0, x0].into(), [y1, x1].into()).unwrap();
                        assert_eq!(dc.response_time(&r), map.response_time(&r));
                    }
                }
            }
        }
    }

    #[test]
    fn planned_path_matches_exhaustively() {
        let g = GridSpace::new_2d(5, 7).unwrap();
        let fx = FieldwiseXor::new(&g, 3).unwrap();
        let (map, dc) = kernel_for(&g, &fx);
        let mut scratch = Scratch::new();
        let mut hist = Vec::new();
        for y0 in 0..5u32 {
            for y1 in y0..5 {
                for x0 in 0..7u32 {
                    for x1 in x0..7 {
                        let r = BucketRegion::new(&g, [y0, x0].into(), [y1, x1].into()).unwrap();
                        assert_eq!(
                            dc.response_time_with(&r, &mut scratch),
                            map.response_time(&r)
                        );
                        dc.access_histogram_with(&r, &mut scratch, &mut hist);
                        assert_eq!(hist, map.access_histogram(&r));
                    }
                }
            }
        }
        let (hits, compiles) = scratch.drain_plan_stats();
        assert_eq!(hits + compiles, 2 * 420, "every call hit or compiled");
        assert!(compiles >= 1);
    }

    #[test]
    fn plan_is_reused_while_the_shape_repeats() {
        let g = GridSpace::new_2d(16, 16).unwrap();
        let dm = DiskModulo::new(&g, 4).unwrap();
        let (map, dc) = kernel_for(&g, &dm);
        let mut scratch = Scratch::new();
        // Sixteen placements of the same 3x5 shape: one compile, the
        // rest plan hits, all equal to the naive walk.
        for dy in 0..4u32 {
            for dx in 0..4 {
                let r = BucketRegion::new(&g, [dy, dx].into(), [dy + 2, dx + 4].into()).unwrap();
                assert_eq!(
                    dc.response_time_with(&r, &mut scratch),
                    map.response_time(&r)
                );
            }
        }
        assert_eq!(scratch.drain_plan_stats(), (15, 1));
        // A new shape forces exactly one recompile.
        let r = BucketRegion::new(&g, [0, 0].into(), [1, 1].into()).unwrap();
        let _ = dc.response_time_with(&r, &mut scratch);
        assert_eq!(scratch.drain_plan_stats(), (0, 1));
    }

    #[test]
    fn plan_revalidates_across_grids() {
        // Same extents, different grid layout: the cached plan must not
        // leak between kernels with different strides.
        let g1 = GridSpace::new_2d(8, 8).unwrap();
        let g2 = GridSpace::new_2d(8, 16).unwrap();
        let (map1, dc1) = kernel_for(&g1, &DiskModulo::new(&g1, 4).unwrap());
        let (map2, dc2) = kernel_for(&g2, &DiskModulo::new(&g2, 4).unwrap());
        let r1 = BucketRegion::new(&g1, [1, 1].into(), [3, 3].into()).unwrap();
        let r2 = BucketRegion::new(&g2, [1, 1].into(), [3, 3].into()).unwrap();
        let mut scratch = Scratch::new();
        assert_eq!(
            dc1.response_time_with(&r1, &mut scratch),
            map1.response_time(&r1)
        );
        assert_eq!(
            dc2.response_time_with(&r2, &mut scratch),
            map2.response_time(&r2)
        );
        let (hits, compiles) = scratch.drain_plan_stats();
        assert_eq!((hits, compiles), (0, 2), "stride change must recompile");
    }

    #[test]
    fn batch_keys_follow_the_grid_and_the_batch() {
        // One batch scored on kernels over two grids of equal arity but
        // different strides: the keys must be recomputed per grid.
        let g1 = GridSpace::new_2d(8, 8).unwrap();
        let g2 = GridSpace::new_2d(8, 16).unwrap();
        let (map1, dc1) = kernel_for(&g1, &RandomAlloc::new(&g1, 4, 7).unwrap());
        let (map2, dc2) = kernel_for(&g2, &RandomAlloc::new(&g2, 4, 7).unwrap());
        let regions: Vec<_> = (0..4u32)
            .map(|i| BucketRegion::new(&g1, [i, 1].into(), [i + 2, i + 3].into()).unwrap())
            .collect();
        let naive = |map: &AllocationMap, regions: &[BucketRegion]| -> Vec<u64> {
            regions.iter().map(|r| map.response_time(r)).collect()
        };
        let mut scratch = Scratch::new();
        let mut out = vec![0; regions.len()];
        let mut batch = scratch.batch(&regions);
        for (map, dc) in [(&map1, &dc1), (&map2, &dc2), (&map1, &dc1)] {
            batch.response_times(dc, &mut out);
            assert_eq!(out, naive(map, &regions));
        }
        // A new batch on the same scratch drops the old batch's keys.
        let shifted: Vec<_> = regions
            .iter()
            .map(|r| r.translate(&g1, &[1, 1]).unwrap())
            .collect();
        scratch.batch(&shifted).response_times(&dc1, &mut out);
        assert_eq!(out, naive(&map1, &shifted));
    }

    /// The nonzero entries of a dense histogram, as `(disk, count)`.
    fn sparse(hist: &[u64]) -> Vec<(u32, u64)> {
        (0u32..)
            .zip(hist.iter().copied())
            .filter(|&(_, c)| c > 0)
            .collect()
    }

    #[test]
    fn plan_cache_amortizes_interleaved_shapes() {
        // Two alternating shapes thrash the one-slot Scratch cache but
        // fit the cross-query cache: one compile each, hits thereafter.
        let g = GridSpace::new_2d(16, 16).unwrap();
        let dm = DiskModulo::new(&g, 4).unwrap();
        let (map, dc) = kernel_for(&g, &dm);
        let mut plans = PlanCache::new();
        let mut out = Vec::new();
        for i in 0..10u32 {
            let (h, w) = if i % 2 == 0 { (2, 2) } else { (3, 5) };
            let r = BucketRegion::new(&g, [i, i].into(), [i + h - 1, i + w - 1].into()).unwrap();
            out.clear();
            dc.sparse_histogram_cached(&r, &mut plans, &mut out);
            assert_eq!(out, sparse(&map.access_histogram(&r)));
        }
        assert_eq!(plans.len(), 2);
        assert_eq!(plans.drain_stats(), (8, 2), "one compile per live shape");
        // clear() forgets the shapes but keeps counting deterministic.
        plans.clear();
        assert!(plans.is_empty());
        let r = BucketRegion::new(&g, [0, 0].into(), [1, 1].into()).unwrap();
        dc.sparse_histogram_cached(&r, &mut plans, &mut out);
        assert_eq!(plans.drain_stats(), (0, 1));
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let g = GridSpace::new_2d(16, 16).unwrap();
        let dm = DiskModulo::new(&g, 4).unwrap();
        let (_, dc) = kernel_for(&g, &dm);
        let mut plans = PlanCache::with_capacity(2);
        let mut out = Vec::new();
        let shape = |w: u32| BucketRegion::new(&g, [0, 0].into(), [0, w].into()).unwrap();
        // Fill: shapes A, B. Touch A so B is the LRU victim.
        dc.sparse_histogram_cached(&shape(1), &mut plans, &mut out);
        dc.sparse_histogram_cached(&shape(2), &mut plans, &mut out);
        dc.sparse_histogram_cached(&shape(1), &mut plans, &mut out);
        // C evicts B; A must still be cached.
        dc.sparse_histogram_cached(&shape(3), &mut plans, &mut out);
        assert_eq!(plans.len(), 2);
        let _ = plans.drain_stats();
        dc.sparse_histogram_cached(&shape(1), &mut plans, &mut out);
        assert_eq!(plans.drain_stats(), (1, 0), "A survived the eviction");
        dc.sparse_histogram_cached(&shape(2), &mut plans, &mut out);
        assert_eq!(plans.drain_stats(), (0, 1), "B was evicted");
    }

    #[test]
    fn plan_cache_revalidates_strides_across_grids() {
        // Same shape extents on two grids with different strides: the
        // cache must compile per grid, never serving one grid's plan to
        // the other.
        let g1 = GridSpace::new_2d(8, 8).unwrap();
        let g2 = GridSpace::new_2d(8, 16).unwrap();
        let (map1, dc1) = kernel_for(&g1, &DiskModulo::new(&g1, 4).unwrap());
        let (map2, dc2) = kernel_for(&g2, &DiskModulo::new(&g2, 4).unwrap());
        let r1 = BucketRegion::new(&g1, [1, 1].into(), [3, 3].into()).unwrap();
        let r2 = BucketRegion::new(&g2, [1, 1].into(), [3, 3].into()).unwrap();
        let mut plans = PlanCache::new();
        let mut out = Vec::new();
        dc1.sparse_histogram_cached(&r1, &mut plans, &mut out);
        assert_eq!(out, sparse(&map1.access_histogram(&r1)));
        out.clear();
        dc2.sparse_histogram_cached(&r2, &mut plans, &mut out);
        assert_eq!(out, sparse(&map2.access_histogram(&r2)));
        assert_eq!(plans.drain_stats(), (0, 2), "stride change must compile");
        assert_eq!(plans.len(), 2, "both grids' plans coexist");
    }

    #[test]
    fn narrow_and_wide_lanes_agree_bucket_for_bucket() {
        let g = GridSpace::new(vec![6, 5, 4]).unwrap();
        let ra = RandomAlloc::new(&g, 7, 99).unwrap();
        let map = AllocationMap::from_method(&g, &ra).unwrap();
        let narrow = DiskCounts::build(&map).unwrap();
        let wide = DiskCounts::build_wide(&map).unwrap();
        assert_eq!(narrow.lane_bits(), 16);
        assert_eq!(wide.lane_bits(), 32);
        assert_eq!(narrow.table_bytes() * 2, wide.table_bytes());
        for (lo, hi) in [
            ([0, 0, 0], [5, 4, 3]),
            ([1, 2, 0], [4, 4, 2]),
            ([2, 2, 2], [2, 2, 2]),
        ] {
            let r = BucketRegion::new(&g, lo.into(), hi.into()).unwrap();
            assert_eq!(narrow.access_histogram(&r), wide.access_histogram(&r));
            assert_eq!(narrow.response_time(&r), wide.response_time(&r));
            for d in 0..7 {
                assert_eq!(narrow.count_on_disk(&r, d), wide.count_on_disk(&r, d));
            }
        }
    }

    #[test]
    fn large_grids_with_light_disks_keep_the_narrow_lane() {
        // 300x300 = 90_000 buckets > u16::MAX, but DM over 3 disks puts
        // 30_000 on each: every count fits u16 lanes.
        let g = GridSpace::new_2d(300, 300).unwrap();
        let dm = DiskModulo::new(&g, 3).unwrap();
        let (map, dc) = kernel_for(&g, &dm);
        assert_eq!(map.load_stats().max, 30_000);
        assert_eq!(dc.lane_bits(), 16);
        let full = BucketRegion::full(&g);
        assert_eq!(dc.response_time(&full), map.load_stats().max);
        assert_eq!(dc.response_time(&full), map.response_time(&full));
        let r = BucketRegion::new(&g, [17, 250].into(), [140, 299].into()).unwrap();
        assert_eq!(dc.response_time(&r), map.response_time(&r));
        let mut scratch = Scratch::new();
        assert_eq!(
            dc.response_time_with(&r, &mut scratch),
            map.response_time(&r)
        );
    }

    /// A 256x257 grid (65_792 buckets, past `u16::MAX`) over four disks
    /// whose disk 0 holds exactly `heavy` buckets, scattered by a
    /// stride permutation; the rest cycle over disks 1..=3.
    fn skewed_map(heavy: usize) -> AllocationMap {
        let g = GridSpace::new_2d(256, 257).unwrap();
        let total = g.num_buckets() as usize;
        let table = (0..total)
            .map(|i| {
                if i * 7919 % total < heavy {
                    0
                } else {
                    1 + (i % 3) as u32
                }
            })
            .collect();
        AllocationMap::from_table(&g, 4, table).unwrap()
    }

    #[test]
    fn the_heaviest_disk_picks_the_lane_width() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(65_535);
        for (heavy, bits) in [(65_535, 16), (65_536, 32)] {
            let map = skewed_map(heavy);
            assert_eq!(map.load_stats().max, heavy as u64);
            let dc = map.disk_counts().unwrap();
            let wide = DiskCounts::build_wide(&map).unwrap();
            assert_eq!(dc.lane_bits(), bits, "heaviest disk holds {heavy}");
            let g = map.space();
            let full = BucketRegion::full(g);
            assert_eq!(dc.response_time(&full), heavy as u64);
            assert_eq!(dc.access_histogram(&full), wide.access_histogram(&full));
            let mut scratch = Scratch::new();
            let mut hist = Vec::new();
            for _ in 0..40 {
                let (y0, y1) = (rng.gen_range(0..256u32), rng.gen_range(0..256u32));
                let (x0, x1) = (rng.gen_range(0..257u32), rng.gen_range(0..257u32));
                let r = BucketRegion::new(
                    g,
                    [y0.min(y1), x0.min(x1)].into(),
                    [y0.max(y1), x0.max(x1)].into(),
                )
                .unwrap();
                let expect = wide.access_histogram(&r);
                assert_eq!(dc.access_histogram(&r), expect);
                dc.access_histogram_with(&r, &mut scratch, &mut hist);
                assert_eq!(hist, expect);
                assert_eq!(dc.response_time(&r), wide.response_time(&r));
                assert_eq!(
                    dc.response_time_with(&r, &mut scratch),
                    wide.response_time(&r)
                );
            }
        }
    }

    #[test]
    fn histogram_sums_to_region_volume_in_3d() {
        let g = GridSpace::new(vec![4, 5, 3]).unwrap();
        let ra = RandomAlloc::new(&g, 6, 77).unwrap();
        let (map, dc) = kernel_for(&g, &ra);
        let r = BucketRegion::new(&g, [1, 0, 1].into(), [3, 4, 2].into()).unwrap();
        assert_eq!(dc.access_histogram(&r).iter().sum::<u64>(), r.num_buckets());
        assert_eq!(dc.access_histogram(&r), map.access_histogram(&r));
        assert_eq!(dc.response_time(&r), map.response_time(&r));
    }

    #[test]
    fn count_on_disk_matches_histogram() {
        let g = GridSpace::new_2d(6, 6).unwrap();
        let dm = DiskModulo::new(&g, 5).unwrap();
        let (map, dc) = kernel_for(&g, &dm);
        let r = BucketRegion::new(&g, [2, 1].into(), [5, 4].into()).unwrap();
        let hist = map.access_histogram(&r);
        let mut scratch = Scratch::new();
        for d in 0..5 {
            assert_eq!(dc.count_on_disk(&r, d), hist[d as usize]);
            assert_eq!(dc.count_on_disk_with(&r, d, &mut scratch), hist[d as usize]);
        }
    }

    #[test]
    fn single_bucket_and_full_grid_regions() {
        let g = GridSpace::new(vec![3, 4, 2]).unwrap();
        let dm = DiskModulo::new(&g, 4).unwrap();
        let (map, dc) = kernel_for(&g, &dm);
        let point = BucketRegion::point(&g, [2, 3, 1].into()).unwrap();
        assert_eq!(dc.response_time(&point), 1);
        let full = BucketRegion::full(&g);
        assert_eq!(dc.response_time(&full), map.load_stats().max);
    }

    #[test]
    fn one_dimensional_grid() {
        let g = GridSpace::new(vec![17]).unwrap();
        let dm = DiskModulo::new(&g, 4).unwrap();
        let (map, dc) = kernel_for(&g, &dm);
        let mut scratch = Scratch::new();
        for lo in 0..17u32 {
            for hi in lo..17 {
                let r = BucketRegion::new(&g, [lo].into(), [hi].into()).unwrap();
                assert_eq!(dc.response_time(&r), map.response_time(&r));
                assert_eq!(
                    dc.response_time_with(&r, &mut scratch),
                    map.response_time(&r)
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{DeclusteringMethod, DiskModulo, FieldwiseXor, RandomAlloc, RoundRobin};
    use decluster_grid::GridSpace;
    use proptest::prelude::*;

    /// Random grid (k in 1..=3, each dimension at most 32), method, and
    /// region inside the grid — including edge-clipped and single-bucket
    /// regions, which exercise the `lo == 0` corner dropping.
    fn grid_method_region() -> impl Strategy<Value = (GridSpace, AllocationMap, BucketRegion)> {
        (proptest::collection::vec(1u32..=32, 1..4), 2u32..=8, 0u8..4).prop_flat_map(
            |(dims, m, which)| {
                let g = GridSpace::new(dims.clone()).unwrap();
                let method: Box<dyn DeclusteringMethod> = match which {
                    0 => Box::new(DiskModulo::new(&g, m).unwrap()),
                    1 => Box::new(FieldwiseXor::new(&g, m).unwrap()),
                    2 => Box::new(RoundRobin::new(&g, m).unwrap()),
                    _ => Box::new(RandomAlloc::new(&g, m, 42).unwrap()),
                };
                let map = AllocationMap::from_method(&g, method.as_ref()).unwrap();
                // Draw one raw u64 per dimension and split it into an
                // unordered corner pair; sorting the pair yields lo/hi.
                proptest::collection::vec(0u64..u64::MAX, dims.len()..dims.len() + 1).prop_map(
                    move |raws| {
                        let mut lo = Vec::with_capacity(raws.len());
                        let mut hi = Vec::with_capacity(raws.len());
                        for (raw, &d) in raws.iter().zip(&dims) {
                            let a = (raw % u64::from(d)) as u32;
                            let b = ((raw >> 32) % u64::from(d)) as u32;
                            lo.push(a.min(b));
                            hi.push(a.max(b));
                        }
                        let r = BucketRegion::new(&g, lo.into(), hi.into()).unwrap();
                        (g.clone(), map.clone(), r)
                    },
                )
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn kernel_matches_naive_response_time((_g, map, r) in grid_method_region()) {
            let dc = map.disk_counts().unwrap();
            prop_assert_eq!(dc.response_time(&r), map.response_time(&r));
        }

        #[test]
        fn kernel_matches_naive_histogram((_g, map, r) in grid_method_region()) {
            let dc = map.disk_counts().unwrap();
            prop_assert_eq!(dc.access_histogram(&r), map.access_histogram(&r));
        }

        /// Kernel v2 contract: the shape-compiled plan + scratch path
        /// equals the naive walk — both on a cold scratch and on one
        /// carrying a (possibly mismatched) plan from another query.
        #[test]
        fn planned_kernel_matches_naive_walk((g, map, r) in grid_method_region()) {
            let dc = map.disk_counts().unwrap();
            let mut scratch = Scratch::new();
            prop_assert_eq!(dc.response_time_with(&r, &mut scratch), map.response_time(&r));
            // Re-use the same scratch against the full grid (usually a
            // different shape): the plan must revalidate, not go stale.
            let full = BucketRegion::full(&g);
            prop_assert_eq!(dc.response_time_with(&full, &mut scratch), map.response_time(&full));
            prop_assert_eq!(dc.response_time_with(&r, &mut scratch), map.response_time(&r));
            let mut hist = Vec::new();
            dc.access_histogram_with(&r, &mut scratch, &mut hist);
            prop_assert_eq!(hist, map.access_histogram(&r));
        }

        /// Adaptive-width contract: u16 and u32 lane tables agree
        /// bucket-for-bucket on histograms, RT, and per-disk counts.
        #[test]
        fn narrow_and_wide_lane_tables_agree((_g, map, r) in grid_method_region()) {
            let narrow = DiskCounts::build(&map).unwrap();
            let wide = DiskCounts::build_wide(&map).unwrap();
            prop_assert_eq!(narrow.lane_bits(), 16); // <= 32^3 buckets always fits
            prop_assert_eq!(wide.lane_bits(), 32);
            prop_assert_eq!(narrow.access_histogram(&r), wide.access_histogram(&r));
            prop_assert_eq!(narrow.response_time(&r), wide.response_time(&r));
            let mut scratch = Scratch::new();
            for d in 0..map.num_disks() {
                prop_assert_eq!(narrow.count_on_disk(&r, d), wide.count_on_disk(&r, d));
                prop_assert_eq!(
                    narrow.count_on_disk_with(&r, d, &mut scratch),
                    wide.count_on_disk(&r, d)
                );
            }
        }

    }

    /// Disk counts below, at and across the 16-lane chunk.
    const BATCH_DISKS: [u32; 8] = [1, 2, 5, 15, 16, 17, 33, 64];

    /// An allocation of `g` over `BATCH_DISKS[disks]` disks: DM, FX or,
    /// for any other `which`, a random allocation seeded by `seed`.
    fn batch_map(g: &GridSpace, disks: usize, which: u8, seed: u64) -> AllocationMap {
        let m = BATCH_DISKS[disks];
        let method: Box<dyn DeclusteringMethod> = match which {
            0 => Box::new(DiskModulo::new(g, m).unwrap()),
            1 => Box::new(FieldwiseXor::new(g, m).unwrap()),
            _ => Box::new(RandomAlloc::new(g, m, seed).unwrap()),
        };
        AllocationMap::from_method(g, method.as_ref()).unwrap()
    }

    /// A random grid (k in 1..=4, uneven sides), an allocation over one
    /// of [`BATCH_DISKS`] disks, and a batch of placements drawn in
    /// random order from three random shapes — so runs of equal shapes
    /// break, shapes come back after others, and about a third of the
    /// low coordinates sit on the `lo = 0` face.
    fn map_and_batch() -> impl Strategy<Value = (AllocationMap, Vec<BucketRegion>)> {
        (
            proptest::collection::vec(1u32..=9, 1..5),
            0..BATCH_DISKS.len(),
            0u8..3,
            any::<u64>(),
        )
            .prop_flat_map(|(dims, disks, which, seed)| {
                let g = GridSpace::new(dims.clone()).unwrap();
                let map = batch_map(&g, disks, which, seed);
                let k = dims.len();
                (
                    proptest::collection::vec(any::<u64>(), 3 * k..3 * k + 1),
                    proptest::collection::vec((0usize..3, any::<u64>()), 1..40),
                )
                    .prop_map(move |(shape_raws, placements)| {
                        let shapes: Vec<Vec<u32>> = shape_raws
                            .chunks(k)
                            .map(|raws| {
                                raws.iter()
                                    .zip(&dims)
                                    .map(|(&raw, &d)| 1 + (raw % u64::from(d)) as u32)
                                    .collect()
                            })
                            .collect();
                        let regions = placements
                            .iter()
                            .map(|&(shape, raw)| {
                                let mut lo = Vec::with_capacity(k);
                                let mut hi = Vec::with_capacity(k);
                                for (d, (&side, &dim)) in
                                    shapes[shape].iter().zip(&dims).enumerate()
                                {
                                    let bits = raw.rotate_left(16 * d as u32);
                                    let slack = u64::from(dim - side) + 1;
                                    let l = if bits % 3 == 0 {
                                        0
                                    } else {
                                        ((bits >> 8) % slack) as u32
                                    };
                                    lo.push(l);
                                    hi.push(l + side - 1);
                                }
                                BucketRegion::new(&g, lo.into(), hi.into()).unwrap()
                            })
                            .collect();
                        (map.clone(), regions)
                    })
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Batch contract: on narrow and wide lanes alike, every batch RT
        /// equals the naive walk and the per-query planned path, the
        /// batch's RT histogram equals the histogram of its RTs and that
        /// of the batch's naive walk, and each pass moves the plan
        /// counters exactly as the per-query loop over the same kernels
        /// does. The histogram reduction of the same lane routine matches
        /// the naive walk on the same placements.
        #[test]
        fn batch_kernel_matches_the_references((map, regions) in map_and_batch()) {
            let kernels = [DiskCounts::build(&map).unwrap(), DiskCounts::build_wide(&map).unwrap()];
            let mut batch_scratch = Scratch::new();
            let mut batch = batch_scratch.batch(&regions);
            let mut rts = vec![vec![0u64; regions.len()]; kernels.len()];
            for (kernel, out) in kernels.iter().zip(&mut rts) {
                batch.response_times(kernel, out);
            }
            let mut naive = Vec::new();
            batch.naive_rt_histogram(&map, &mut naive);
            let mut hist_scratch = Scratch::new();
            let mut hist_batch = hist_scratch.batch(&regions);
            let mut hist = Vec::new();
            for (kernel, batch_rts) in kernels.iter().zip(&rts) {
                hist_batch.rt_histogram(kernel, &mut hist);
                prop_assert_eq!(&hist, &histogram_of(batch_rts));
                prop_assert_eq!(&hist, &naive);
            }
            let mut scratch = Scratch::new();
            for (kernel, batch_rts) in kernels.iter().zip(&rts) {
                for (r, &rt) in regions.iter().zip(batch_rts) {
                    prop_assert_eq!(rt, map.response_time(r));
                    prop_assert_eq!(kernel.response_time_with(r, &mut scratch), rt);
                }
            }
            let per_query = scratch.drain_plan_stats();
            prop_assert_eq!(batch_scratch.drain_plan_stats(), per_query);
            prop_assert_eq!(hist_scratch.drain_plan_stats(), per_query);

            let mut hist = Vec::new();
            for kernel in &kernels {
                for r in &regions {
                    kernel.access_histogram_with(r, &mut scratch, &mut hist);
                    prop_assert_eq!(&hist, &map.access_histogram(r));
                }
            }
        }
    }

    /// The `lo` corners `raws` draw for boxes of `extents` on `dims`, `k`
    /// coordinates per placement: about a third of the coordinates on
    /// the `lo = 0` face, and the only admissible one (0) wherever a side
    /// fills its dimension.
    fn corners_for(dims: &[u32], extents: &[u32], raws: &[u64]) -> Vec<u32> {
        let mut corners = Vec::with_capacity(raws.len() * dims.len());
        for &raw in raws {
            for (d, (&e, &dim)) in extents.iter().zip(dims).enumerate() {
                let bits = raw.rotate_left(16 * d as u32);
                let slack = u64::from(dim - e) + 1;
                corners.push(if bits % 3 == 0 {
                    0
                } else {
                    ((bits >> 8) % slack) as u32
                });
            }
        }
        corners
    }

    /// The histogram of `rts`: `hist[rt]` of them equal `rt`, and the
    /// last bin holds the largest.
    fn histogram_of(rts: &[u64]) -> Vec<u64> {
        let mut hist = vec![0; rts.iter().max().map_or(0, |&max| max as usize + 1)];
        for &rt in rts {
            hist[rt as usize] += 1;
        }
        hist
    }

    /// The corner contract: the placements of `extents` at `corners`,
    /// scored as one corner batch and as the region batch over the same
    /// placements, give equal RTs on narrow and wide kernels, equal to
    /// the naive walk; each batch's RT histogram equals the histogram of
    /// those RTs and of its naive walk; and both batches report the same
    /// shape runs and move the plan counters alike.
    fn corner_batch_matches_region_batch(map: &AllocationMap, extents: &[u32], corners: &[u32]) {
        let g = map.space();
        let regions: Vec<BucketRegion> = corners
            .chunks(extents.len())
            .map(|lo| corner_region(g, lo, extents))
            .collect();
        let kernels = [
            DiskCounts::build(map).unwrap(),
            DiskCounts::build_wide(map).unwrap(),
        ];
        let mut region_scratch = Scratch::new();
        let mut region_batch = region_scratch.batch(&regions);
        let mut corner_scratch = Scratch::new();
        corner_scratch.corners_mut().extend_from_slice(corners);
        let mut corner_batch = corner_scratch.shape_batch(extents);
        prop_assert_eq!(corner_batch.len(), regions.len());
        prop_assert_eq!(
            corner_batch.shape_runs().collect::<Vec<_>>(),
            region_batch.shape_runs().collect::<Vec<_>>()
        );
        let mut by_region = vec![0u64; regions.len()];
        let mut by_corner = vec![0u64; regions.len()];
        let (mut region_hist, mut corner_hist) = (Vec::new(), Vec::new());
        for kernel in &kernels {
            region_batch.response_times(kernel, &mut by_region);
            corner_batch.response_times(kernel, &mut by_corner);
            prop_assert_eq!(&by_corner, &by_region);
            region_batch.rt_histogram(kernel, &mut region_hist);
            corner_batch.rt_histogram(kernel, &mut corner_hist);
            prop_assert_eq!(&region_hist, &histogram_of(&by_region));
            prop_assert_eq!(&corner_hist, &region_hist);
        }
        for (r, &rt) in regions.iter().zip(&by_region) {
            prop_assert_eq!(rt, map.response_time(r), "{:?} on {:?}", r, g.dims());
        }
        region_batch.naive_rt_histogram(map, &mut region_hist);
        corner_batch.naive_rt_histogram(map, &mut corner_hist);
        prop_assert_eq!(&region_hist, &histogram_of(&by_region));
        prop_assert_eq!(&corner_hist, &region_hist);
        prop_assert_eq!(
            corner_scratch.drain_plan_stats(),
            region_scratch.drain_plan_stats()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The corner contract on the `grid_method_region` population
        /// (k in 1..=3): the drawn region's shape, with about a quarter
        /// of its sides widened to fill their dimension.
        #[test]
        fn corner_batch_matches_the_region_batch(
            (g, map, r) in grid_method_region(),
            full_bits in any::<u64>(),
            raws in proptest::collection::vec(any::<u64>(), 0..24)
        ) {
            let extents: Vec<u32> = (0..r.dims())
                .map(|d| if full_bits >> (2 * d) & 3 == 0 { g.dim(d) } else { r.extent(d) as u32 })
                .collect();
            corner_batch_matches_region_batch(&map, &extents, &corners_for(g.dims(), &extents, &raws));
        }

        /// The corner contract on 4-D grids, over one of [`BATCH_DISKS`]
        /// disks.
        #[test]
        fn corner_batch_matches_the_region_batch_in_4d(
            dims in proptest::collection::vec(1u32..=6, 4..5),
            disks in 0..BATCH_DISKS.len(),
            which in 0u8..3,
            side_raws in proptest::collection::vec(any::<u64>(), 4..5),
            raws in proptest::collection::vec(any::<u64>(), 1..24)
        ) {
            let map = batch_map(&GridSpace::new(dims.clone()).unwrap(), disks, which, side_raws[0]);
            let extents: Vec<u32> = side_raws
                .iter()
                .zip(&dims)
                .map(|(&raw, &d)| if raw % 4 == 0 { d } else { 1 + ((raw >> 2) % u64::from(d)) as u32 })
                .collect();
            corner_batch_matches_region_batch(&map, &extents, &corners_for(&dims, &extents, &raws));
        }
    }
}
