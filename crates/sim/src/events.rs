//! The event-driven serving core of the multi-user simulator.
//!
//! The closed-loop, open-loop, and degraded loops in [`crate::multiuser`]
//! are all drivers over the same two primitives defined here:
//!
//! * [`EventHeap`] — an indexed binary min-heap over logical time with
//!   deterministic tie-breaking: events at equal times pop in insertion
//!   order (a monotone sequence number is the secondary key), so a run's
//!   event order is a pure function of its inputs.
//! * [`ServingEngine`] — the per-directory service core: the cached
//!   [`PlanCounts`] kernel, the static load vector, and the FCFS fan-out
//!   step that turns one query into per-disk batch service. The streaming
//!   serve (reached through [`crate::ServeSpec`]) consumes an
//!   arrival-event stream and emits completion events through the heap,
//!   sampling
//!   mid-run state (in-flight, queue depth, windowed p50/p95/p99) at
//!   configurable logical-time intervals.
//!
//! # Plan once per run
//!
//! A streaming run cycles a fixed pool of `L` query regions (arrival `i`
//! issues region `i % L`), so the open-loop and degraded serves plan
//! each region once into a sparse table held in the [`LoopScratch`]:
//! row `q` holds one [`PlanEntry`] per disk region `q` touches (at most
//! `min(|Q|, M)`), with its page count and its batch service time,
//! costed once. Planning costs `O(L · M · 2^k)` per run instead of per
//! arrival; every arrival and retry walks only its row, in
//! `O(touched disks)`, and adds the same floats to the disk queues as
//! planning on arrival would. The
//! `kernel.shape_cache_hits`/`misses` counters therefore count the
//! table fill's cache probes, one per planned region. The closed loops
//! and the shared-scan loop plan each query on issue.
//!
//! # Memory bounds
//!
//! A serving run's state is the event heap (one entry per in-flight
//! query), a fixed-capacity ring of recently completed latencies, and the
//! flat latency vector — never per-client state. A million-client
//! open-loop run therefore peaks at `O(in-flight + clients × 8 bytes)`,
//! and the warmed loop performs zero heap allocations per event
//! (`tests/alloc_counting.rs` proves it with a counting allocator).
//!
//! # Sharded arrival streams
//!
//! [`sharded_arrivals`] generates large arrival vectors in fixed-size
//! chunks on the deterministic executor, each chunk from its own derived
//! RNG stream, merged by a sequential prefix-sum reduction — byte-identical
//! output at any thread count.

use crate::faults::{DiskState, FaultEvent, FaultSchedule, ReplicaPolicy, RetryPolicy};
use crate::multiuser::{assemble_report, LoopMeters, MultiUserReport};
use crate::stats::Quantiles;
use crate::workload::InterArrival;
use crate::{DiskParams, Result, SimError};
use decluster_grid::{BucketRegion, GridDirectory};
use decluster_methods::{DiskCounts, PlanCache, PlanCounts};
use decluster_obs::{Obs, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One scheduled event: its logical time, the sequence number assigned at
/// push (the deterministic tie-breaker), and a payload.
#[derive(Clone, Copy, Debug)]
pub struct Event<T> {
    /// Logical time of the event, ms.
    pub time: f64,
    /// Monotone insertion index; equal-time events pop in this order.
    pub seq: u64,
    /// Caller data carried by the event.
    pub payload: T,
}

impl<T> Event<T> {
    #[inline]
    fn key(&self) -> (f64, u64) {
        (self.time, self.seq)
    }

    #[inline]
    fn before(&self, other: &Self) -> bool {
        let (ta, sa) = self.key();
        let (tb, sb) = other.key();
        match ta.total_cmp(&tb) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => sa < sb,
        }
    }
}

/// A binary min-heap of [`Event`]s keyed by `(time, seq)`.
///
/// Times are compared with [`f64::total_cmp`], so ordering is total even
/// for pathological inputs; ties break by sequence number (insertion
/// order), which makes pop order deterministic under duplicate
/// timestamps — the property the proptests below pin.
///
/// The heap is a flat `Vec` that retains capacity across
/// [`EventHeap::clear`], so warmed serving loops push and pop without
/// touching the allocator. It also tracks its high-water mark
/// ([`EventHeap::peak_len`]) for the bounded-memory accounting of large
/// open-loop runs.
#[derive(Clone, Debug)]
pub struct EventHeap<T> {
    entries: Vec<Event<T>>,
    next_seq: u64,
    peak: usize,
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        EventHeap {
            entries: Vec::new(),
            next_seq: 0,
            peak: 0,
        }
    }
}

impl<T> EventHeap<T> {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scheduled events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Largest number of events ever scheduled at once since the last
    /// [`EventHeap::clear`].
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Removes all events and resets the sequence counter and peak,
    /// keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.next_seq = 0;
        self.peak = 0;
    }

    /// Schedules `payload` at `time` and returns the assigned sequence
    /// number. Later pushes at the same time pop later.
    pub fn push(&mut self, time: f64, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Event { time, seq, payload });
        self.sift_up(self.entries.len() - 1);
        self.peak = self.peak.max(self.entries.len());
        seq
    }

    /// Time of the earliest scheduled event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.entries.first().map(|e| e.time)
    }

    /// Removes and returns the earliest event (ties by sequence number).
    pub fn pop(&mut self) -> Option<Event<T>> {
        if self.entries.is_empty() {
            return None;
        }
        let last = self.entries.len() - 1;
        self.entries.swap(0, last);
        let out = self.entries.pop();
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        out
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[i].before(&self.entries[parent]) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && self.entries[l].before(&self.entries[smallest]) {
                smallest = l;
            }
            if r < n && self.entries[r].before(&self.entries[smallest]) {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.entries.swap(i, smallest);
            i = smallest;
        }
    }
}

/// A fixed-capacity ring of the most recently completed latencies: the
/// windowed sample behind mid-run p50/p95/p99 snapshots. Overwrites the
/// oldest entry once full; capacity is fixed at
/// [`LatencyRing::reset`] and never grows, so million-client runs keep a
/// bounded tail window.
#[derive(Clone, Debug, Default)]
pub(crate) struct LatencyRing {
    buf: Vec<f64>,
    cap: usize,
    head: usize,
}

impl LatencyRing {
    /// Empties the ring and fixes its capacity (at least 1), keeping any
    /// existing allocation.
    pub(crate) fn reset(&mut self, cap: usize) {
        self.cap = cap.max(1);
        self.buf.clear();
        self.buf.reserve(self.cap);
        self.head = 0;
    }

    pub(crate) fn push(&mut self, v: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// The window contents, in no particular order (quantile extraction
    /// selects on its own copy).
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.buf
    }
}

/// One mid-run state snapshot of a serving run, taken at a logical-time
/// sampling boundary (see [`ServeConfig::sample_every_ms`]). Everything
/// here derives from simulated quantities, so samples are bit-identical
/// across thread counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeSample {
    /// Logical sample time, ms.
    pub at_ms: f64,
    /// Queries issued but not yet completed (the event heap's size).
    pub in_flight: usize,
    /// Disks whose FCFS queue extends past the sample time.
    pub busy_disks: usize,
    /// Queries completed so far.
    pub completed: u64,
    /// Windowed latency tails over the last [`ServeConfig::window`]
    /// completions (zeros before the first completion).
    pub tail_ms: Quantiles,
}

/// Configuration of a streaming serve run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeConfig {
    /// Logical-time interval between mid-run samples, ms; `0` (the
    /// default) disables sampling.
    pub sample_every_ms: f64,
    /// Capacity of the windowed latency ring behind each sample's tails.
    pub window: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sample_every_ms: 0.0,
            window: 1024,
        }
    }
}

/// Aggregate results of one streaming serve run. Mid-run samples stay in
/// the caller's [`LoopScratch`] (see [`LoopScratch::samples`]) so the
/// warmed loop allocates nothing; this report carries only their count.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The open-loop aggregate report (`clients` is 0: arrivals are an
    /// open stream, not a closed set).
    pub report: MultiUserReport,
    /// Events processed (one arrival plus one completion per query).
    pub events: u64,
    /// High-water mark of in-flight queries (the event heap's peak).
    pub peak_in_flight: usize,
    /// Total pages fetched across all disks.
    pub pages: u64,
    /// Mid-run samples recorded into the scratch.
    pub samples: usize,
}

/// Payload of one fault-injected serve event: a request completion, a
/// disk health transition crossing a schedule boundary, or a scheduled
/// retry of a request that found no live copy at issue time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ServeEventKind {
    /// A request finished; its latency feeds the sampling ring.
    Completion {
        /// Arrival-to-completion latency, ms.
        latency_ms: f64,
    },
    /// A disk crossed a fault-schedule boundary; its health state is
    /// recomputed from the schedule at the event's time.
    Transition {
        /// The disk whose state changes.
        disk: u32,
    },
    /// A request with no live copy retries after jittered backoff.
    Retry {
        /// Arrival index of the request.
        query: u64,
        /// Attempt number of the *re-issue* (1 = first retry).
        attempt: u32,
    },
    /// A shared-scan batch window closes: every query queued since the
    /// window opened is merged into one deduplicated schedule and issued.
    Flush,
}

/// Configuration of a fault-injected streaming serve run, extending
/// [`ServeConfig`] with admission control and retry scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DegradedServeConfig {
    /// Sampling and windowing, exactly as in the fault-free path.
    pub serve: ServeConfig,
    /// Admission-control bound on in-flight requests: arrivals past the
    /// bound are *shed* (a typed outcome, excluded from latency stats)
    /// instead of growing the queue without bound. `0` disables
    /// shedding.
    pub max_in_flight: usize,
    /// Timeout and retry budget. `timeout_units × transfer_ms` is the
    /// per-hop failover penalty under [`ReplicaPolicy::FailoverOnly`]
    /// and the base of the exponential retry backoff.
    pub retry: RetryPolicy,
    /// Seed of the deterministic retry jitter (see [`retry_jitter01`]).
    pub seed: u64,
}

/// Aggregate results of one fault-injected serve run: the fault-free
/// shaped aggregates plus the availability accounting. Every arrival is
/// exactly one of served, shed, or lost.
#[derive(Clone, Debug)]
pub struct DegradedServeReport {
    /// The fault-free-shaped aggregates; with a healthy schedule, one
    /// replica, [`ReplicaPolicy::PrimaryOnly`], and shedding disabled
    /// this is bit-identical to the plain streaming serve on the same
    /// inputs.
    pub serve: ServeReport,
    /// Requests that completed.
    pub served: u64,
    /// Requests refused at admission (in-flight bound reached).
    pub shed: u64,
    /// Requests that exhausted their retries without finding a live
    /// copy.
    pub lost: u64,
    /// Retry events scheduled (jittered exponential backoff).
    pub retries: u64,
    /// Timed-out batch attempts paid while failing over along the chain
    /// (only [`ReplicaPolicy::FailoverOnly`] discovers failures by
    /// timeout).
    pub timeouts: u64,
    /// Batches served by a non-primary copy.
    pub failovers: u64,
    /// Disk health transitions processed from the fault schedule.
    pub transitions: u64,
}

impl DegradedServeReport {
    /// Fraction of arrivals served, in `[0, 1]` (1.0 for an empty run).
    pub fn availability(&self) -> f64 {
        let offered = self.served + self.shed + self.lost;
        if offered == 0 {
            1.0
        } else {
            self.served as f64 / offered as f64
        }
    }
}

/// Configuration of a shared-scan streaming serve run: the plain
/// sampling/window knobs plus the batch window and the replica fan-out of
/// merged schedules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SharedServeConfig {
    /// Sampling and windowing, exactly as in the unshared path.
    pub serve: ServeConfig,
    /// Length of the merge window, ms of logical time: the first arrival
    /// of a window schedules a flush `batch_window_ms` later, and every
    /// arrival before the flush joins the window's merged schedule. `0`
    /// disables sharing — the run is bit-identical to the unshared path.
    pub batch_window_ms: f64,
    /// Chain replicas per bucket (`r`); merged reads may be served by any
    /// of the `1 + r` copies, per `policy`.
    pub replicas: u32,
    /// How merged per-disk batches pick among copies.
    /// [`ReplicaPolicy::Spread`] splits each batch's pages across all
    /// copies; the whole-batch policies route batches like the degraded
    /// path routes queries.
    pub policy: ReplicaPolicy,
}

impl Default for SharedServeConfig {
    fn default() -> Self {
        SharedServeConfig {
            serve: ServeConfig::default(),
            batch_window_ms: 0.0,
            replicas: 0,
            policy: ReplicaPolicy::Spread,
        }
    }
}

/// Aggregate results of one shared-scan serve run: the plain-shaped
/// aggregates plus the sharing accounting. `pages` in the embedded report
/// counts *deduplicated* reads actually issued; `pages_saved` is the
/// duplicate I/O that merging eliminated.
#[derive(Clone, Debug)]
pub struct SharedServeReport {
    /// The plain-shaped aggregates; with a zero batch window this is
    /// bit-identical to the unshared path on the same inputs.
    pub serve: ServeReport,
    /// Batch windows flushed (0 with sharing disabled).
    pub windows: u64,
    /// Queries that shared their window with at least one other query.
    pub merged_queries: u64,
    /// Duplicate pages eliminated by merging (sum over windows of member
    /// plan sizes minus the merged schedule's size).
    pub pages_saved: u64,
}

/// Deterministic retry jitter in `[0, 1)`: a splitmix64 finalizer over
/// `(seed, query, attempt)`. A pure function of its inputs, so retry
/// schedules are byte-identical at any thread count.
pub(crate) fn retry_jitter01(seed: u64, query: u64, attempt: u32) -> f64 {
    decluster_methods::splitmix64_unit(
        seed ^ query.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 32),
    )
}

/// One disk a planned query region touches: the disk, its page count,
/// and the batch's service time there, costed once when the run's plan
/// table is filled. 16 bytes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlanEntry {
    pub(crate) disk: u32,
    pub(crate) pages: u32,
    pub(crate) service_ms: f64,
}

/// Reusable per-run buffers for every serving loop: the cross-query
/// [`PlanCache`] of compiled corner plans (amortizes plan compilation
/// across repeated query shapes within a run), the per-query count
/// histogram, the streaming loops' per-run plan table, the FCFS queue
/// state, the latency vector, the event heap, and the sampling window. One
/// instance per worker thread makes every loop allocation-free per
/// event once the buffers have grown to the working-set size. The
/// degraded serve loop adds its own typed event heap, the per-disk
/// health vector, and the per-query replica targets.
#[derive(Debug, Default)]
pub struct LoopScratch {
    pub(crate) plans: PlanCache,
    pub(crate) hist: Vec<u64>,
    /// Sparse plan table of the streaming loops: row `q` is
    /// `plan[plan_rows[q]..plan_rows[q + 1]]`, one entry per disk query
    /// region `q` touches, in disk order, filled once per run by
    /// [`ServingEngine::plan_queries`].
    pub(crate) plan: Vec<PlanEntry>,
    /// Row offsets into `plan` (one more than the rows).
    pub(crate) plan_rows: Vec<usize>,
    /// Total pages of each planned region.
    pub(crate) plan_pages: Vec<u64>,
    pub(crate) disk_free_at: Vec<f64>,
    pub(crate) disk_busy_ms: Vec<f64>,
    pub(crate) latencies: Vec<f64>,
    pub(crate) events: EventHeap<f64>,
    pub(crate) ring: LatencyRing,
    pub(crate) sorted: Vec<f64>,
    pub(crate) samples: Vec<ServeSample>,
    pub(crate) fault_events: EventHeap<ServeEventKind>,
    pub(crate) disk_state: Vec<DiskState>,
    pub(crate) targets: Vec<u32>,
    pub(crate) batch: Vec<(u64, f64)>,
    pub(crate) shared: decluster_methods::SharedScan,
}

impl LoopScratch {
    /// Fresh (empty) buffers; they grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mid-run samples of the most recent serve run (empty for the
    /// closed/open/degraded loops and for runs with sampling disabled).
    pub fn samples(&self) -> &[ServeSample] {
        &self.samples
    }

    pub(crate) fn begin(&mut self, m: usize, queries: usize) {
        // Cleared per run (capacity retained) so shape-cache hit/miss
        // counts are a pure function of the run's query sequence —
        // byte-identical at any thread count and cold vs warm.
        self.plans.clear();
        self.disk_free_at.clear();
        self.disk_free_at.resize(m, 0.0);
        self.disk_busy_ms.clear();
        self.disk_busy_ms.resize(m, 0.0);
        self.latencies.clear();
        self.latencies.reserve(queries);
        self.events.clear();
        self.samples.clear();
    }

    /// Extra setup for the shared-scan serve loop: clears the typed event
    /// heap, the batch membership list, and the merge accumulator.
    pub(crate) fn begin_shared(&mut self, m: usize) {
        self.fault_events.clear();
        self.batch.clear();
        self.shared.begin(m);
    }

    /// Extra setup for the degraded serve loop: clears the typed event
    /// heap, snapshots every disk's health at time 0, and sizes the
    /// replica-target buffer.
    pub(crate) fn begin_degraded(&mut self, m: usize, schedule: &FaultSchedule) {
        self.fault_events.clear();
        self.disk_state.clear();
        self.disk_state
            .extend((0..m as u32).map(|d| schedule.state_at(d, 0)));
        self.targets.clear();
        self.targets.resize(m, 0);
    }
}

/// A directory's serving core: the cached [`PlanCounts`] kernel plus the
/// static load vector, with the FCFS fan-out step every loop shares.
/// Build once per directory (the kernel build walks the grid once); the
/// engine is immutable and `Sync`, so parallel sweeps share one engine
/// per method across worker threads, each worker carrying its own
/// [`LoopScratch`].
#[derive(Clone, Debug)]
pub struct ServingEngine {
    pub(crate) counts: PlanCounts,
    pub(crate) loads: Vec<u64>,
}

impl ServingEngine {
    /// Builds the count kernel for `dir` and snapshots its load vector.
    pub fn new(dir: &GridDirectory) -> Self {
        ServingEngine {
            counts: PlanCounts::build(dir),
            loads: dir.load_vector(),
        }
    }

    /// Warm-start constructor: adopts a previously compiled kernel
    /// (e.g. loaded from a persist-v3 [`decluster_methods::KernelCache`]
    /// image) instead of building one, so the engine reaches its first
    /// scored query with zero build-phase work. `None` behaves like
    /// [`ServingEngine::new`] minus the kernel (bucket-walk fallback).
    ///
    /// # Panics
    /// Panics if the kernel's disk count disagrees with the directory's.
    pub fn with_kernel(dir: &GridDirectory, kernel: Option<DiskCounts>) -> Self {
        ServingEngine {
            counts: PlanCounts::with_kernel(dir, kernel),
            loads: dir.load_vector(),
        }
    }

    /// The engine's count kernel (for exporting into a
    /// [`decluster_methods::KernelCache`]).
    pub fn counts(&self) -> &PlanCounts {
        &self.counts
    }

    /// Disks (`M`).
    pub fn num_disks(&self) -> usize {
        self.loads.len()
    }

    /// Whether queries are served by the prefix-sum kernel (false means
    /// the grid was too large for a table and the engine walks buckets).
    pub fn kernel_backed(&self) -> bool {
        self.counts.kernel_backed()
    }

    /// Per-disk page counts of `region` into `out` via the cached
    /// kernel, consulting the cross-query corner-plan cache first;
    /// returns the total pages touched.
    pub(crate) fn counts_into(
        &self,
        region: &BucketRegion,
        plans: &mut PlanCache,
        out: &mut Vec<u64>,
    ) -> u64 {
        self.counts.counts_into_cached(region, plans, out)
    }

    /// Plans a streaming run once: arrival `i` issues query region
    /// `i % queries.len()`, so the loops need only the first
    /// `min(n, queries.len())` regions. Row `q` of `ls.plan` receives
    /// one entry per disk region `q` touches, with its page count and
    /// its batch service time under `params`, and `ls.plan_pages[q]`
    /// the region's total, through the same [`PlanCache`]-backed kernel
    /// the closed loops call per query — one cache probe per planned
    /// region. The entry buffer is sized once per run from
    /// `Σ min(|Q|, M)`; every buffer keeps its capacity across runs.
    pub(crate) fn plan_queries(
        &self,
        params: &DiskParams,
        queries: &[BucketRegion],
        n: usize,
        ls: &mut LoopScratch,
    ) {
        let planned = &queries[..queries.len().min(n)];
        let m = self.loads.len() as u64;
        let bound: usize = planned
            .iter()
            .map(|r| r.num_buckets().min(m) as usize)
            .sum();
        ls.plan.clear();
        ls.plan.reserve(bound);
        ls.plan_rows.clear();
        ls.plan_rows.push(0);
        ls.plan_pages.clear();
        for region in planned {
            let pages = self
                .counts
                .counts_into_cached(region, &mut ls.plans, &mut ls.hist);
            for (d, &count) in ls.hist.iter().enumerate().filter(|(_, &c)| c > 0) {
                ls.plan.push(PlanEntry {
                    disk: d as u32,
                    // A `GridDirectory` holds every page in memory, so
                    // no disk's count comes near 2^32.
                    pages: count as u32,
                    service_ms: params.batch_ms_counts(count, self.loads[d]),
                });
            }
            ls.plan_rows.push(ls.plan.len());
            ls.plan_pages.push(pages);
        }
    }

    /// Static load (pages stored) of disk `d`.
    pub(crate) fn load_of(&self, d: usize) -> u64 {
        self.loads[d]
    }

    /// The FCFS fan-out step shared by every loop: issues one query's
    /// per-disk batches, given as `(disk, service ms)` pairs in disk
    /// order, against the disk queues and returns its completion time.
    /// `batches` / `queued_batches` accumulate only when `record` is
    /// set, exactly as the metered loops always did.
    #[inline]
    pub(crate) fn fan_out(
        issue_at: f64,
        batches_ms: impl IntoIterator<Item = (usize, f64)>,
        disk_free_at: &mut [f64],
        disk_busy_ms: &mut [f64],
        record: bool,
        batches: &mut u64,
        queued_batches: &mut u64,
    ) -> f64 {
        let mut completion = issue_at;
        for (d, service) in batches_ms {
            let start = issue_at.max(disk_free_at[d]);
            disk_free_at[d] = start + service;
            disk_busy_ms[d] += service;
            completion = completion.max(start + service);
            if record {
                *batches += 1;
                if start > issue_at {
                    *queued_batches += 1;
                }
            }
        }
        completion
    }

    /// Streaming open-loop serve: one request per entry of `arrivals_ms`
    /// (non-decreasing logical times), each replaying the next query of
    /// `queries` round-robin. Arrival events interleave with completion
    /// events through the heap (completions at a tied time process
    /// first), mid-run state is sampled every
    /// [`ServeConfig::sample_every_ms`], and the aggregate report carries
    /// exact p50/p95/p99 over all latencies.
    ///
    /// Each distinct region is planned and costed once per run
    /// ([`ServingEngine::plan_queries`]); an arrival walks its sparse
    /// row of the plan table and fans it out FCFS, the same float
    /// sequence as planning it on arrival. Reach it through
    /// [`crate::ServeSpec::open`], which rejects an empty `queries` and
    /// arrival times that are not finite and non-decreasing before the
    /// loop starts.
    pub(crate) fn serve_core(
        &self,
        params: &DiskParams,
        queries: &[BucketRegion],
        arrivals_ms: &[f64],
        cfg: &ServeConfig,
        obs: &Obs,
        ls: &mut LoopScratch,
    ) -> ServeReport {
        let record = obs.enabled();
        let m = self.loads.len();
        let meters = record.then(|| LoopMeters::new(obs, "serve", m));
        let n = arrivals_ms.len();
        ls.begin(m, n);
        self.plan_queries(params, queries, n, ls);
        let rows = ls.plan_pages.len();
        ls.ring.reset(cfg.window);
        ls.sorted.clear();
        let sample_every = if cfg.sample_every_ms > 0.0 {
            cfg.sample_every_ms
        } else {
            f64::INFINITY
        };
        let mut next_sample = sample_every;
        let mut makespan: f64 = 0.0;
        let mut batches = 0u64;
        let mut queued_batches = 0u64;
        let mut pages = 0u64;
        let mut events = 0u64;
        let mut completed = 0u64;
        let mut next_arrival = 0usize;

        while next_arrival < n || !ls.events.is_empty() {
            let arrival_t = if next_arrival < n {
                arrivals_ms[next_arrival]
            } else {
                f64::INFINITY
            };
            let take_completion = ls.events.peek_time().is_some_and(|t| t <= arrival_t);
            let event_t = if take_completion {
                ls.events.peek_time().expect("non-empty heap")
            } else {
                arrival_t
            };
            // Samples fire strictly before any event at or past their
            // boundary, so each snapshot reflects the state just before
            // its logical time.
            while next_sample <= event_t {
                let tail_ms = {
                    ls.sorted.clear();
                    ls.sorted.extend_from_slice(ls.ring.as_slice());
                    Quantiles::of_unsorted(&mut ls.sorted)
                };
                ls.samples.push(ServeSample {
                    at_ms: next_sample,
                    in_flight: ls.events.len(),
                    busy_disks: ls.disk_free_at.iter().filter(|&&f| f > next_sample).count(),
                    completed,
                    tail_ms,
                });
                next_sample += sample_every;
            }
            if take_completion {
                let ev = ls.events.pop().expect("non-empty heap");
                ls.ring.push(ev.payload);
                completed += 1;
            } else {
                let issue_at = arrival_t;
                let q = next_arrival % rows;
                next_arrival += 1;
                pages += ls.plan_pages[q];
                let row = &ls.plan[ls.plan_rows[q]..ls.plan_rows[q + 1]];
                let completion = Self::fan_out(
                    issue_at,
                    row.iter().map(|e| (e.disk as usize, e.service_ms)),
                    &mut ls.disk_free_at,
                    &mut ls.disk_busy_ms,
                    record,
                    &mut batches,
                    &mut queued_batches,
                );
                ls.latencies.push(completion - issue_at);
                makespan = makespan.max(completion);
                ls.events.push(completion, completion - issue_at);
            }
            events += 1;
        }

        // Drained unconditionally so stats from an obs-disabled run can
        // never leak into a later metered run sharing this scratch.
        let (shape_hits, shape_misses) = ls.plans.drain_stats();
        if let Some(meters) = &meters {
            meters.record(n, batches, queued_batches, &ls.disk_busy_ms, &ls.latencies);
            obs.gauge_max("serve.peak_in_flight", ls.events.peak_len() as u64);
            obs.counter_add("serve.events", events);
            obs.counter_add("serve.pages", pages);
            obs.counter_add("serve.samples", ls.samples.len() as u64);
            obs.counter_add("kernel.shape_cache_hits", shape_hits);
            obs.counter_add("kernel.shape_cache_misses", shape_misses);
        }
        let report = assemble_report(n, 0, makespan, m, &ls.disk_busy_ms, &mut ls.latencies);
        if obs.trace_enabled() {
            obs.emit(
                TraceEvent::new("serve_done")
                    .with("requests", n)
                    .with("events", events)
                    .with("peak_in_flight", ls.events.peak_len())
                    .with("makespan_ms", report.makespan_ms),
            );
        }
        ServeReport {
            report,
            events,
            peak_in_flight: ls.events.peak_len(),
            pages,
            samples: ls.samples.len(),
        }
    }

    /// Streaming serve under a mid-run fault schedule with r-way chained
    /// replication: [`FaultSchedule`] boundaries become heap events
    /// (fail-stop, recovery, gray-slow), each batch reads from the copy
    /// `policy` selects among the live ones, requests with no reachable
    /// live copy retry after jittered exponential backoff (bounded by
    /// the retry policy), and arrivals past `cfg.max_in_flight` are shed
    /// at admission. The schedule's logical clock is milliseconds — the
    /// same clock the arrival stream uses.
    ///
    /// Deterministic: disk health is a pure function of simulated time,
    /// retry jitter a pure function of `(seed, query, attempt)`, and all
    /// events flow through one deterministically tie-broken heap, so the
    /// report is bit-identical at any thread count. With a healthy
    /// schedule, `replicas = 1`, [`ReplicaPolicy::PrimaryOnly`], and
    /// shedding disabled, the embedded [`ServeReport`] is bit-identical
    /// to the plain streaming serve on the same inputs.
    ///
    /// Batch service uses the serving disk's health at issue time (a
    /// batch started before a boundary is not interrupted), and a
    /// query's latency is measured from its *arrival*, so retried
    /// requests carry their backoff delay in the tail.
    ///
    /// # Errors
    /// [`SimError::ScheduleMismatch`] when the schedule's disk count
    /// differs from the engine's.
    ///
    /// Arrivals and retries read their query's row of the run's plan
    /// table, exactly like the plain streaming serve.
    ///
    /// # Panics
    /// Panics if `replicas >= M` (CLI and constructors validate
    /// upstream). Reach it through [`crate::ServeSpec::faults`], which
    /// also validates `queries` and `arrivals_ms`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_degraded_core(
        &self,
        params: &DiskParams,
        queries: &[BucketRegion],
        arrivals_ms: &[f64],
        schedule: &FaultSchedule,
        replicas: u32,
        policy: ReplicaPolicy,
        cfg: &DegradedServeConfig,
        obs: &Obs,
        ls: &mut LoopScratch,
    ) -> Result<DegradedServeReport> {
        let m = self.loads.len();
        if schedule.num_disks() as usize != m {
            return Err(SimError::ScheduleMismatch {
                schedule_disks: schedule.num_disks(),
                experiment_disks: m as u32,
            });
        }
        assert!(
            (replicas as usize) < m,
            "replica count {replicas} >= M = {m}"
        );
        let record = obs.enabled();
        let meters = record.then(|| LoopMeters::new(obs, "serve", m));
        let n = arrivals_ms.len();
        ls.begin(m, n);
        self.plan_queries(params, queries, n, ls);
        ls.begin_degraded(m, schedule);
        ls.ring.reset(cfg.serve.window);
        ls.sorted.clear();
        // Every schedule boundary becomes a transition event; on pop the
        // disk's state is recomputed from the schedule, which composes
        // overlapping windows correctly.
        for event in schedule.events() {
            match *event {
                FaultEvent::FailStop { disk, at } => {
                    ls.fault_events
                        .push(at as f64, ServeEventKind::Transition { disk });
                }
                FaultEvent::Transient { disk, from, until }
                | FaultEvent::Slow {
                    disk, from, until, ..
                } => {
                    ls.fault_events
                        .push(from as f64, ServeEventKind::Transition { disk });
                    ls.fault_events
                        .push(until as f64, ServeEventKind::Transition { disk });
                }
            }
        }
        let timeout_ms = cfg.retry.timeout_units as f64 * params.transfer_ms;
        let sample_every = if cfg.serve.sample_every_ms > 0.0 {
            cfg.serve.sample_every_ms
        } else {
            f64::INFINITY
        };
        let mut next_sample = sample_every;
        let mut c = DegradedCounters::default();
        let mut events = 0u64;
        let mut completed = 0u64;
        let mut shed = 0u64;
        let mut transitions = 0u64;
        let mut next_arrival = 0usize;

        while next_arrival < n || !ls.fault_events.is_empty() {
            let arrival_t = if next_arrival < n {
                arrivals_ms[next_arrival]
            } else {
                f64::INFINITY
            };
            let take_event = ls.fault_events.peek_time().is_some_and(|t| t <= arrival_t);
            let event_t = if take_event {
                ls.fault_events.peek_time().expect("non-empty heap")
            } else {
                arrival_t
            };
            while next_sample <= event_t {
                let tail_ms = {
                    ls.sorted.clear();
                    ls.sorted.extend_from_slice(ls.ring.as_slice());
                    Quantiles::of_unsorted(&mut ls.sorted)
                };
                ls.samples.push(ServeSample {
                    at_ms: next_sample,
                    in_flight: c.in_flight,
                    busy_disks: ls.disk_free_at.iter().filter(|&&f| f > next_sample).count(),
                    completed,
                    tail_ms,
                });
                next_sample += sample_every;
            }
            if take_event {
                let ev = ls.fault_events.pop().expect("non-empty heap");
                match ev.payload {
                    ServeEventKind::Completion { latency_ms } => {
                        ls.ring.push(latency_ms);
                        completed += 1;
                        c.in_flight -= 1;
                    }
                    ServeEventKind::Transition { disk } => {
                        ls.disk_state[disk as usize] = schedule.state_at(disk, ev.time as u64);
                        transitions += 1;
                    }
                    ServeEventKind::Retry { query, attempt } => {
                        self.issue_degraded(
                            params,
                            arrivals_ms,
                            replicas,
                            policy,
                            timeout_ms,
                            &cfg.retry,
                            cfg.seed,
                            query,
                            ev.time,
                            attempt,
                            record,
                            ls,
                            &mut c,
                        );
                    }
                    ServeEventKind::Flush => {
                        unreachable!("batch flushes belong to the shared-scan loop")
                    }
                }
            } else {
                let i = next_arrival as u64;
                next_arrival += 1;
                if cfg.max_in_flight > 0 && c.in_flight >= cfg.max_in_flight {
                    shed += 1;
                } else {
                    c.in_flight += 1;
                    c.peak_in_flight = c.peak_in_flight.max(c.in_flight);
                    self.issue_degraded(
                        params,
                        arrivals_ms,
                        replicas,
                        policy,
                        timeout_ms,
                        &cfg.retry,
                        cfg.seed,
                        i,
                        arrival_t,
                        0,
                        record,
                        ls,
                        &mut c,
                    );
                }
            }
            events += 1;
        }

        let (shape_hits, shape_misses) = ls.plans.drain_stats();
        if let Some(meters) = &meters {
            meters.record(
                n,
                c.batches,
                c.queued_batches,
                &ls.disk_busy_ms,
                &ls.latencies,
            );
            obs.gauge_max("serve.peak_in_flight", c.peak_in_flight as u64);
            obs.counter_add("serve.events", events);
            obs.counter_add("serve.pages", c.pages);
            obs.counter_add("serve.samples", ls.samples.len() as u64);
            obs.counter_add("kernel.shape_cache_hits", shape_hits);
            obs.counter_add("kernel.shape_cache_misses", shape_misses);
            obs.counter_add("serve.retries", c.retries);
            obs.counter_add("serve.timeouts", c.timeouts);
            obs.counter_add("serve.sheds", shed);
            obs.counter_add("serve.failovers", c.failovers);
            obs.counter_add("serve.lost", c.lost);
            obs.counter_add("faults.transitions", transitions);
        }
        let report = assemble_report(n, 0, c.makespan, m, &ls.disk_busy_ms, &mut ls.latencies);
        if obs.trace_enabled() {
            obs.emit(
                TraceEvent::new("degraded_serve_done")
                    .with("requests", n)
                    .with("events", events)
                    .with("served", completed)
                    .with("shed", shed)
                    .with("lost", c.lost)
                    .with("retries", c.retries)
                    .with("failovers", c.failovers)
                    .with("makespan_ms", report.makespan_ms),
            );
        }
        Ok(DegradedServeReport {
            serve: ServeReport {
                report,
                events,
                peak_in_flight: c.peak_in_flight,
                pages: c.pages,
                samples: ls.samples.len(),
            },
            served: completed,
            shed,
            lost: c.lost,
            retries: c.retries,
            timeouts: c.timeouts,
            failovers: c.failovers,
            transitions,
        })
    }

    /// One issue attempt of the degraded serve loop: picks a serving
    /// copy per touched disk, fans out if every batch has one, and
    /// otherwise schedules a retry (or declares the request lost).
    #[allow(clippy::too_many_arguments)]
    fn issue_degraded(
        &self,
        params: &DiskParams,
        arrivals_ms: &[f64],
        replicas: u32,
        policy: ReplicaPolicy,
        timeout_ms: f64,
        retry: &RetryPolicy,
        seed: u64,
        query: u64,
        now: f64,
        attempt: u32,
        record: bool,
        ls: &mut LoopScratch,
        c: &mut DegradedCounters,
    ) {
        let m = self.loads.len();
        let q = query as usize % ls.plan_pages.len();
        let row = &ls.plan[ls.plan_rows[q]..ls.plan_rows[q + 1]];
        // Pass 1: pick a serving copy for every touched disk, without
        // touching queue state. Any batch with no live copy makes the
        // whole request unserviceable right now.
        let mut serviceable = true;
        for e in row {
            let d = e.disk as usize;
            match select_copy(d, query, replicas, policy, &ls.disk_state, &ls.disk_free_at) {
                Some(s) => ls.targets[d] = s,
                None => {
                    serviceable = false;
                    break;
                }
            }
        }
        if !serviceable {
            if attempt < retry.max_retries {
                // Exponential backoff with deterministic jitter: the
                // request waits out (hopefully) a transient window.
                let backoff = timeout_ms
                    * (1u64 << attempt.min(52)) as f64
                    * (1.0 + retry_jitter01(seed, query, attempt));
                ls.fault_events.push(
                    now + backoff,
                    ServeEventKind::Retry {
                        query,
                        attempt: attempt + 1,
                    },
                );
                c.retries += 1;
            } else {
                c.lost += 1;
                c.in_flight -= 1;
            }
            return;
        }
        // Pass 2: fan out to the chosen copies, FCFS per disk. Each batch
        // is costed on the copy that serves it, not on the primary the
        // plan table costed it for.
        c.pages += ls.plan_pages[q];
        let mut completion = now;
        for e in row {
            let d = e.disk as usize;
            let s = ls.targets[d] as usize;
            let hops = (s + m - d) % m;
            let base = if policy == ReplicaPolicy::FailoverOnly && hops > 0 {
                // Failures are discovered by timing out once per dead
                // copy skipped along the chain.
                c.timeouts += hops as u64;
                now + timeout_ms * hops as f64
            } else {
                now
            };
            let start = base.max(ls.disk_free_at[s]);
            let service = params.batch_ms_counts(u64::from(e.pages), self.loads[s])
                * ls.disk_state[s].latency_factor();
            ls.disk_free_at[s] = start + service;
            ls.disk_busy_ms[s] += service;
            completion = completion.max(start + service);
            if hops > 0 {
                c.failovers += 1;
            }
            if record {
                c.batches += 1;
                if start > now {
                    c.queued_batches += 1;
                }
            }
        }
        let latency = completion - arrivals_ms[query as usize];
        ls.latencies.push(latency);
        c.makespan = c.makespan.max(completion);
        ls.fault_events.push(
            completion,
            ServeEventKind::Completion {
                latency_ms: latency,
            },
        );
    }

    /// Streaming shared-scan serve: arrivals are grouped into batch
    /// windows of `cfg.batch_window_ms` of logical time. The first
    /// arrival of a window opens it and schedules a [`ServeEventKind::Flush`]
    /// one window later; every arrival before the flush joins the window.
    /// At flush time the members' I/O plans are merged into one
    /// deduplicated per-disk schedule (a [`decluster_methods::SharedScan`]
    /// over `dir`'s flat [`decluster_grid::IoPlan`] arena), issued once
    /// across the `1 + r` replica copies per `cfg.policy`, and the
    /// completion fans back to every member — each latency measured from
    /// its own arrival, so queueing inside the window shows up in the
    /// tail.
    ///
    /// With `batch_window_ms == 0` the run delegates to the unshared
    /// loop and is bit-identical to it. The shared path is healthy-mode
    /// only; `ServeSpec` rejects sharing combined with a fault schedule.
    ///
    /// # Panics
    /// Panics if `dir`'s disk count differs from the engine's, if
    /// `cfg.replicas >= M`, or if the window is negative or non-finite
    /// (all validated upstream by `ServeSpec`, which also validates
    /// `queries` and `arrivals_ms`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_shared_core(
        &self,
        dir: &GridDirectory,
        params: &DiskParams,
        queries: &[BucketRegion],
        arrivals_ms: &[f64],
        cfg: &SharedServeConfig,
        obs: &Obs,
        ls: &mut LoopScratch,
    ) -> SharedServeReport {
        if cfg.batch_window_ms == 0.0 {
            let serve = self.serve_core(params, queries, arrivals_ms, &cfg.serve, obs, ls);
            return SharedServeReport {
                serve,
                windows: 0,
                merged_queries: 0,
                pages_saved: 0,
            };
        }
        assert!(
            cfg.batch_window_ms.is_finite() && cfg.batch_window_ms > 0.0,
            "a nonzero batch window must be finite and positive"
        );
        let m = self.loads.len();
        assert_eq!(
            dir.num_disks() as usize,
            m,
            "directory disk count differs from the engine's"
        );
        assert!(
            (cfg.replicas as usize) < m,
            "replica count {} >= M = {m}",
            cfg.replicas
        );
        let record = obs.enabled();
        let meters = record.then(|| LoopMeters::new(obs, "serve", m));
        let n = arrivals_ms.len();
        ls.begin(m, n);
        ls.begin_shared(m);
        ls.ring.reset(cfg.serve.window);
        ls.sorted.clear();
        let w = cfg.batch_window_ms;
        let sample_every = if cfg.serve.sample_every_ms > 0.0 {
            cfg.serve.sample_every_ms
        } else {
            f64::INFINITY
        };
        let mut next_sample = sample_every;
        let mut makespan: f64 = 0.0;
        let mut batches = 0u64;
        let mut queued_batches = 0u64;
        let mut pages = 0u64;
        let mut pages_saved = 0u64;
        let mut windows = 0u64;
        let mut merged_queries = 0u64;
        let mut events = 0u64;
        let mut completed = 0u64;
        let mut in_flight = 0usize;
        let mut peak_in_flight = 0usize;
        let mut next_arrival = 0usize;

        while next_arrival < n || !ls.fault_events.is_empty() {
            let arrival_t = if next_arrival < n {
                arrivals_ms[next_arrival]
            } else {
                f64::INFINITY
            };
            let take_event = ls.fault_events.peek_time().is_some_and(|t| t <= arrival_t);
            let event_t = if take_event {
                ls.fault_events.peek_time().expect("non-empty heap")
            } else {
                arrival_t
            };
            while next_sample <= event_t {
                let tail_ms = {
                    ls.sorted.clear();
                    ls.sorted.extend_from_slice(ls.ring.as_slice());
                    Quantiles::of_unsorted(&mut ls.sorted)
                };
                ls.samples.push(ServeSample {
                    at_ms: next_sample,
                    in_flight,
                    busy_disks: ls.disk_free_at.iter().filter(|&&f| f > next_sample).count(),
                    completed,
                    tail_ms,
                });
                next_sample += sample_every;
            }
            if take_event {
                let ev = ls.fault_events.pop().expect("non-empty heap");
                match ev.payload {
                    ServeEventKind::Completion { latency_ms } => {
                        ls.ring.push(latency_ms);
                        completed += 1;
                        in_flight -= 1;
                    }
                    ServeEventKind::Flush => {
                        let members = ls.batch.len();
                        debug_assert!(members > 0, "a flush always closes a non-empty window");
                        windows += 1;
                        if members > 1 {
                            merged_queries += members as u64;
                        }
                        // Merge the members' plans into one deduplicated
                        // schedule, attributing saved pages.
                        let mut own = 0u64;
                        {
                            let (shared, batch) = (&mut ls.shared, &ls.batch);
                            shared.begin(m);
                            for &(qi, _) in batch {
                                let att = shared.absorb(dir, &queries[qi as usize % queries.len()]);
                                own += att.own_pages;
                            }
                        }
                        let fresh = ls.shared.merged().total_pages() as u64;
                        pages += fresh;
                        pages_saved += own - fresh;
                        let route_key = ls.batch.first().map_or(0, |&(q, _)| q);
                        let completion = self.fan_out_merged(
                            params,
                            ev.time,
                            ls.shared.merged(),
                            cfg.replicas,
                            cfg.policy,
                            route_key,
                            &mut ls.disk_free_at,
                            &mut ls.disk_busy_ms,
                            record,
                            &mut batches,
                            &mut queued_batches,
                        );
                        makespan = makespan.max(completion);
                        // Fan the shared completion back to every member.
                        for i in 0..ls.batch.len() {
                            let (_, arrived) = ls.batch[i];
                            let latency = completion - arrived;
                            ls.latencies.push(latency);
                            ls.fault_events.push(
                                completion,
                                ServeEventKind::Completion {
                                    latency_ms: latency,
                                },
                            );
                        }
                        ls.batch.clear();
                    }
                    ServeEventKind::Transition { .. } | ServeEventKind::Retry { .. } => {
                        unreachable!("the shared-scan loop schedules no fault events")
                    }
                }
            } else {
                // An arrival joins the open window, or opens a new one
                // (scheduling its flush one window later).
                if ls.batch.is_empty() {
                    ls.fault_events.push(arrival_t + w, ServeEventKind::Flush);
                }
                ls.batch.push((next_arrival as u64, arrival_t));
                in_flight += 1;
                peak_in_flight = peak_in_flight.max(in_flight);
                next_arrival += 1;
            }
            events += 1;
        }

        if let Some(meters) = &meters {
            meters.record(n, batches, queued_batches, &ls.disk_busy_ms, &ls.latencies);
            obs.gauge_max("serve.peak_in_flight", peak_in_flight as u64);
            obs.counter_add("serve.events", events);
            obs.counter_add("serve.pages", pages);
            obs.counter_add("serve.samples", ls.samples.len() as u64);
            obs.counter_add("share.windows", windows);
            obs.counter_add("share.merged_queries", merged_queries);
            obs.counter_add("share.pages_saved", pages_saved);
        }
        let report = assemble_report(n, 0, makespan, m, &ls.disk_busy_ms, &mut ls.latencies);
        if obs.trace_enabled() {
            obs.emit(
                TraceEvent::new("shared_serve_done")
                    .with("requests", n)
                    .with("events", events)
                    .with("windows", windows)
                    .with("merged_queries", merged_queries)
                    .with("pages_saved", pages_saved)
                    .with("makespan_ms", report.makespan_ms),
            );
        }
        SharedServeReport {
            serve: ServeReport {
                report,
                events,
                peak_in_flight,
                pages,
                samples: ls.samples.len(),
            },
            windows,
            merged_queries,
            pages_saved,
        }
    }

    /// Issues one window's merged schedule across the replica chain: for
    /// each disk with merged pages, [`ReplicaPolicy::Spread`] splits the
    /// batch across all `1 + r` copies (page-granular balancing) while
    /// the whole-batch policies route it to one copy — primary for
    /// `PrimaryOnly`/`FailoverOnly` (the shared path is healthy-mode, so
    /// the primary is always live), the shortest queue for
    /// `NearestFreeQueue`, and a `route_key`-keyed rotation for
    /// `RoundRobin`. Returns the window's completion time.
    #[allow(clippy::too_many_arguments)]
    fn fan_out_merged(
        &self,
        params: &DiskParams,
        issue_at: f64,
        merged: &decluster_grid::IoPlan,
        replicas: u32,
        policy: ReplicaPolicy,
        route_key: u64,
        disk_free_at: &mut [f64],
        disk_busy_ms: &mut [f64],
        record: bool,
        batches: &mut u64,
        queued_batches: &mut u64,
    ) -> f64 {
        // One copy's FCFS batch service, shared by every policy arm.
        #[allow(clippy::too_many_arguments)]
        fn serve_on(
            params: &DiskParams,
            loads: &[u64],
            s: usize,
            count: u64,
            issue_at: f64,
            disk_free_at: &mut [f64],
            disk_busy_ms: &mut [f64],
            completion: &mut f64,
            record: bool,
            batches: &mut u64,
            queued_batches: &mut u64,
        ) {
            let start = issue_at.max(disk_free_at[s]);
            let service = params.batch_ms_counts(count, loads[s]);
            disk_free_at[s] = start + service;
            disk_busy_ms[s] += service;
            *completion = completion.max(start + service);
            if record {
                *batches += 1;
                if start > issue_at {
                    *queued_batches += 1;
                }
            }
        }
        let m = self.loads.len();
        let copies = u64::from(replicas) + 1;
        let mut completion = issue_at;
        for d in 0..m {
            let count = merged.disk_pages(d).len() as u64;
            if count == 0 {
                continue;
            }
            macro_rules! serve {
                ($s:expr, $count:expr) => {
                    serve_on(
                        params,
                        &self.loads,
                        $s,
                        $count,
                        issue_at,
                        disk_free_at,
                        disk_busy_ms,
                        &mut completion,
                        record,
                        batches,
                        queued_batches,
                    )
                };
            }
            if replicas == 0 {
                serve!(d, count);
                continue;
            }
            match policy {
                ReplicaPolicy::Spread => {
                    for j in 0..=replicas {
                        let share = count / copies + u64::from(u64::from(j) < count % copies);
                        if share == 0 {
                            continue;
                        }
                        serve!((d + j as usize) % m, share);
                    }
                }
                ReplicaPolicy::PrimaryOnly | ReplicaPolicy::FailoverOnly => {
                    serve!(d, count);
                }
                ReplicaPolicy::NearestFreeQueue => {
                    // First-minimal scan: ties go to the earliest chain
                    // position, matching `select_copy`'s tie-breaking.
                    let mut best = d;
                    for j in 1..=replicas as usize {
                        let s = (d + j) % m;
                        if disk_free_at[s] < disk_free_at[best] {
                            best = s;
                        }
                    }
                    serve!(best, count);
                }
                ReplicaPolicy::RoundRobin => {
                    serve!((d + (route_key % copies) as usize) % m, count);
                }
            }
        }
        completion
    }
}

/// Mutable counter block of one degraded serve run, threaded through
/// [`ServingEngine::issue_degraded`] so the issue step stays a single
/// borrow.
#[derive(Debug, Default)]
struct DegradedCounters {
    batches: u64,
    queued_batches: u64,
    pages: u64,
    retries: u64,
    timeouts: u64,
    failovers: u64,
    lost: u64,
    in_flight: usize,
    peak_in_flight: usize,
    makespan: f64,
}

/// Picks the chain copy that serves a batch whose primary is `d`, per
/// the replica-selection policy, or `None` when the policy cannot reach
/// a live copy. Pure function of the health/queue snapshots, resolved in
/// disk order by the caller — deterministic.
fn select_copy(
    d: usize,
    query: u64,
    replicas: u32,
    policy: ReplicaPolicy,
    disk_state: &[DiskState],
    disk_free_at: &[f64],
) -> Option<u32> {
    let m = disk_state.len();
    let copy = |j: u32| (d + j as usize) % m;
    let live = |j: &u32| disk_state[copy(*j)].is_live();
    if replicas == 0 {
        return live(&0).then_some(d as u32);
    }
    let j = match policy {
        ReplicaPolicy::PrimaryOnly => live(&0).then_some(0),
        ReplicaPolicy::FailoverOnly => (0..=replicas).find(live),
        ReplicaPolicy::NearestFreeQueue => (0..=replicas).filter(live).min_by(|&a, &b| {
            disk_free_at[copy(a)]
                .total_cmp(&disk_free_at[copy(b)])
                .then(a.cmp(&b))
        }),
        ReplicaPolicy::RoundRobin => {
            let mut live_copies = (0..=replicas).filter(live);
            let n_live = live_copies.clone().count() as u64;
            live_copies.nth((query % n_live.max(1)) as usize)
        }
        // At whole-batch granularity spreading degenerates to shortest
        // queue; the page-granular split lives in the shared-scan fan-out.
        ReplicaPolicy::Spread => (0..=replicas).filter(live).min_by(|&a, &b| {
            disk_free_at[copy(a)]
                .total_cmp(&disk_free_at[copy(b)])
                .then(a.cmp(&b))
        }),
    };
    j.map(|j| copy(j) as u32)
}

/// The fixed chunk length of [`sharded_arrivals`]. Chunk boundaries are
/// part of the deterministic contract: they depend only on `n`, never on
/// the thread count.
const ARRIVAL_CHUNK: usize = 1 << 16;

/// Arrival times for `n` requests drawn from `dist`, generated in
/// fixed-size chunks on the deterministic executor and merged by a
/// sequential prefix-sum reduction: chunk `c` draws its gaps from an RNG
/// seeded by `(seed, c)`, and chunk offsets accumulate left to right. The
/// output is byte-identical at any `threads`, which is what lets
/// million-client arrival streams be built in parallel without touching
/// the determinism contract.
pub fn sharded_arrivals(
    seed: u64,
    n: usize,
    dist: InterArrival,
    threads: usize,
    obs: &Obs,
) -> Vec<f64> {
    let chunks = n.div_ceil(ARRIVAL_CHUNK);
    let mut parts: Vec<Vec<f64>> = crate::exec::run_indexed(threads, chunks, obs, |c| {
        let mut rng = StdRng::seed_from_u64(crate::exec::derive_point_seed(seed, c as u64));
        let len = ARRIVAL_CHUNK.min(n - c * ARRIVAL_CHUNK);
        let mut t = 0.0;
        (0..len)
            .map(|_| {
                t += dist.sample_gap_ms(&mut rng);
                t
            })
            .collect()
    });
    if chunks == 1 {
        // A lone chunk's offset is 0.0 and `0.0 + t == t`: it is the
        // output as it stands, with no second copy.
        return parts.pop().expect("one chunk");
    }
    let mut out = Vec::with_capacity(n);
    let mut offset = 0.0;
    for part in parts {
        let last = part.last().copied().unwrap_or(0.0);
        out.extend(part.iter().map(|&t| offset + t));
        offset += last;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiuser::poisson_arrivals;
    use crate::workload::random_region;
    use decluster_grid::GridSpace;
    use decluster_methods::{DeclusteringMethod, Hcam};
    use proptest::prelude::*;

    #[test]
    fn heap_pops_in_time_order() {
        let mut h = EventHeap::new();
        for (t, p) in [(5.0, 'a'), (1.0, 'b'), (3.0, 'c'), (2.0, 'd'), (4.0, 'e')] {
            h.push(t, p);
        }
        let order: Vec<char> = std::iter::from_fn(|| h.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!['b', 'd', 'c', 'e', 'a']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut h = EventHeap::new();
        for i in 0..10 {
            h.push(7.0, i);
        }
        h.push(1.0, 99);
        let order: Vec<i32> = std::iter::from_fn(|| h.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![99, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn clear_resets_sequence_and_peak_but_keeps_capacity() {
        let mut h = EventHeap::new();
        for i in 0..100 {
            h.push(i as f64, ());
        }
        assert_eq!(h.peak_len(), 100);
        let cap = h.entries.capacity();
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.peak_len(), 0);
        assert_eq!(h.entries.capacity(), cap);
        assert_eq!(h.push(3.0, ()), 0, "sequence restarts after clear");
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = EventHeap::new();
        assert_eq!(h.peek_time(), None);
        h.push(2.0, ());
        h.push(1.0, ());
        assert_eq!(h.peek_time(), Some(1.0));
        assert_eq!(h.pop().unwrap().time, 1.0);
        assert_eq!(h.peek_time(), Some(2.0));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut h = EventHeap::new();
        h.push(1.0, ());
        h.push(2.0, ());
        h.pop();
        h.push(3.0, ());
        h.pop();
        h.pop();
        assert_eq!(h.peak_len(), 2);
        assert!(h.is_empty());
    }

    proptest! {
        /// Pop order equals a stable sort of the pushed events by time:
        /// the deterministic tie-breaking contract under random mixes
        /// with duplicate timestamps.
        #[test]
        fn pop_order_is_stable_sort_by_time(times in prop::collection::vec(0u32..16, 0..200)) {
            let mut h = EventHeap::new();
            for (i, &t) in times.iter().enumerate() {
                h.push(f64::from(t), i);
            }
            let popped: Vec<(f64, usize)> =
                std::iter::from_fn(|| h.pop()).map(|e| (e.time, e.payload)).collect();
            let mut expected: Vec<(f64, usize)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (f64::from(t), i))
                .collect();
            expected.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable: ties keep insertion order
            prop_assert_eq!(popped, expected);
        }

        /// Interleaved pushes and pops never violate time order among
        /// pops that happen after a given push set.
        #[test]
        fn interleaved_ops_stay_ordered(ops in prop::collection::vec(prop::option::of(0u32..8), 1..200)) {
            let mut h = EventHeap::new();
            let mut last_popped: Option<(f64, u64)> = None;
            for op in ops {
                match op {
                    Some(t) => { h.push(f64::from(t), ()); }
                    None => {
                        if let Some(e) = h.pop() {
                            if let Some((lt, ls)) = last_popped {
                                // Keys are totally ordered only among events
                                // present together; a later push can legally
                                // pop at an earlier time, so only assert the
                                // (time, seq) key is never duplicated.
                                prop_assert!(!(lt == e.time && ls == e.seq));
                            }
                            last_popped = Some((e.time, e.seq));
                        }
                    }
                }
            }
            // Draining the rest is fully ordered.
            let rest: Vec<(f64, u64)> =
                std::iter::from_fn(|| h.pop()).map(|e| (e.time, e.seq)).collect();
            prop_assert!(rest.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn latency_ring_overwrites_oldest() {
        let mut r = LatencyRing::default();
        r.reset(3);
        for v in [1.0, 2.0, 3.0] {
            r.push(v);
        }
        assert_eq!(r.as_slice(), &[1.0, 2.0, 3.0]);
        r.push(4.0);
        r.push(5.0);
        let mut w: Vec<f64> = r.as_slice().to_vec();
        w.sort_unstable_by(f64::total_cmp);
        assert_eq!(w, vec![3.0, 4.0, 5.0]);
        r.reset(3);
        assert!(r.as_slice().is_empty());
    }

    fn serving_setup() -> (GridSpace, ServingEngine, Vec<BucketRegion>) {
        let space = GridSpace::new_2d(32, 32).unwrap();
        let m = 8;
        let hcam = Hcam::new(&space, m).unwrap();
        let dir =
            decluster_grid::GridDirectory::build(space.clone(), m, |b| hcam.disk_of(b.as_slice()));
        let engine = ServingEngine::new(&dir);
        let mut rng = StdRng::seed_from_u64(11);
        let queries: Vec<BucketRegion> = (0..64)
            .map(|_| random_region(&mut rng, &space, &[4, 4]).unwrap())
            .collect();
        (space, engine, queries)
    }

    #[test]
    fn serve_counts_every_event_and_drains_the_heap() {
        let (_space, engine, queries) = serving_setup();
        let params = DiskParams::default();
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = poisson_arrivals(&mut rng, 200, 50.0);
        let mut ls = LoopScratch::new();
        let r = engine.serve_core(
            &params,
            &queries,
            &arrivals,
            &ServeConfig::default(),
            &Obs::disabled(),
            &mut ls,
        );
        assert_eq!(r.report.queries, 200);
        assert_eq!(r.events, 400, "one arrival + one completion per request");
        assert!(ls.events.is_empty(), "heap drains by the end of the run");
        assert!(r.peak_in_flight >= 1);
        assert!(r.pages > 0);
        assert_eq!(r.samples, 0, "sampling disabled by default");
        assert!(r.report.tail.p50 <= r.report.tail.p95);
        assert!(r.report.tail.p95 <= r.report.tail.p99);
        assert!(r.report.tail.p99 <= r.report.latency.max);
    }

    #[test]
    fn serve_samples_fire_at_logical_intervals() {
        let (_space, engine, queries) = serving_setup();
        let params = DiskParams::default();
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = poisson_arrivals(&mut rng, 400, 80.0);
        let cfg = ServeConfig {
            sample_every_ms: 250.0,
            window: 64,
        };
        let mut ls = LoopScratch::new();
        let r = engine.serve_core(
            &params,
            &queries,
            &arrivals,
            &cfg,
            &Obs::disabled(),
            &mut ls,
        );
        assert!(r.samples > 0);
        assert_eq!(ls.samples().len(), r.samples);
        for (i, s) in ls.samples().iter().enumerate() {
            assert_eq!(s.at_ms, 250.0 * (i + 1) as f64);
            assert!(s.tail_ms.p50 <= s.tail_ms.p99);
        }
        // Samples cover the run up to the last event.
        let last = ls.samples().last().unwrap();
        assert!(last.completed <= 400);
    }

    #[test]
    fn serve_sampling_does_not_change_the_report() {
        let (_space, engine, queries) = serving_setup();
        let params = DiskParams::default();
        let mut rng = StdRng::seed_from_u64(9);
        let arrivals = poisson_arrivals(&mut rng, 300, 60.0);
        let obs = Obs::disabled();
        let mut ls = LoopScratch::new();
        let plain = engine.serve_core(
            &params,
            &queries,
            &arrivals,
            &ServeConfig::default(),
            &obs,
            &mut ls,
        );
        let sampled = engine.serve_core(
            &params,
            &queries,
            &arrivals,
            &ServeConfig {
                sample_every_ms: 100.0,
                window: 32,
            },
            &obs,
            &mut ls,
        );
        assert_eq!(
            plain.report.makespan_ms.to_bits(),
            sampled.report.makespan_ms.to_bits()
        );
        assert_eq!(
            plain.report.latency.mean.to_bits(),
            sampled.report.latency.mean.to_bits()
        );
        assert_eq!(plain.report.tail, sampled.report.tail);
        assert_eq!(plain.events, sampled.events);
    }

    #[test]
    fn serve_cycles_queries_for_long_arrival_streams() {
        let (_space, engine, queries) = serving_setup();
        let params = DiskParams::default();
        let n = queries.len() * 3 + 7;
        let arrivals: Vec<f64> = (0..n).map(|i| i as f64 * 5.0).collect();
        let mut ls = LoopScratch::new();
        let r = engine.serve_core(
            &params,
            &queries,
            &arrivals,
            &ServeConfig::default(),
            &Obs::disabled(),
            &mut ls,
        );
        assert_eq!(r.report.queries, n);
        assert_eq!(r.events, 2 * n as u64);
    }

    fn degraded_cfg() -> DegradedServeConfig {
        DegradedServeConfig::default()
    }

    #[test]
    fn fault_free_degraded_serve_matches_serve_core_bitwise() {
        let (_space, engine, queries) = serving_setup();
        let params = DiskParams::default();
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = poisson_arrivals(&mut rng, 300, 60.0);
        let obs = Obs::disabled();
        let mut ls = LoopScratch::new();
        let plain = engine.serve_core(
            &params,
            &queries,
            &arrivals,
            &ServeConfig::default(),
            &obs,
            &mut ls,
        );
        let healthy = FaultSchedule::healthy(8);
        for policy in [ReplicaPolicy::PrimaryOnly, ReplicaPolicy::FailoverOnly] {
            let degraded = engine
                .serve_degraded_core(
                    &params,
                    &queries,
                    &arrivals,
                    &healthy,
                    1,
                    policy,
                    &degraded_cfg(),
                    &obs,
                    &mut ls,
                )
                .unwrap();
            let (a, b) = (&plain.report, &degraded.serve.report);
            assert_eq!(a.makespan_ms.to_bits(), b.makespan_ms.to_bits(), "{policy}");
            assert_eq!(a.latency.mean.to_bits(), b.latency.mean.to_bits());
            assert_eq!(a.latency.max.to_bits(), b.latency.max.to_bits());
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            assert_eq!(a.tail, b.tail);
            assert_eq!(plain.events, degraded.serve.events);
            assert_eq!(plain.peak_in_flight, degraded.serve.peak_in_flight);
            assert_eq!(plain.pages, degraded.serve.pages);
            assert_eq!(degraded.served, 300);
            assert_eq!((degraded.shed, degraded.lost, degraded.retries), (0, 0, 0));
            assert_eq!((degraded.timeouts, degraded.failovers), (0, 0));
            assert_eq!(degraded.availability(), 1.0);
        }
    }

    #[test]
    fn primary_only_loses_requests_through_a_fail_stop() {
        let (_space, engine, queries) = serving_setup();
        let params = DiskParams::default();
        let mut rng = StdRng::seed_from_u64(5);
        let arrivals = poisson_arrivals(&mut rng, 200, 50.0);
        let schedule = FaultSchedule::healthy(8).fail_stop(3, 0).unwrap();
        let mut ls = LoopScratch::new();
        let r = engine
            .serve_degraded_core(
                &params,
                &queries,
                &arrivals,
                &schedule,
                1,
                ReplicaPolicy::PrimaryOnly,
                &degraded_cfg(),
                &Obs::disabled(),
                &mut ls,
            )
            .unwrap();
        assert!(r.lost > 0, "a permanently dead primary loses requests");
        assert!(r.retries > 0, "losses only follow exhausted retries");
        assert!(r.availability() < 1.0);
        assert_eq!(r.served + r.shed + r.lost, 200);
    }

    #[test]
    fn failover_serves_through_a_fail_stop() {
        let (_space, engine, queries) = serving_setup();
        let params = DiskParams::default();
        let mut rng = StdRng::seed_from_u64(5);
        let arrivals = poisson_arrivals(&mut rng, 200, 50.0);
        let schedule = FaultSchedule::healthy(8).fail_stop(3, 0).unwrap();
        let mut ls = LoopScratch::new();
        let r = engine
            .serve_degraded_core(
                &params,
                &queries,
                &arrivals,
                &schedule,
                1,
                ReplicaPolicy::FailoverOnly,
                &degraded_cfg(),
                &Obs::disabled(),
                &mut ls,
            )
            .unwrap();
        assert_eq!(r.lost, 0, "one failure never defeats a 1-chain");
        assert_eq!(r.served, 200);
        assert!(r.failovers > 0);
        assert!(r.timeouts > 0, "failover pays the detection timeout");
        assert_eq!(r.availability(), 1.0);
    }

    #[test]
    fn transient_outage_recovers_via_retries() {
        let (_space, engine, queries) = serving_setup();
        let params = DiskParams::default();
        // Constant arrivals across a 100..140 ms outage of disk 2.
        let arrivals: Vec<f64> = (0..100).map(|i| i as f64 * 4.0).collect();
        let schedule = FaultSchedule::healthy(8).transient(2, 100, 140).unwrap();
        let cfg = DegradedServeConfig {
            retry: RetryPolicy {
                timeout_units: 2,
                max_retries: 5,
            },
            ..degraded_cfg()
        };
        let mut ls = LoopScratch::new();
        let r = engine
            .serve_degraded_core(
                &params,
                &queries,
                &arrivals,
                &schedule,
                1,
                ReplicaPolicy::PrimaryOnly,
                &cfg,
                &Obs::disabled(),
                &mut ls,
            )
            .unwrap();
        assert_eq!(r.transitions, 2, "outage start + recovery");
        assert!(r.retries > 0, "requests inside the window back off");
        assert_eq!(r.lost, 0, "backoff outlives the 40 ms outage");
        assert_eq!(r.served, 100);
        // Retried requests carry their backoff in the measured tail.
        assert!(r.serve.report.latency.max > r.serve.report.latency.mean);
    }

    #[test]
    fn shedding_bounds_in_flight() {
        let (_space, engine, queries) = serving_setup();
        let params = DiskParams::default();
        // An arrival burst far above service capacity.
        let arrivals: Vec<f64> = (0..300).map(|i| i as f64 * 0.1).collect();
        let cfg = DegradedServeConfig {
            max_in_flight: 4,
            ..degraded_cfg()
        };
        let mut ls = LoopScratch::new();
        let r = engine
            .serve_degraded_core(
                &params,
                &queries,
                &arrivals,
                &FaultSchedule::healthy(8),
                1,
                ReplicaPolicy::PrimaryOnly,
                &cfg,
                &Obs::disabled(),
                &mut ls,
            )
            .unwrap();
        assert!(r.shed > 0, "overload must shed");
        assert!(r.serve.peak_in_flight <= 4, "admission bound holds");
        assert_eq!(r.served + r.shed + r.lost, 300);
        assert!(r.availability() < 1.0);
        // Shed requests leave no latency sample behind.
        assert_eq!(ls.latencies.len() as u64, r.served);
    }

    #[test]
    fn balanced_policies_spread_load_across_live_copies() {
        let (_space, engine, queries) = serving_setup();
        let params = DiskParams::default();
        let arrivals: Vec<f64> = (0..200).map(|i| i as f64 * 2.0).collect();
        let healthy = FaultSchedule::healthy(8);
        let obs = Obs::disabled();
        let mut ls = LoopScratch::new();
        let mut run = |policy| {
            engine
                .serve_degraded_core(
                    &params,
                    &queries,
                    &arrivals,
                    &healthy,
                    2,
                    policy,
                    &degraded_cfg(),
                    &obs,
                    &mut ls,
                )
                .unwrap()
        };
        let primary = run(ReplicaPolicy::PrimaryOnly);
        let nearest = run(ReplicaPolicy::NearestFreeQueue);
        let rr = run(ReplicaPolicy::RoundRobin);
        for r in [&primary, &nearest, &rr] {
            assert_eq!(r.served, 200);
            assert_eq!(r.lost + r.shed, 0);
        }
        assert_eq!(primary.failovers, 0);
        assert!(rr.failovers > 0, "round-robin rotates off the primary");
        assert!(
            nearest.serve.report.latency.mean <= primary.serve.report.latency.mean,
            "queue-aware reads should not be slower than primary-only: {} > {}",
            nearest.serve.report.latency.mean,
            primary.serve.report.latency.mean
        );
    }

    #[test]
    fn degraded_serve_is_deterministic() {
        let (_space, engine, queries) = serving_setup();
        let params = DiskParams::default();
        let mut rng = StdRng::seed_from_u64(13);
        let arrivals = poisson_arrivals(&mut rng, 250, 60.0);
        let schedule =
            FaultSchedule::parse("fail:3@500,transient:5@200..400,slow:1x2@0..800", 8).unwrap();
        let cfg = DegradedServeConfig {
            max_in_flight: 64,
            seed: 42,
            ..degraded_cfg()
        };
        let obs = Obs::disabled();
        let mut ls = LoopScratch::new();
        let mut run = || {
            engine
                .serve_degraded_core(
                    &params,
                    &queries,
                    &arrivals,
                    &schedule,
                    2,
                    ReplicaPolicy::FailoverOnly,
                    &cfg,
                    &obs,
                    &mut ls,
                )
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.serve.report.makespan_ms.to_bits(),
            b.serve.report.makespan_ms.to_bits()
        );
        assert_eq!(
            a.serve.report.latency.mean.to_bits(),
            b.serve.report.latency.mean.to_bits()
        );
        assert_eq!(
            (a.served, a.shed, a.lost, a.retries, a.timeouts, a.failovers),
            (b.served, b.shed, b.lost, b.retries, b.timeouts, b.failovers)
        );
    }

    #[test]
    fn schedule_mismatch_is_an_error_not_a_panic() {
        let (_space, engine, queries) = serving_setup();
        let err = engine
            .serve_degraded_core(
                &DiskParams::default(),
                &queries,
                &[1.0],
                &FaultSchedule::healthy(4),
                1,
                ReplicaPolicy::PrimaryOnly,
                &degraded_cfg(),
                &Obs::disabled(),
                &mut LoopScratch::new(),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::ScheduleMismatch { .. }));
    }

    #[test]
    fn retry_jitter_is_deterministic_and_in_unit_range() {
        for seed in [0u64, 1, 99] {
            for query in [0u64, 7, 12345] {
                for attempt in [0u32, 1, 5] {
                    let j = retry_jitter01(seed, query, attempt);
                    assert!((0.0..1.0).contains(&j), "{j}");
                    assert_eq!(j.to_bits(), retry_jitter01(seed, query, attempt).to_bits());
                }
            }
        }
        // Distinct attempts decorrelate (the whole point of jitter).
        assert_ne!(
            retry_jitter01(1, 1, 0).to_bits(),
            retry_jitter01(1, 1, 1).to_bits()
        );
    }

    #[test]
    fn sharded_arrivals_are_thread_count_invariant() {
        let obs = Obs::disabled();
        let dist = InterArrival::Poisson { rate_qps: 40.0 };
        // Cross a chunk boundary so the merge reduction is exercised.
        let n = ARRIVAL_CHUNK + 1234;
        let serial = sharded_arrivals(77, n, dist, 1, &obs);
        let parallel = sharded_arrivals(77, n, dist, 8, &obs);
        assert_eq!(serial.len(), n);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(serial.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sharded_arrivals_have_the_right_rate() {
        let obs = Obs::disabled();
        let n = 100_000;
        let arrivals = sharded_arrivals(9, n, InterArrival::Poisson { rate_qps: 50.0 }, 4, &obs);
        let span = arrivals.last().unwrap() - arrivals[0];
        let mean_gap = span / (n - 1) as f64;
        assert!((mean_gap - 20.0).abs() < 1.0, "mean gap {mean_gap}");
    }

    #[test]
    fn constant_arrivals_are_evenly_spaced() {
        let obs = Obs::disabled();
        let arrivals = sharded_arrivals(1, 10, InterArrival::Constant { rate_qps: 100.0 }, 2, &obs);
        for (i, &t) in arrivals.iter().enumerate() {
            assert!((t - (i + 1) as f64 * 10.0).abs() < 1e-9);
        }
    }
}
