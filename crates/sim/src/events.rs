//! The serving event loop: every [`crate::ServeSpec`] runs through
//! [`MultiUserEngine::serve`], one deterministic event loop whose four
//! parts the spec picks.
//!
//! * **Source.** Closed clients (one client-ready event per client seeds
//!   the heap, and each completion readies its client for the next
//!   query) or an open stream of arrival times.
//! * **Rows.** The run plans each query region once into a sparse table
//!   of pre-costed [`PlanEntry`] rows held in the [`LoopScratch`]: count
//!   rows from [`decluster_methods::PlanCounts`]
//!   ([`DiskParams::batch_ms_counts`]), or position rows from the
//!   directory's [`IoPlan`] ([`DiskParams::batch_ms`]) for the rebuild's
//!   healthy baseline.
//! * **Router.** FCFS on the primary, or the fault router: a [`Pick`]
//!   over per-disk routing keys, with retry/backoff and admission
//!   control.
//! * **Batcher.** Pass-through, or the shared-scan window that merges
//!   its members through a [`decluster_methods::SharedScan`] at flush.
//!
//! Events pop from one [`EventHeap`] with deterministic tie-breaking:
//! equal times pop in insertion order (a monotone sequence number is the
//! secondary key), so a run's event order is a pure function of its
//! inputs. An open arrival is taken only when no event is due at or
//! before its time.
//!
//! # Plan once per run
//!
//! A run cycles a fixed pool of `L` query regions (request `i` issues
//! region `i % L`), so it plans each region once: row `q` holds one
//! [`PlanEntry`] per disk region `q` touches (at most `min(|Q|, M)`),
//! with its page count and its batch service time, costed once. Every
//! issue and retry walks only its row, in `O(touched disks)`, and adds
//! the same floats to the disk queues as planning on issue would.
//!
//! A row is filled from `(disk, pages)` pairs in disk order
//! ([`decluster_methods::PlanCounts::sparse_counts_into`]). A region of
//! at most `2^k` buckets is counted by walking its buckets in the
//! allocation table, one run along the last dimension at a time, and
//! sorting their disks; a larger one is counted by the kernel, its
//! corner plan resolved through the run's [`PlanCache`]. A closed run
//! issues each query once, in order, so its planning probes the shape
//! cache exactly as planning at every issue did. The
//! `kernel.shape_cache_hits`/`misses` counters count one probe per
//! kernel-planned region; a walked region probes nothing. The
//! shared-scan batcher plans nothing: it merges page lists at flush.
//!
//! # Memory bounds
//!
//! A run's state is the event heap (one entry per in-flight request,
//! closed client and pending fault event), a fixed-capacity ring of
//! recently completed latencies, and the flat latency vector — never
//! per-client state. A million-client open-loop run therefore peaks at
//! `O(in-flight + clients × 8 bytes)`. An [`Event`] is 24 bytes, and the
//! warmed loop performs zero heap allocations per event
//! (`tests/alloc_counting.rs` proves it with a counting allocator).
//!
//! # Sharded arrival streams
//!
//! [`sharded_arrivals`] generates large arrival vectors in fixed-size
//! chunks on the deterministic executor, each chunk from its own derived
//! RNG stream, merged by a sequential prefix-sum reduction — byte-identical
//! output at any thread count.

use crate::faults::{DiskState, FaultEvent, FaultSchedule, ReplicaPolicy};
use crate::multiuser::{assemble_report, LoopMeters, MultiUserEngine};
use crate::spec::{AvailStats, ServeRun, ServeSpec, ShareStats};
use crate::stats::Quantiles;
use crate::workload::InterArrival;
use crate::DiskParams;
use decluster_grid::{BucketRegion, IoPlan};
use decluster_methods::{PlanCache, SharedScan};
use decluster_obs::{Obs, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One scheduled event: its logical time, the sequence number assigned at
/// push (the deterministic tie-breaker), and a payload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event<T> {
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
/// touching the allocator.
#[derive(Clone, Debug)]
pub(crate) struct EventHeap<T> {
    entries: Vec<Event<T>>,
    next_seq: u64,
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        EventHeap {
            entries: Vec::new(),
            next_seq: 0,
        }
    }
}

impl<T> EventHeap<T> {
    /// Removes all events and resets the sequence counter, keeping the
    /// allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.next_seq = 0;
    }

    /// Schedules `payload` at `time` and returns the assigned sequence
    /// number. Later pushes at the same time pop later.
    pub fn push(&mut self, time: f64, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Event { time, seq, payload });
        self.sift_up(self.entries.len() - 1);
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
/// sampling boundary (see [`ServeSpec::sampling`]). Everything here
/// derives from simulated quantities, so samples are bit-identical
/// across thread counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeSample {
    /// Logical sample time, ms.
    pub at_ms: f64,
    /// Requests issued but not yet completed.
    pub in_flight: usize,
    /// Disks whose FCFS queue extends past the sample time.
    pub busy_disks: usize,
    /// Requests completed so far.
    pub completed: u64,
    /// Windowed latency tails over the last [`ServeSpec::window`]
    /// completions (zeros before the first completion).
    pub tail_ms: Quantiles,
}

/// Payload of one serving event. Request ids are issue indices, which
/// [`ServeSpec`] checks fit a `u32` before the loop starts, so the
/// payload is 8 bytes and an [`Event`] 24.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A closed-loop client is free to issue its next query.
    Ready,
    /// Request `q` completed.
    Done(u32),
    /// A disk crossed a fault-schedule boundary; its health is recomputed
    /// from the schedule at the event's time.
    Transition(u32),
    /// A request that found no live copy retries after jittered backoff;
    /// `attempt` numbers the re-issue (1 = first retry).
    Retry {
        /// The request.
        query: u32,
        /// Re-issue number.
        attempt: u16,
    },
    /// The shared-scan window closes: its members are merged and issued.
    Flush,
}

const _: () = assert!(std::mem::size_of::<Event<Ev>>() == 24);

/// Deterministic retry jitter in `[0, 1)`: a splitmix64 finalizer over
/// `(seed, query, attempt)`. A pure function of its inputs, so retry
/// schedules are byte-identical at any thread count.
fn retry_jitter01(seed: u64, query: u64, attempt: u32) -> f64 {
    decluster_methods::splitmix64_unit(
        seed ^ query.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 32),
    )
}

/// How a run costs each query region's per-disk batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rows {
    /// Page counts from the kernel, costed by [`DiskParams::batch_ms_counts`].
    Counts,
    /// Page positions from the directory's [`IoPlan`], costed by
    /// [`DiskParams::batch_ms`].
    Positions,
}

/// One disk a planned query region touches: the disk, its page count,
/// and the batch's service time there, costed once when the run's plan
/// table is filled. 16 bytes.
#[derive(Clone, Copy, Debug)]
struct PlanEntry {
    disk: u32,
    pages: u32,
    service_ms: f64,
}

/// The per-disk FCFS queues of one run, with the batch counters the
/// metered runs report.
#[derive(Debug, Default)]
struct Queues {
    free_at: Vec<f64>,
    busy_ms: Vec<f64>,
    record: bool,
    batches: u64,
    queued: u64,
}

impl Queues {
    fn reset(&mut self, m: usize, record: bool) {
        self.free_at.clear();
        self.free_at.resize(m, 0.0);
        self.busy_ms.clear();
        self.busy_ms.resize(m, 0.0);
        self.record = record;
        self.batches = 0;
        self.queued = 0;
    }

    /// Queues `service` ms on disk `s` behind its earlier batches,
    /// starting no earlier than `ready_at`, and returns the batch's end.
    /// The batch counts as queued when it starts after `issue_at`.
    #[inline]
    fn enqueue(&mut self, s: usize, issue_at: f64, ready_at: f64, service: f64) -> f64 {
        let start = ready_at.max(self.free_at[s]);
        self.free_at[s] = start + service;
        self.busy_ms[s] += service;
        if self.record {
            self.batches += 1;
            self.queued += u64::from(start > issue_at);
        }
        start + service
    }
}

/// Reusable per-run buffers of the serving loop: the cross-query
/// [`PlanCache`] of compiled corner plans, the row being planned, the
/// run's plan table, the FCFS queues, the latency vector, the event
/// heap, the sampling window, the per-disk health, routing keys and
/// replica targets of the fault router, and the shared-scan window.
/// One instance per worker thread makes the loop allocation-free per
/// event once the buffers have grown to the working-set size.
#[derive(Debug, Default)]
pub struct LoopScratch {
    plans: PlanCache,
    /// The `(disk, pages)` pairs of the region being planned.
    row: Vec<(u32, u64)>,
    io: IoPlan,
    /// Sparse plan table: row `q` is `plan[plan_rows[q]..plan_rows[q + 1]]`,
    /// one entry per disk query region `q` touches, in disk order.
    plan: Vec<PlanEntry>,
    /// Row offsets into `plan` (one more than the rows).
    plan_rows: Vec<usize>,
    /// Total pages of each planned region.
    plan_pages: Vec<u64>,
    queues: Queues,
    latencies: Vec<f64>,
    events: EventHeap<Ev>,
    ring: LatencyRing,
    sorted: Vec<f64>,
    samples: Vec<ServeSample>,
    disk_state: Vec<DiskState>,
    /// One [`copy_key`] per disk, refilled by each routing decision.
    keys: Vec<u64>,
    targets: Vec<u32>,
    /// Issue times of a closed run's requests.
    issued: Vec<f64>,
    /// Members of the open shared-scan window.
    batch: Vec<u32>,
    shared: SharedScan,
}

impl LoopScratch {
    /// Fresh (empty) buffers; they grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mid-run samples of the most recent run (empty when sampling
    /// was off).
    pub fn samples(&self) -> &[ServeSample] {
        &self.samples
    }

    fn begin(
        &mut self,
        m: usize,
        n: usize,
        closed: bool,
        faults: Option<&FaultSchedule>,
        record: bool,
    ) {
        // Cleared per run (capacity retained) so shape-cache hit/miss
        // counts are a pure function of the run's query sequence —
        // byte-identical at any thread count and cold vs warm.
        self.plans.clear();
        self.queues.reset(m, record);
        self.latencies.clear();
        self.latencies.reserve(n);
        self.events.clear();
        self.samples.clear();
        self.sorted.clear();
        self.disk_state.clear();
        match faults {
            Some(schedule) => self
                .disk_state
                .extend((0..m as u32).map(|d| schedule.state_at(d, 0))),
            None => self.disk_state.resize(m, DiskState::Up),
        }
        self.keys.clear();
        self.keys.resize(m, DEAD);
        self.targets.clear();
        self.targets.resize(m, 0);
        self.issued.clear();
        if closed {
            self.issued.resize(n, 0.0);
        }
        self.batch.clear();
    }

    /// Keys every disk from its health and its queue's free time.
    fn fill_keys(&mut self) {
        let disks = self.disk_state.iter().zip(&self.queues.free_at);
        for (key, (&state, &free_at)) in self.keys.iter_mut().zip(disks) {
            *key = copy_key(state, free_at);
        }
    }
}

/// The counters of one run.
#[derive(Debug, Default)]
struct Tally {
    /// Next request index to issue.
    next: usize,
    /// Its plan row, `next % rows`, kept without a division.
    row: usize,
    events: u64,
    completed: u64,
    in_flight: usize,
    peak_in_flight: usize,
    makespan: f64,
    pages: u64,
    shed: u64,
    lost: u64,
    retries: u64,
    timeouts: u64,
    failovers: u64,
    transitions: u64,
    windows: u64,
    merged_queries: u64,
    pages_saved: u64,
}

/// One run in progress: the spec's parts plus the mutable state.
struct Run<'a> {
    engine: &'a MultiUserEngine,
    spec: &'a ServeSpec,
    params: &'a DiskParams,
    queries: &'a [BucketRegion],
    arrivals: &'a [f64],
    faults: Option<&'a FaultSchedule>,
    ls: &'a mut LoopScratch,
    /// Requests the run issues.
    n: usize,
    closed: bool,
    sampling: bool,
    window_ms: f64,
    timeout_ms: f64,
    t: Tally,
}

impl Run<'_> {
    /// Pops the earliest event and handles it.
    fn pop(&mut self) {
        let ev = self.ls.events.pop().expect("the loop peeked an event");
        match ev.payload {
            Ev::Done(q) => {
                self.t.completed += 1;
                self.t.in_flight -= 1;
                if self.sampling {
                    let latency = ev.time - self.arrived(q);
                    self.ls.ring.push(latency);
                }
                self.issue_next(ev.time);
            }
            Ev::Ready => self.issue_next(ev.time),
            Ev::Transition(disk) => {
                let schedule = self.faults.expect("transitions come from a schedule");
                self.ls.disk_state[disk as usize] = schedule.state_at(disk, ev.time as u64);
                self.t.transitions += 1;
            }
            Ev::Retry { query, attempt } => {
                let row = query as usize % self.ls.plan_pages.len();
                self.route(query, row, ev.time, attempt);
            }
            Ev::Flush => self.flush(ev.time),
        }
    }

    /// When request `q` entered the system: its arrival, or the time a
    /// closed client first issued it.
    fn arrived(&self, q: u32) -> f64 {
        if self.closed {
            self.ls.issued[q as usize]
        } else {
            self.arrivals[q as usize]
        }
    }

    /// A closed client freed at `now` issues the next query, if any.
    fn issue_next(&mut self, now: f64) {
        if self.closed && self.t.next < self.n {
            let q = self.t.next;
            self.t.next += 1;
            self.ls.issued[q] = now;
            self.admit(q as u32, now);
        }
    }

    /// Request `q` enters at `now`: it joins the shared-scan window, is
    /// shed at admission, or is routed and fanned out.
    fn admit(&mut self, q: u32, now: f64) {
        if self.window_ms > 0.0 {
            if self.ls.batch.is_empty() {
                self.ls.events.push(now + self.window_ms, Ev::Flush);
            }
            self.ls.batch.push(q);
            self.start();
            return;
        }
        let row = self.t.row;
        self.t.row = if row + 1 == self.ls.plan_pages.len() {
            0
        } else {
            row + 1
        };
        if self.faults.is_none() {
            self.start();
            self.fan_out(q, row, now);
        } else if self.spec.max_in_flight > 0 && self.t.in_flight >= self.spec.max_in_flight {
            self.t.shed += 1;
            self.free_client(now);
        } else {
            self.start();
            self.route(q, row, now, 0);
        }
    }

    fn start(&mut self) {
        self.t.in_flight += 1;
        self.t.peak_in_flight = self.t.peak_in_flight.max(self.t.in_flight);
    }

    /// A closed client whose request left without completing is free
    /// again at `now`.
    fn free_client(&mut self, now: f64) {
        if self.closed {
            self.ls.events.push(now, Ev::Ready);
        }
    }

    /// Records request `q`'s completion and schedules its event.
    fn finish(&mut self, q: u32, completion: f64, latency: f64) {
        self.ls.latencies.push(latency);
        self.t.makespan = self.t.makespan.max(completion);
        self.ls.events.push(completion, Ev::Done(q));
    }

    /// The healthy router: request `q`'s pre-costed row, FCFS on each
    /// primary.
    #[inline]
    fn fan_out(&mut self, q: u32, row: usize, now: f64) {
        let ls = &mut *self.ls;
        self.t.pages += ls.plan_pages[row];
        let mut completion = now;
        for e in &ls.plan[ls.plan_rows[row]..ls.plan_rows[row + 1]] {
            completion = completion.max(ls.queues.enqueue(e.disk as usize, now, now, e.service_ms));
        }
        self.finish(q, completion, completion - now);
    }

    /// The fault router: picks a serving copy per touched disk, fans out
    /// if every batch has one, and otherwise schedules a retry (or
    /// declares the request lost). Each batch is costed on the copy that
    /// serves it, at that copy's health when it is issued (a batch
    /// started before a schedule boundary is not interrupted).
    #[inline(never)]
    fn route(&mut self, q: u32, row: usize, now: f64, attempt: u16) {
        let (replicas, policy, retry) = (self.spec.replicas, self.spec.policy, self.spec.retry);
        let ls = &mut *self.ls;
        let m = ls.disk_state.len();
        // Pass 1: pick a copy for every touched disk without touching
        // the queues, so every disk is keyed once, up front. A batch
        // with no live copy makes the whole request unserviceable right
        // now.
        ls.fill_keys();
        let entries = &ls.plan[ls.plan_rows[row]..ls.plan_rows[row + 1]];
        let (keys, targets, query) = (&ls.keys[..], &mut ls.targets[..], u64::from(q));
        let pick = Pick::of(policy);
        let serviceable = entries.iter().all(|e| {
            let d = e.disk as usize;
            pick.copy(keys, d, replicas, query)
                .map(|s| targets[d] = s)
                .is_some()
        });
        if !serviceable {
            if u32::from(attempt) < retry.max_retries {
                // Exponential backoff with deterministic jitter: the
                // request waits out (hopefully) a transient window.
                let backoff = self.timeout_ms
                    * (1u64 << attempt.min(52)) as f64
                    * (1.0 + retry_jitter01(self.spec.seed, query, attempt.into()));
                let attempt = attempt + 1;
                ls.events
                    .push(now + backoff, Ev::Retry { query: q, attempt });
                self.t.retries += 1;
            } else {
                self.t.lost += 1;
                self.t.in_flight -= 1;
                self.free_client(now);
            }
            return;
        }
        // Pass 2: FCFS on the chosen copies. Under `FailoverOnly`,
        // failures are discovered by timing out once per dead copy
        // skipped along the chain.
        self.t.pages += ls.plan_pages[row];
        let loads = &self.engine.loads;
        let mut completion = now;
        for e in entries {
            let d = e.disk as usize;
            let s = ls.targets[d] as usize;
            // The copy's distance along the chain, `(s - d) mod M`.
            let hops = if s >= d { s - d } else { s + m - d };
            let ready_at = if policy == ReplicaPolicy::FailoverOnly && hops > 0 {
                self.t.timeouts += hops as u64;
                now + self.timeout_ms * hops as f64
            } else {
                now
            };
            // A routed row is a count row, costed by its pages and its
            // disk's load alone: a copy as loaded as the primary serves
            // the batch in the row's time.
            let healthy_ms = if loads[s] == loads[d] {
                e.service_ms
            } else {
                self.params.batch_ms_counts(u64::from(e.pages), loads[s])
            };
            let service = healthy_ms * ls.disk_state[s].latency_factor();
            completion = completion.max(ls.queues.enqueue(s, now, ready_at, service));
            self.t.failovers += u64::from(hops > 0);
        }
        self.finish(q, completion, completion - self.arrived(q));
    }

    /// The shared-scan batcher's flush: merges the window's members into
    /// one deduplicated schedule, issues it, and fans the completion back
    /// to every member, each latency measured from its own arrival.
    #[inline(never)]
    fn flush(&mut self, now: f64) {
        let (dir, m) = (self.engine.directory(), self.engine.num_disks());
        let ls = &mut *self.ls;
        let members = ls.batch.len();
        debug_assert!(members > 0, "a flush always closes a non-empty window");
        self.t.windows += 1;
        if members > 1 {
            self.t.merged_queries += members as u64;
        }
        ls.shared.begin(m);
        let mut own = 0u64;
        for &q in &ls.batch {
            let region = &self.queries[q as usize % self.queries.len()];
            own += ls.shared.absorb(dir, region).own_pages;
        }
        let fresh = ls.shared.merged().total_pages() as u64;
        self.t.pages += fresh;
        self.t.pages_saved += own - fresh;
        let completion = self.fan_out_merged(now);
        let ls = &mut *self.ls;
        self.t.makespan = self.t.makespan.max(completion);
        for &q in &ls.batch {
            ls.latencies.push(completion - self.arrivals[q as usize]);
            ls.events.push(completion, Ev::Done(q));
        }
        ls.batch.clear();
    }

    /// Issues the window's merged schedule across the replica chain and
    /// returns its completion: [`ReplicaPolicy::Spread`] splits each
    /// disk's pages across all `1 + r` copies, and every other policy
    /// routes the whole batch through its [`Pick`], keyed on the
    /// window's first member.
    fn fan_out_merged(&mut self, now: f64) -> f64 {
        let (replicas, policy) = (self.spec.replicas, self.spec.policy);
        let (loads, m) = (&self.engine.loads, self.engine.num_disks());
        let split = policy == ReplicaPolicy::Spread && replicas > 0;
        let pick = Pick::of(policy);
        if !split {
            self.ls.fill_keys();
        }
        let ls = &mut *self.ls;
        let merged = ls.shared.merged();
        let route_key = u64::from(ls.batch[0]);
        let copies = u64::from(replicas) + 1;
        let mut completion = now;
        for d in 0..m {
            let count = merged.disk_pages(d).len() as u64;
            if count == 0 {
                continue;
            }
            if split {
                for j in 0..=replicas {
                    let share = count / copies + u64::from(u64::from(j) < count % copies);
                    if share > 0 {
                        let s = (d + j as usize) % m;
                        let service = self.params.batch_ms_counts(share, loads[s]);
                        completion = completion.max(ls.queues.enqueue(s, now, now, service));
                    }
                }
            } else {
                let s = pick
                    .copy(&ls.keys, d, replicas, route_key)
                    .expect("the shared scan serves a healthy array")
                    as usize;
                let service = self.params.batch_ms_counts(count, loads[s]);
                completion = completion.max(ls.queues.enqueue(s, now, now, service));
                // Unlike `route`, this loop queues each batch before it
                // picks the next copy: re-key the disk it just loaded.
                ls.keys[s] = copy_key(ls.disk_state[s], ls.queues.free_at[s]);
            }
        }
        completion
    }

    /// Records one mid-run sample at `at_ms`.
    #[inline(never)]
    fn sample(&mut self, at_ms: f64) {
        let ls = &mut *self.ls;
        ls.sorted.clear();
        ls.sorted.extend_from_slice(ls.ring.as_slice());
        let tail_ms = Quantiles::of_unsorted(&mut ls.sorted);
        ls.samples.push(ServeSample {
            at_ms,
            in_flight: self.t.in_flight,
            busy_disks: ls.queues.free_at.iter().filter(|&&f| f > at_ms).count(),
            completed: self.t.completed,
            tail_ms,
        });
    }
}

impl MultiUserEngine {
    /// Plans a run once: request `i` issues query region
    /// `i % queries.len()`, so the loop needs only the first
    /// `min(n, queries.len())` regions. Row `q` of `ls.plan` receives one
    /// entry per disk region `q` touches, and `ls.plan_pages[q]` the
    /// region's total. Count rows come from the region's `(disk, pages)`
    /// pairs: walked in the allocation table for a region of at most
    /// `2^k` buckets, read from the kernel with one [`PlanCache`] probe
    /// for a larger one. The entry buffer is sized once per run from
    /// `Σ min(|Q|, M)`; every buffer keeps its capacity across runs.
    fn plan(
        &self,
        rows: Rows,
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
            // A `GridDirectory` holds every page in memory, so no disk's
            // count comes near 2^32.
            let pages = match rows {
                Rows::Counts => {
                    let pages = self
                        .counts
                        .sparse_counts_into(region, &mut ls.plans, &mut ls.row);
                    for &(disk, count) in &ls.row {
                        ls.plan.push(PlanEntry {
                            disk,
                            pages: count as u32,
                            service_ms: params.batch_ms_counts(count, self.loads[disk as usize]),
                        });
                    }
                    pages
                }
                Rows::Positions => {
                    self.dir.io_plan_into(region, &mut ls.io);
                    for (d, pages) in ls.io.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
                        ls.plan.push(PlanEntry {
                            disk: d as u32,
                            pages: pages.len() as u32,
                            service_ms: params.batch_ms(pages, self.loads[d]),
                        });
                    }
                    ls.io.total_pages() as u64
                }
            };
            ls.plan_rows.push(ls.plan.len());
            ls.plan_pages.push(pages);
        }
    }

    /// Runs `spec` through the serving loop: `queries` issued in order by
    /// closed clients, or request `i` issuing `queries[i % L]` at
    /// `arrivals[i]`. [`ServeSpec`] validates the spec and its inputs
    /// first (a non-empty pool, finite non-decreasing arrivals, at most
    /// `u32::MAX` requests, a schedule over `M` disks).
    ///
    /// Deterministic: disk health is a pure function of simulated time,
    /// retry jitter a pure function of `(seed, request, attempt)`, and
    /// every event flows through one tie-broken heap, so the result is
    /// bit-identical at any thread count. A request's latency runs from
    /// its arrival (or first issue) to its completion, so backoff and
    /// window waits show up in the tail. With a healthy schedule, no
    /// replicas and no admission cap, the fault router serves exactly
    /// the floats of the healthy router.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve(
        &self,
        spec: &ServeSpec,
        rows: Rows,
        params: &DiskParams,
        queries: &[BucketRegion],
        arrivals: &[f64],
        obs: &Obs,
        ls: &mut LoopScratch,
    ) -> ServeRun {
        let m = self.num_disks();
        let clients = spec.clients();
        let closed = clients > 0;
        let n = if closed {
            queries.len()
        } else {
            arrivals.len()
        };
        let faults = spec.faults.as_ref();
        debug_assert!(
            faults.is_none() || rows == Rows::Counts,
            "the fault router re-costs count rows only"
        );
        let window_ms = spec.batch_window_ms.unwrap_or(0.0);
        let prefix = if closed { "multiuser" } else { "serve" };
        let meters = obs.enabled().then(|| LoopMeters::new(obs, prefix, m));
        ls.begin(m, n, closed, faults, obs.enabled());
        ls.ring.reset(spec.window);
        if window_ms == 0.0 {
            self.plan(rows, params, queries, n, ls);
        }
        // Every schedule boundary becomes a transition event; on pop the
        // disk's state is recomputed from the schedule, which composes
        // overlapping windows correctly.
        for event in faults.map_or(&[][..], |s| s.events()) {
            match *event {
                FaultEvent::FailStop { disk, at } => {
                    ls.events.push(at as f64, Ev::Transition(disk));
                }
                FaultEvent::Transient { disk, from, until }
                | FaultEvent::Slow {
                    disk, from, until, ..
                } => {
                    ls.events.push(from as f64, Ev::Transition(disk));
                    ls.events.push(until as f64, Ev::Transition(disk));
                }
            }
        }
        for _ in 0..clients {
            ls.events.push(0.0, Ev::Ready);
        }
        let sample_every = if spec.sample_every_ms > 0.0 {
            spec.sample_every_ms
        } else {
            f64::INFINITY
        };
        let mut next_sample = sample_every;
        let open = if closed { 0 } else { n };
        let mut run = Run {
            engine: self,
            spec,
            params,
            queries,
            arrivals,
            faults,
            ls,
            n,
            closed,
            sampling: sample_every.is_finite(),
            window_ms,
            timeout_ms: spec.retry.timeout_units as f64 * params.transfer_ms,
            t: Tally::default(),
        };
        loop {
            let arrival_t = if run.t.next < open {
                arrivals[run.t.next]
            } else {
                f64::INFINITY
            };
            let (now, take_event) = match run.ls.events.peek_time() {
                Some(t) if t <= arrival_t => (t, true),
                _ if run.t.next < open => (arrival_t, false),
                _ => break,
            };
            // Samples fire strictly before any event at or past their
            // boundary, so each snapshot reflects the state just before
            // its logical time.
            while next_sample <= now {
                run.sample(next_sample);
                next_sample += sample_every;
            }
            if take_event {
                run.pop();
            } else {
                let q = run.t.next;
                run.t.next += 1;
                run.admit(q as u32, now);
            }
            run.t.events += 1;
        }
        let Run { t, ls, .. } = run;

        // Drained unconditionally so stats from an obs-disabled run can
        // never leak into a later metered run sharing this scratch.
        let (shape_hits, shape_misses) = ls.plans.drain_stats();
        if let Some(meters) = &meters {
            let q = &ls.queues;
            meters.record(n, q.batches, q.queued, &q.busy_ms, &ls.latencies);
            if !closed {
                obs.gauge_max("serve.peak_in_flight", t.peak_in_flight as u64);
                obs.counter_add("serve.events", t.events);
                obs.counter_add("serve.pages", t.pages);
                obs.counter_add("serve.samples", ls.samples.len() as u64);
            }
            if rows == Rows::Counts && window_ms == 0.0 {
                obs.counter_add("kernel.shape_cache_hits", shape_hits);
                obs.counter_add("kernel.shape_cache_misses", shape_misses);
            }
            if faults.is_some() {
                for (name, value) in [
                    ("retries", t.retries),
                    ("timeouts", t.timeouts),
                    ("sheds", t.shed),
                    ("failovers", t.failovers),
                    ("lost", t.lost),
                ] {
                    obs.counter_add(&format!("{prefix}.{name}"), value);
                }
                obs.counter_add("faults.transitions", t.transitions);
            }
            if window_ms > 0.0 {
                obs.counter_add("share.windows", t.windows);
                obs.counter_add("share.merged_queries", t.merged_queries);
                obs.counter_add("share.pages_saved", t.pages_saved);
            }
        }
        let report = assemble_report(
            n,
            clients,
            t.makespan,
            m,
            &ls.queues.busy_ms,
            &mut ls.latencies,
        );
        if obs.trace_enabled() {
            let done = if closed {
                TraceEvent::new("closed_loop_done")
                    .with("queries", n)
                    .with("clients", clients)
                    .with("makespan_ms", report.makespan_ms)
                    .with("utilization", report.utilization)
            } else {
                let done = if window_ms > 0.0 {
                    TraceEvent::new("shared_serve_done")
                        .with("requests", n)
                        .with("events", t.events)
                        .with("windows", t.windows)
                        .with("merged_queries", t.merged_queries)
                        .with("pages_saved", t.pages_saved)
                } else if faults.is_some() {
                    TraceEvent::new("degraded_serve_done")
                        .with("requests", n)
                        .with("events", t.events)
                        .with("served", t.completed)
                        .with("shed", t.shed)
                        .with("lost", t.lost)
                        .with("retries", t.retries)
                        .with("failovers", t.failovers)
                } else {
                    TraceEvent::new("serve_done")
                        .with("requests", n)
                        .with("events", t.events)
                        .with("peak_in_flight", t.peak_in_flight)
                };
                done.with("makespan_ms", report.makespan_ms)
            };
            obs.emit(done);
        }
        ServeRun {
            report,
            events: t.events,
            peak_in_flight: t.peak_in_flight,
            pages: t.pages,
            samples: ls.samples.len(),
            availability: faults.map(|_| AvailStats {
                served: t.completed,
                shed: t.shed,
                lost: t.lost,
                retries: t.retries,
                timeouts: t.timeouts,
                failovers: t.failovers,
                transitions: t.transitions,
            }),
            sharing: spec.batch_window_ms.map(|_| ShareStats {
                windows: t.windows,
                merged_queries: t.merged_queries,
                pages_saved: t.pages_saved,
            }),
        }
    }
}

/// The routing key of a down disk, above every live disk's key: an
/// argmin over a chain window lands on it only when every copy is down.
const DEAD: u64 = u64::MAX;

/// A disk's routing key. A live disk's key is [`f64::total_cmp`]'s
/// integer key of its queue's free time, made unsigned, so keys order
/// exactly as `total_cmp` orders the times (`-0.0` below `+0.0`). A down
/// disk's key is [`DEAD`]. The one time whose key would read as dead, the
/// positive NaN with every payload bit set, saturates just below it.
#[inline]
fn copy_key(state: DiskState, free_at: f64) -> u64 {
    let bits = free_at.to_bits();
    let key = bits ^ ((((bits as i64) >> 63) as u64) >> 1) ^ (1 << 63);
    if state.is_live() {
        key.min(DEAD - 1)
    } else {
        DEAD
    }
}

/// How the fault router picks the copy that serves a batch, resolved once
/// per routing decision from the [`ReplicaPolicy`].
#[derive(Clone, Copy, Debug)]
enum Pick {
    /// The primary, when it is live.
    Primary,
    /// The first live copy along the chain.
    FirstLive,
    /// The live copy whose queue frees first, ties to the lower chain
    /// position.
    Nearest,
    /// The `(query mod live)`-th live copy along the chain.
    NthLive,
}

impl Pick {
    fn of(policy: ReplicaPolicy) -> Self {
        match policy {
            ReplicaPolicy::PrimaryOnly => Pick::Primary,
            ReplicaPolicy::FailoverOnly => Pick::FirstLive,
            // At whole-batch granularity spreading degenerates to shortest
            // queue; the page-granular split lives in the merged fan-out.
            ReplicaPolicy::NearestFreeQueue | ReplicaPolicy::Spread => Pick::Nearest,
            ReplicaPolicy::RoundRobin => Pick::NthLive,
        }
    }

    /// The copy that serves a batch whose primary is `d`: a disk of the
    /// chain window `d, d + 1, …, d + replicas` (mod M), chosen from
    /// `keys` (one [`copy_key`] per disk), or `None` when the pick reaches
    /// no live copy. With no replicas every pick is the live primary.
    #[inline(always)]
    fn copy(self, keys: &[u64], d: usize, replicas: u32, query: u64) -> Option<u32> {
        let (m, r) = (keys.len(), replicas as usize);
        // `(d + j) mod M` without a division: `d < M` and `j <= r < M`.
        let at = |j: usize| if d + j >= m { d + j - m } else { d + j };
        let live = |j: &usize| keys[at(*j)] != DEAD;
        let j = match self {
            Pick::Primary => live(&0).then_some(0),
            Pick::FirstLive => (0..=r).find(live),
            Pick::Nearest => {
                // Branch-free argmin: a strictly smaller key moves it, so
                // ties stay at the lower chain position.
                let (mut best, mut arg) = (keys[d], 0);
                for j in 1..=r {
                    let key = keys[at(j)];
                    let lower = key < best;
                    best = if lower { key } else { best };
                    arg = if lower { j } else { arg };
                }
                (best != DEAD).then_some(arg)
            }
            Pick::NthLive => {
                let n_live = (0..=r).filter(live).count() as u64;
                (0..=r).filter(live).nth((query % n_live.max(1)) as usize)
            }
        };
        j.map(|j| at(j) as u32)
    }
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
    use crate::faults::RetryPolicy;
    use crate::multiuser::poisson_arrivals;
    use crate::workload::random_region;
    use decluster_grid::GridSpace;
    use decluster_methods::{DeclusteringMethod, Hcam};
    use proptest::prelude::*;

    #[test]
    fn heap_pops_in_time_order() {
        let mut h = EventHeap::default();
        for (t, p) in [(5.0, 'a'), (1.0, 'b'), (3.0, 'c'), (2.0, 'd'), (4.0, 'e')] {
            h.push(t, p);
        }
        let order: Vec<char> = std::iter::from_fn(|| h.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!['b', 'd', 'c', 'e', 'a']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut h = EventHeap::default();
        for i in 0..10 {
            h.push(7.0, i);
        }
        h.push(1.0, 99);
        let order: Vec<i32> = std::iter::from_fn(|| h.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec![99, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn clear_resets_sequence_but_keeps_capacity() {
        let mut h = EventHeap::default();
        for i in 0..100 {
            h.push(i as f64, ());
        }
        let cap = h.entries.capacity();
        h.clear();
        assert!(h.entries.is_empty());
        assert_eq!(h.entries.capacity(), cap);
        assert_eq!(h.push(3.0, ()), 0, "sequence restarts after clear");
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = EventHeap::default();
        assert_eq!(h.peek_time(), None);
        h.push(2.0, ());
        h.push(1.0, ());
        assert_eq!(h.peek_time(), Some(1.0));
        assert_eq!(h.pop().unwrap().time, 1.0);
        assert_eq!(h.peek_time(), Some(2.0));
    }

    proptest! {
        /// Pop order equals a stable sort of the pushed events by time:
        /// the deterministic tie-breaking contract under random mixes
        /// with duplicate timestamps.
        #[test]
        fn pop_order_is_stable_sort_by_time(times in prop::collection::vec(0u32..16, 0..200)) {
            let mut h = EventHeap::default();
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
            let mut h = EventHeap::default();
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

    fn serving_setup() -> (MultiUserEngine, Vec<BucketRegion>) {
        let space = GridSpace::new_2d(32, 32).unwrap();
        let m = 8;
        let hcam = Hcam::new(&space, m).unwrap();
        let dir =
            decluster_grid::GridDirectory::build(space.clone(), m, |b| hcam.disk_of(b.as_slice()));
        let mut rng = StdRng::seed_from_u64(11);
        let queries: Vec<BucketRegion> = (0..64)
            .map(|_| random_region(&mut rng, &space, &[4, 4]).unwrap())
            .collect();
        (MultiUserEngine::new(&dir), queries)
    }

    fn run(
        engine: &MultiUserEngine,
        spec: &ServeSpec,
        queries: &[BucketRegion],
        arrivals: &[f64],
        ls: &mut LoopScratch,
    ) -> ServeRun {
        spec.run_with_arrivals(
            engine,
            &DiskParams::default(),
            queries,
            arrivals,
            &Obs::disabled(),
            ls,
        )
        .unwrap()
    }

    #[test]
    fn serve_counts_every_event_and_drains_the_heap() {
        let (engine, queries) = serving_setup();
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = poisson_arrivals(&mut rng, 200, 50.0);
        let mut ls = LoopScratch::new();
        let r = run(
            &engine,
            &ServeSpec::open(50.0),
            &queries,
            &arrivals,
            &mut ls,
        );
        assert_eq!(r.report.queries, 200);
        assert_eq!(r.events, 400, "one arrival + one completion per request");
        assert!(
            ls.events.entries.is_empty(),
            "heap drains by the end of the run"
        );
        assert!(r.peak_in_flight >= 1);
        assert!(r.pages > 0);
        assert_eq!(r.samples, 0, "sampling disabled by default");
        assert!(r.report.tail.p50 <= r.report.tail.p95);
        assert!(r.report.tail.p95 <= r.report.tail.p99);
        assert!(r.report.tail.p99 <= r.report.latency.max);
    }

    #[test]
    fn closed_runs_count_events_pages_and_clients_in_flight() {
        let (engine, queries) = serving_setup();
        let mut ls = LoopScratch::new();
        let r = ServeSpec::closed(3)
            .run(
                &engine,
                &DiskParams::default(),
                &queries,
                &Obs::disabled(),
                &mut ls,
            )
            .unwrap();
        assert_eq!(r.report.queries, 64);
        assert_eq!(r.report.clients, 3);
        assert_eq!(
            r.events,
            3 + 64,
            "one ready event per client + one per completion"
        );
        assert_eq!(r.pages, 64 * 16, "every 4x4 query reads 16 pages");
        assert_eq!(r.peak_in_flight, 3);
        assert!(ls.events.entries.is_empty());
    }

    #[test]
    fn serve_samples_fire_at_logical_intervals() {
        let (engine, queries) = serving_setup();
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = poisson_arrivals(&mut rng, 400, 80.0);
        let spec = ServeSpec::open(80.0).sampling(250.0).window(64);
        let mut ls = LoopScratch::new();
        let r = run(&engine, &spec, &queries, &arrivals, &mut ls);
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
        let (engine, queries) = serving_setup();
        let mut rng = StdRng::seed_from_u64(9);
        let arrivals = poisson_arrivals(&mut rng, 300, 60.0);
        let mut ls = LoopScratch::new();
        let plain = run(
            &engine,
            &ServeSpec::open(60.0),
            &queries,
            &arrivals,
            &mut ls,
        );
        let spec = ServeSpec::open(60.0).sampling(100.0).window(32);
        let sampled = run(&engine, &spec, &queries, &arrivals, &mut ls);
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
        let (engine, queries) = serving_setup();
        let n = queries.len() * 3 + 7;
        let arrivals: Vec<f64> = (0..n).map(|i| i as f64 * 5.0).collect();
        let mut ls = LoopScratch::new();
        let r = run(&engine, &ServeSpec::open(1.0), &queries, &arrivals, &mut ls);
        assert_eq!(r.report.queries, n);
        assert_eq!(r.events, 2 * n as u64);
    }

    fn faulted(schedule: FaultSchedule, replicas: u32, policy: ReplicaPolicy) -> ServeSpec {
        ServeSpec::open(60.0)
            .faults(schedule)
            .replicas(replicas)
            .policy(policy)
    }

    #[test]
    fn fault_free_degraded_serve_matches_the_healthy_router_bitwise() {
        let (engine, queries) = serving_setup();
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = poisson_arrivals(&mut rng, 300, 60.0);
        let mut ls = LoopScratch::new();
        let plain = run(
            &engine,
            &ServeSpec::open(60.0),
            &queries,
            &arrivals,
            &mut ls,
        );
        let healthy = FaultSchedule::healthy(8);
        for policy in [ReplicaPolicy::PrimaryOnly, ReplicaPolicy::FailoverOnly] {
            let spec = faulted(healthy.clone(), 1, policy);
            let degraded = run(&engine, &spec, &queries, &arrivals, &mut ls);
            let (a, b) = (&plain.report, &degraded.report);
            assert_eq!(a.makespan_ms.to_bits(), b.makespan_ms.to_bits(), "{policy}");
            assert_eq!(a.latency.mean.to_bits(), b.latency.mean.to_bits());
            assert_eq!(a.latency.max.to_bits(), b.latency.max.to_bits());
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            assert_eq!(a.tail, b.tail);
            assert_eq!(plain.events, degraded.events);
            assert_eq!(plain.peak_in_flight, degraded.peak_in_flight);
            assert_eq!(plain.pages, degraded.pages);
            let avail = degraded.availability.unwrap();
            assert_eq!(avail.served, 300);
            assert_eq!((avail.shed, avail.lost, avail.retries), (0, 0, 0));
            assert_eq!((avail.timeouts, avail.failovers), (0, 0));
            assert_eq!(avail.availability(), 1.0);
        }
    }

    #[test]
    fn primary_only_loses_requests_through_a_fail_stop() {
        let (engine, queries) = serving_setup();
        let mut rng = StdRng::seed_from_u64(5);
        let arrivals = poisson_arrivals(&mut rng, 200, 50.0);
        let schedule = FaultSchedule::healthy(8).fail_stop(3, 0).unwrap();
        let spec = faulted(schedule, 1, ReplicaPolicy::PrimaryOnly);
        let r = run(&engine, &spec, &queries, &arrivals, &mut LoopScratch::new());
        let a = r.availability.unwrap();
        assert!(a.lost > 0, "a permanently dead primary loses requests");
        assert!(a.retries > 0, "losses only follow exhausted retries");
        assert!(a.availability() < 1.0);
        assert_eq!(a.served + a.shed + a.lost, 200);
    }

    #[test]
    fn failover_serves_through_a_fail_stop() {
        let (engine, queries) = serving_setup();
        let mut rng = StdRng::seed_from_u64(5);
        let arrivals = poisson_arrivals(&mut rng, 200, 50.0);
        let schedule = FaultSchedule::healthy(8).fail_stop(3, 0).unwrap();
        let spec = faulted(schedule, 1, ReplicaPolicy::FailoverOnly);
        let a = run(&engine, &spec, &queries, &arrivals, &mut LoopScratch::new())
            .availability
            .unwrap();
        assert_eq!(a.lost, 0, "one failure never defeats a 1-chain");
        assert_eq!(a.served, 200);
        assert!(a.failovers > 0);
        assert!(a.timeouts > 0, "failover pays the detection timeout");
        assert_eq!(a.availability(), 1.0);
    }

    /// A batch that leaves its primary costs its pages at the load of the
    /// copy that serves it. One request on an array whose disks hold
    /// unequal page counts, with disk 3 down from the start, against
    /// per-disk costs summed by hand. The request reads the whole grid:
    /// only a batch of about a disk's every page has a seek cost that
    /// depends on the disk's load.
    #[test]
    fn failed_over_batches_are_costed_on_the_serving_copy() {
        let space = GridSpace::new_2d(30, 30).unwrap();
        let m = 8;
        let hcam = Hcam::new(&space, m).unwrap();
        let dir =
            decluster_grid::GridDirectory::build(space.clone(), m, |b| hcam.disk_of(b.as_slice()));
        let loads = dir.load_vector();
        assert_ne!(
            loads[3], loads[4],
            "900 buckets split unevenly over 8 disks"
        );
        let region = BucketRegion::new(
            &space,
            decluster_grid::BucketCoord::from([0, 0]),
            decluster_grid::BucketCoord::from([29, 29]),
        )
        .unwrap();
        let mut io = IoPlan::new();
        dir.io_plan_into(&region, &mut io);
        let params = DiskParams::default();
        let three = io.disk_pages(3).len() as u64;
        assert_ne!(
            params.batch_ms_counts(three, loads[3]),
            params.batch_ms_counts(three, loads[4])
        );
        // Every queue is empty at the arrival, so each batch stays on its
        // primary except disk 3's, which disk 4 serves ahead of its own.
        let mut busy = vec![0.0; m as usize];
        for d in 0..m as usize {
            let s = if d == 3 { 4 } else { d };
            busy[s] += params.batch_ms_counts(io.disk_pages(d).len() as u64, loads[s]);
        }
        let expected = busy.iter().copied().fold(0.0, f64::max);
        let engine = MultiUserEngine::new(&dir);
        for policy in [ReplicaPolicy::NearestFreeQueue, ReplicaPolicy::RoundRobin] {
            let schedule = FaultSchedule::healthy(m).fail_stop(3, 0).unwrap();
            let r = run(
                &engine,
                &faulted(schedule, 1, policy),
                std::slice::from_ref(&region),
                &[0.0],
                &mut LoopScratch::new(),
            );
            assert_eq!(r.availability.unwrap().failovers, 1, "{policy:?}");
            assert_eq!(
                r.report.makespan_ms.to_bits(),
                expected.to_bits(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn transient_outage_recovers_via_retries() {
        let (engine, queries) = serving_setup();
        // Constant arrivals across a 100..140 ms outage of disk 2.
        let arrivals: Vec<f64> = (0..100).map(|i| i as f64 * 4.0).collect();
        let schedule = FaultSchedule::healthy(8).transient(2, 100, 140).unwrap();
        let spec = faulted(schedule, 1, ReplicaPolicy::PrimaryOnly).retry(RetryPolicy {
            timeout_units: 2,
            max_retries: 5,
        });
        let r = run(&engine, &spec, &queries, &arrivals, &mut LoopScratch::new());
        let a = r.availability.unwrap();
        assert_eq!(a.transitions, 2, "outage start + recovery");
        assert!(a.retries > 0, "requests inside the window back off");
        assert_eq!(a.lost, 0, "backoff outlives the 40 ms outage");
        assert_eq!(a.served, 100);
        // Retried requests carry their backoff in the measured tail.
        assert!(r.report.latency.max > r.report.latency.mean);
    }

    #[test]
    fn shedding_bounds_in_flight() {
        let (engine, queries) = serving_setup();
        // An arrival burst far above service capacity.
        let arrivals: Vec<f64> = (0..300).map(|i| i as f64 * 0.1).collect();
        let spec = faulted(FaultSchedule::healthy(8), 1, ReplicaPolicy::PrimaryOnly).admission(4);
        let mut ls = LoopScratch::new();
        let r = run(&engine, &spec, &queries, &arrivals, &mut ls);
        let a = r.availability.unwrap();
        assert!(a.shed > 0, "overload must shed");
        assert!(r.peak_in_flight <= 4, "admission bound holds");
        assert_eq!(a.served + a.shed + a.lost, 300);
        assert!(a.availability() < 1.0);
        // Shed requests leave no latency sample behind.
        assert_eq!(ls.latencies.len() as u64, a.served);
    }

    #[test]
    fn balanced_policies_spread_load_across_live_copies() {
        let (engine, queries) = serving_setup();
        let arrivals: Vec<f64> = (0..200).map(|i| i as f64 * 2.0).collect();
        let mut ls = LoopScratch::new();
        let mut serve = |policy| {
            let spec = faulted(FaultSchedule::healthy(8), 2, policy);
            run(&engine, &spec, &queries, &arrivals, &mut ls)
        };
        let primary = serve(ReplicaPolicy::PrimaryOnly);
        let nearest = serve(ReplicaPolicy::NearestFreeQueue);
        let rr = serve(ReplicaPolicy::RoundRobin);
        for r in [&primary, &nearest, &rr] {
            let a = r.availability.unwrap();
            assert_eq!(a.served, 200);
            assert_eq!(a.lost + a.shed, 0);
        }
        assert_eq!(primary.availability.unwrap().failovers, 0);
        assert!(
            rr.availability.unwrap().failovers > 0,
            "round-robin rotates off the primary"
        );
        assert!(
            nearest.report.latency.mean <= primary.report.latency.mean,
            "queue-aware reads should not be slower than primary-only: {} > {}",
            nearest.report.latency.mean,
            primary.report.latency.mean
        );
    }

    /// The iterator definition of copy selection, kept as the reference
    /// that [`Pick::copy`] is checked against: the copy serving a batch
    /// whose primary is `d`, read from the health and queue snapshots.
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
            ReplicaPolicy::NearestFreeQueue | ReplicaPolicy::Spread => {
                (0..=replicas).filter(live).min_by(|&a, &b| {
                    disk_free_at[copy(a)]
                        .total_cmp(&disk_free_at[copy(b)])
                        .then(a.cmp(&b))
                })
            }
            ReplicaPolicy::RoundRobin => {
                let mut live_copies = (0..=replicas).filter(live);
                let n_live = live_copies.clone().count() as u64;
                live_copies.nth((query % n_live.max(1)) as usize)
            }
        };
        j.map(|j| copy(j) as u32)
    }

    /// Queue free times the selection proptest draws from: few, so that
    /// ties are common, with both zeros, and a NaN (which no queue holds)
    /// to pin the keys to `total_cmp`'s order everywhere.
    const FREE_AT: [f64; 6] = [-0.0, 0.0, 0.5, 3.0, f64::INFINITY, f64::NAN];

    fn disk_state() -> impl Strategy<Value = DiskState> {
        prop_oneof![
            Just(DiskState::Up),
            Just(DiskState::Down),
            (2u32..4).prop_map(|f| DiskState::Slow(f64::from(f))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The key-based pick equals the iterator definition, `None`
        /// included, for every policy and every primary (the chain wrap
        /// at M - 1 too) over random health and queue snapshots.
        #[test]
        fn picks_match_the_iterator_definition(
            (states, free) in (1usize..13).prop_flat_map(|m| (
                prop::collection::vec(disk_state(), m..m + 1),
                prop::collection::vec(0..FREE_AT.len(), m..m + 1),
            )),
            replicas in 0u32..12,
            query in any::<u64>(),
        ) {
            let m = states.len();
            let replicas = replicas % m as u32;
            let free_at: Vec<f64> = free.iter().map(|&i| FREE_AT[i]).collect();
            let keys: Vec<u64> = states
                .iter()
                .zip(&free_at)
                .map(|(&state, &t)| copy_key(state, t))
                .collect();
            let policies = ReplicaPolicy::ALL.into_iter().chain([ReplicaPolicy::Spread]);
            for policy in policies {
                for d in 0..m {
                    prop_assert_eq!(
                        Pick::of(policy).copy(&keys, d, replicas, query),
                        select_copy(d, query, replicas, policy, &states, &free_at),
                        "{:?}, primary {} of {}, r = {}", policy, d, m, replicas
                    );
                }
            }
        }
    }

    #[test]
    fn a_live_disk_never_keys_as_dead() {
        let all_ones_nan = f64::from_bits(u64::MAX >> 1);
        assert!(all_ones_nan.is_nan());
        assert_ne!(copy_key(DiskState::Up, all_ones_nan), DEAD);
        assert!(copy_key(DiskState::Up, f64::INFINITY) < copy_key(DiskState::Up, all_ones_nan));
        assert_eq!(copy_key(DiskState::Down, 0.0), DEAD);
    }

    #[test]
    fn degraded_serve_is_deterministic() {
        let (engine, queries) = serving_setup();
        let mut rng = StdRng::seed_from_u64(13);
        let arrivals = poisson_arrivals(&mut rng, 250, 60.0);
        let schedule =
            FaultSchedule::parse("fail:3@500,transient:5@200..400,slow:1x2@0..800", 8).unwrap();
        let spec = faulted(schedule, 2, ReplicaPolicy::FailoverOnly)
            .admission(64)
            .seed(42);
        let mut ls = LoopScratch::new();
        let a = run(&engine, &spec, &queries, &arrivals, &mut ls);
        let b = run(&engine, &spec, &queries, &arrivals, &mut ls);
        assert_eq!(
            a.report.makespan_ms.to_bits(),
            b.report.makespan_ms.to_bits()
        );
        assert_eq!(
            a.report.latency.mean.to_bits(),
            b.report.latency.mean.to_bits()
        );
        assert_eq!(a.availability, b.availability);
    }

    #[test]
    fn schedule_mismatch_is_an_error_not_a_panic() {
        let (engine, queries) = serving_setup();
        let err = faulted(FaultSchedule::healthy(4), 1, ReplicaPolicy::PrimaryOnly)
            .run_with_arrivals(
                &engine,
                &DiskParams::default(),
                &queries,
                &[1.0],
                &Obs::disabled(),
                &mut LoopScratch::new(),
            )
            .unwrap_err();
        assert!(matches!(err, crate::SimError::ScheduleMismatch { .. }));
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
