//! Deterministic fault models and degraded-mode query execution.
//!
//! The paper scopes failures out ("a data subspace can be assigned to
//! \[only\] one disk"), but a declustering method's value in a real
//! parallel I/O system is precisely its behavior when disks misbehave.
//! This module supplies the missing driver: a [`FaultSchedule`] describes
//! *when* each disk fails, recovers, or slows down on a **logical clock**
//! (the index of the query being served), and [`degraded_outcome`] turns
//! a query's per-disk access histogram into what actually happens —
//! served at a degraded response time, or [`QueryOutcome::Unavailable`]
//! when no live copy of some bucket exists.
//!
//! Keying fault states on logical time rather than wall-clock makes every
//! run reproducible under any `--threads` setting: the schedule is a pure
//! function of the query index, so the parallel sweep executor can hand
//! queries to any thread in any order without changing a single number.
//! (The serving loop reads the same schedules on its millisecond clock.)
//!
//! The failover model is chained declustering's: a failed disk's batch
//! moves to its chain successor `(d + 1) mod M` after a timeout and
//! bounded retries ([`RetryPolicy`]), so degraded response time is never
//! below the fault-free response time — the failed disk's entire share
//! lands on one survivor. Without replication a failed disk with touched
//! buckets makes the query unavailable instead.

use crate::events::{LoopScratch, Rows};
use crate::{DiskParams, MultiUserEngine, Result, ServeSpec, SimError, SpecError, Summary};
use decluster_grid::GridDirectory;
use decluster_obs::{Obs, TraceEvent};
use std::fmt::Write as _;

/// The state of one disk at one logical instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DiskState {
    /// Serving normally.
    Up,
    /// Fail-stopped or inside a transient outage window: serves nothing.
    Down,
    /// A "gray" disk: serving, but every batch takes `factor` times as
    /// long (`factor >= 1`).
    Slow(f64),
}

impl DiskState {
    /// Whether the disk can serve at all.
    pub fn is_live(self) -> bool {
        !matches!(self, DiskState::Down)
    }

    /// The latency multiplier this state imposes (1 for `Up`, the factor
    /// for `Slow`; meaningless for `Down`).
    pub fn latency_factor(self) -> f64 {
        match self {
            DiskState::Slow(f) => f,
            _ => 1.0,
        }
    }
}

/// One deterministic fault event on the logical clock. Intervals are
/// half-open: `from` is the first affected instant, `until` the first
/// unaffected one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// The disk stops at `at` and never returns.
    FailStop {
        /// Affected disk.
        disk: u32,
        /// First logical instant at which the disk is down.
        at: u64,
    },
    /// The disk is unavailable during `[from, until)` and then recovers.
    Transient {
        /// Affected disk.
        disk: u32,
        /// First down instant.
        from: u64,
        /// First instant back up.
        until: u64,
    },
    /// The disk serves at `factor`× latency during `[from, until)`.
    Slow {
        /// Affected disk.
        disk: u32,
        /// Latency multiplier, `>= 1`.
        factor: f64,
        /// First slow instant.
        from: u64,
        /// First instant back to full speed.
        until: u64,
    },
}

/// A deterministic fault schedule over `M` disks.
///
/// Built programmatically ([`FaultSchedule::fail_stop`] etc.) or parsed
/// from the CLI grammar ([`FaultSchedule::parse`]):
///
/// ```text
/// fail:<disk>@<t>                      fail-stop at logical time t
/// transient:<disk>@<from>..<until>     outage window [from, until)
/// slow:<disk>x<factor>@<from>..<until> gray disk at factor x latency
/// ```
///
/// Events are comma-separated; `none` (or an empty spec) is the healthy
/// schedule. `Down` wins over `Slow`; overlapping slow windows compose by
/// taking the largest factor.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSchedule {
    m: u32,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// The healthy schedule: no events over `m` disks.
    pub fn healthy(m: u32) -> Self {
        FaultSchedule {
            m,
            events: Vec::new(),
        }
    }

    /// Builds a schedule from pre-assembled events, validating each one:
    /// events addressed to disks `>= m`, empty windows, and gray-slow
    /// factors below 1 are rejected with the same one-line typed errors
    /// the incremental builders produce. This is the ingestion path for
    /// event lists assembled outside the builder chain (e.g. by the
    /// serving engine's fault-event plumbing).
    ///
    /// # Errors
    /// [`SimError::BadFaultSpec`] naming the offending event.
    pub fn from_events(m: u32, events: impl IntoIterator<Item = FaultEvent>) -> Result<Self> {
        let mut schedule = FaultSchedule::healthy(m);
        for event in events {
            schedule = match event {
                FaultEvent::FailStop { disk, at } => schedule.fail_stop(disk, at)?,
                FaultEvent::Transient { disk, from, until } => {
                    schedule.transient(disk, from, until)?
                }
                FaultEvent::Slow {
                    disk,
                    factor,
                    from,
                    until,
                } => schedule.slow(disk, factor, from, until)?,
            };
        }
        Ok(schedule)
    }

    fn check_disk(&self, disk: u32) -> Result<()> {
        if disk >= self.m {
            return Err(SimError::BadFaultSpec {
                spec: format!("disk {disk}"),
                reason: format!("disk index out of range (M = {})", self.m),
            });
        }
        Ok(())
    }

    fn check_window(from: u64, until: u64) -> Result<()> {
        if from >= until {
            return Err(SimError::BadFaultSpec {
                spec: format!("{from}..{until}"),
                reason: "window must satisfy from < until".into(),
            });
        }
        Ok(())
    }

    /// Adds a fail-stop of `disk` at logical time `at`.
    ///
    /// # Errors
    /// [`SimError::BadFaultSpec`] when `disk` is out of range.
    pub fn fail_stop(mut self, disk: u32, at: u64) -> Result<Self> {
        self.check_disk(disk)?;
        self.events.push(FaultEvent::FailStop { disk, at });
        Ok(self)
    }

    /// Adds a transient outage of `disk` over `[from, until)`.
    ///
    /// # Errors
    /// [`SimError::BadFaultSpec`] for an out-of-range disk or an empty
    /// window.
    pub fn transient(mut self, disk: u32, from: u64, until: u64) -> Result<Self> {
        self.check_disk(disk)?;
        Self::check_window(from, until)?;
        self.events
            .push(FaultEvent::Transient { disk, from, until });
        Ok(self)
    }

    /// Adds a gray-disk window: `disk` serves at `factor`× latency over
    /// `[from, until)`.
    ///
    /// # Errors
    /// [`SimError::BadFaultSpec`] for an out-of-range disk, an empty
    /// window, or a factor below 1 (a disk cannot get faster by failing —
    /// and the degraded ≥ healthy invariant depends on it).
    pub fn slow(mut self, disk: u32, factor: f64, from: u64, until: u64) -> Result<Self> {
        self.check_disk(disk)?;
        Self::check_window(from, until)?;
        if !factor.is_finite() || factor < 1.0 {
            return Err(SimError::BadFaultSpec {
                spec: format!("slow factor {factor}"),
                reason: "slow factor must be a finite number >= 1".into(),
            });
        }
        self.events.push(FaultEvent::Slow {
            disk,
            factor,
            from,
            until,
        });
        Ok(self)
    }

    /// Parses the CLI fault grammar (see the type docs) against `m`
    /// disks.
    ///
    /// # Errors
    /// [`SimError::BadFaultSpec`] naming the offending clause for any
    /// syntax or range problem.
    pub fn parse(spec: &str, m: u32) -> Result<Self> {
        let mut schedule = FaultSchedule::healthy(m);
        let trimmed = spec.trim();
        if trimmed.is_empty() || trimmed == "none" {
            return Ok(schedule);
        }
        for clause in trimmed.split(',') {
            let clause = clause.trim();
            let bad = |reason: &str| SimError::BadFaultSpec {
                spec: clause.to_owned(),
                reason: reason.to_owned(),
            };
            let (kind, rest) = clause.split_once(':').ok_or_else(|| {
                bad("expected fail:<disk>@<t>, transient:<disk>@<from>..<until>, or slow:<disk>x<factor>@<from>..<until>")
            })?;
            match kind {
                "fail" => {
                    let (disk, at) = rest
                        .split_once('@')
                        .ok_or_else(|| bad("expected fail:<disk>@<t>"))?;
                    let disk: u32 = disk.parse().map_err(|_| bad("disk must be an integer"))?;
                    let at: u64 = at.parse().map_err(|_| bad("time must be an integer"))?;
                    schedule = schedule.fail_stop(disk, at)?;
                }
                "transient" => {
                    let (disk, window) = rest
                        .split_once('@')
                        .ok_or_else(|| bad("expected transient:<disk>@<from>..<until>"))?;
                    let disk: u32 = disk.parse().map_err(|_| bad("disk must be an integer"))?;
                    let (from, until) = window
                        .split_once("..")
                        .ok_or_else(|| bad("window must be <from>..<until>"))?;
                    let from: u64 = from
                        .parse()
                        .map_err(|_| bad("window start must be an integer"))?;
                    let until: u64 = until
                        .parse()
                        .map_err(|_| bad("window end must be an integer"))?;
                    schedule = schedule.transient(disk, from, until)?;
                }
                "slow" => {
                    let (head, window) = rest
                        .split_once('@')
                        .ok_or_else(|| bad("expected slow:<disk>x<factor>@<from>..<until>"))?;
                    let (disk, factor) = head
                        .split_once('x')
                        .ok_or_else(|| bad("expected <disk>x<factor> before @"))?;
                    let disk: u32 = disk.parse().map_err(|_| bad("disk must be an integer"))?;
                    let factor: f64 = factor.parse().map_err(|_| bad("factor must be a number"))?;
                    let (from, until) = window
                        .split_once("..")
                        .ok_or_else(|| bad("window must be <from>..<until>"))?;
                    let from: u64 = from
                        .parse()
                        .map_err(|_| bad("window start must be an integer"))?;
                    let until: u64 = until
                        .parse()
                        .map_err(|_| bad("window end must be an integer"))?;
                    schedule = schedule.slow(disk, factor, from, until)?;
                }
                other => {
                    return Err(SimError::BadFaultSpec {
                        spec: clause.to_owned(),
                        reason: format!(
                            "unknown fault kind {other:?} (want fail, transient, or slow)"
                        ),
                    })
                }
            }
        }
        Ok(schedule)
    }

    /// Number of disks the schedule covers.
    pub fn num_disks(&self) -> u32 {
        self.m
    }

    /// The events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the schedule is the healthy one.
    pub fn is_healthy(&self) -> bool {
        self.events.is_empty()
    }

    /// The state of `disk` at logical time `t`. `Down` wins over `Slow`;
    /// overlapping slow windows take the largest factor.
    ///
    /// # Panics
    /// Panics if `disk` is out of range (schedules validate disks at
    /// construction, so this is a caller bug).
    pub fn state_at(&self, disk: u32, t: u64) -> DiskState {
        assert!(disk < self.m, "disk {disk} out of range (M = {})", self.m);
        let mut slow = 1.0f64;
        for event in &self.events {
            match *event {
                FaultEvent::FailStop { disk: d, at } if d == disk && t >= at => {
                    return DiskState::Down;
                }
                FaultEvent::Transient {
                    disk: d,
                    from,
                    until,
                } if d == disk && t >= from && t < until => {
                    return DiskState::Down;
                }
                FaultEvent::Slow {
                    disk: d,
                    factor,
                    from,
                    until,
                } if d == disk && t >= from && t < until => {
                    slow = slow.max(factor);
                }
                _ => {}
            }
        }
        if slow > 1.0 {
            DiskState::Slow(slow)
        } else {
            DiskState::Up
        }
    }

    /// Whether `disk` and its chained-declustering backup `(disk + 1)
    /// mod M` are both down at time `t` — the condition under which a
    /// batch on `disk` has no live copy and its query is unavailable.
    ///
    /// # Panics
    /// As [`FaultSchedule::state_at`].
    pub fn chain_dead(&self, disk: u32, t: u64) -> bool {
        self.replicas_dead(disk, t, 1)
    }

    /// Whether `disk` and all `r` of its chain successors are down at
    /// time `t` — under r-way chained replication the condition for a
    /// batch on `disk` to have no live copy. `replicas_dead(d, t, 1)` is
    /// [`FaultSchedule::chain_dead`].
    ///
    /// # Panics
    /// As [`FaultSchedule::state_at`].
    pub fn replicas_dead(&self, disk: u32, t: u64, replicas: u32) -> bool {
        self.first_live_copy(disk, t, replicas).is_none()
    }

    /// The chain offset `j in 0..=replicas` of the first live copy of a
    /// bucket whose primary is `disk` (`0` when the primary itself is
    /// live), or `None` when every copy is down at time `t`.
    ///
    /// # Panics
    /// As [`FaultSchedule::state_at`].
    pub fn first_live_copy(&self, disk: u32, t: u64, replicas: u32) -> Option<u32> {
        (0..=replicas).find(|&j| self.state_at((disk + j) % self.m, t).is_live())
    }

    /// The failed-disk mask at time `t`: `mask[d]` is true when disk `d`
    /// is down.
    pub fn failed_mask(&self, t: u64) -> Vec<bool> {
        (0..self.m)
            .map(|d| !self.state_at(d, t).is_live())
            .collect()
    }

    /// A one-line human description of the schedule.
    pub fn describe(&self) -> String {
        if self.is_healthy() {
            return "healthy".to_owned();
        }
        let mut out = String::new();
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match *event {
                FaultEvent::FailStop { disk, at } => {
                    let _ = write!(out, "fail:{disk}@{at}");
                }
                FaultEvent::Transient { disk, from, until } => {
                    let _ = write!(out, "transient:{disk}@{from}..{until}");
                }
                FaultEvent::Slow {
                    disk,
                    factor,
                    from,
                    until,
                } => {
                    let _ = write!(out, "slow:{disk}x{factor}@{from}..{until}");
                }
            }
        }
        out
    }
}

/// Timeout-and-retry behavior of a client whose batch hits a dead disk.
///
/// A batch to a down disk waits `timeout_units` response-time units, is
/// retried `max_retries` times (each retry paying the timeout again), and
/// then fails over to the chained backup. The total detection penalty of
/// `timeout_units × (1 + max_retries)` units is charged to the failover
/// batch before the backup disk starts serving it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Response-time units a batch waits before declaring its disk dead.
    pub timeout_units: u64,
    /// How many times the batch is retried before failing over.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    /// One unit of timeout and a single retry — failure detection costs
    /// two units before the failover batch is issued.
    fn default() -> Self {
        RetryPolicy {
            timeout_units: 1,
            max_retries: 1,
        }
    }
}

impl RetryPolicy {
    /// A policy with instant failure detection (no timeout, no retries).
    /// Degraded response times then are the chain's per-disk loads alone:
    /// a failed disk's batch lands on its first live successor at no
    /// extra charge.
    pub fn instant() -> Self {
        RetryPolicy {
            timeout_units: 0,
            max_retries: 0,
        }
    }

    /// Total detection cost before failover, in response-time units:
    /// `timeout_units × (1 + max_retries)`.
    pub fn detection_units(&self) -> u64 {
        self.timeout_units * (1 + u64::from(self.max_retries))
    }
}

/// How a read picks among the `1 + r` copies of a bucket under r-way
/// chained replication.
///
/// The first two treat replicas purely as failover insurance; the last
/// two use them as read bandwidth (the shared-I/O argument: replication
/// under load should be a throughput multiplier, not just a spare).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReplicaPolicy {
    /// Always read the primary; a down primary makes the batch's query
    /// unavailable. The no-replication-routing baseline.
    PrimaryOnly,
    /// Read the primary when it is live; otherwise walk the chain to the
    /// first live successor, paying the retry policy's timeout per dead
    /// copy skipped (failures are discovered by timing out, not by
    /// health gossip).
    FailoverOnly,
    /// Health-aware: read the live copy with the shortest queue (fewest
    /// accumulated load units / earliest free disk), tie-broken in chain
    /// order. No timeout penalty — routing already knows who is down.
    NearestFreeQueue,
    /// Health-aware load-balanced round-robin: rotate reads across the
    /// live copies keyed on the logical clock, spreading load evenly.
    RoundRobin,
    /// Page-granular spreading: split each disk's page batch across all
    /// live copies instead of routing the whole batch to one of them.
    /// The shared-scan policy — replicas become read bandwidth for a
    /// single (possibly merged) schedule. No timeout penalty.
    Spread,
}

impl ReplicaPolicy {
    /// Every whole-query routing policy, in report order. Excludes
    /// [`ReplicaPolicy::Spread`]: at whole-batch granularity spreading
    /// degenerates into [`ReplicaPolicy::NearestFreeQueue`]-style
    /// balancing, so the availability sweeps keep their four-policy axis
    /// and `spread` is exercised by the shared-scan path instead.
    pub const ALL: [ReplicaPolicy; 4] = [
        ReplicaPolicy::PrimaryOnly,
        ReplicaPolicy::FailoverOnly,
        ReplicaPolicy::NearestFreeQueue,
        ReplicaPolicy::RoundRobin,
    ];

    /// The accepted names and aliases, for error messages and CLI help.
    pub const ACCEPTED_NAMES: &'static str = "primary, failover, nearest, roundrobin, spread";

    /// Stable name (accepted back by [`ReplicaPolicy::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            ReplicaPolicy::PrimaryOnly => "primary",
            ReplicaPolicy::FailoverOnly => "failover",
            ReplicaPolicy::NearestFreeQueue => "nearest",
            ReplicaPolicy::RoundRobin => "roundrobin",
            ReplicaPolicy::Spread => "spread",
        }
    }

    /// Parses a policy from a (case-insensitive) name, mirroring
    /// `MethodKind::parse`. Equivalent to the [`std::str::FromStr`] impl.
    ///
    /// # Errors
    /// [`SimError::UnknownPolicy`] (which lists the accepted names) for
    /// anything else.
    pub fn parse(name: &str) -> Result<Self> {
        name.parse()
    }
}

impl std::str::FromStr for ReplicaPolicy {
    type Err = SimError;

    fn from_str(name: &str) -> Result<Self> {
        match name.to_ascii_lowercase().as_str() {
            "primary" | "primary-only" => Ok(ReplicaPolicy::PrimaryOnly),
            "failover" | "failover-only" => Ok(ReplicaPolicy::FailoverOnly),
            "nearest" | "nearest-free-queue" => Ok(ReplicaPolicy::NearestFreeQueue),
            "roundrobin" | "round-robin" | "rr" => Ok(ReplicaPolicy::RoundRobin),
            "spread" => Ok(ReplicaPolicy::Spread),
            _ => Err(SimError::UnknownPolicy { name: name.into() }),
        }
    }
}

impl std::fmt::Display for ReplicaPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened to one query under a fault schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Every touched bucket had a live copy; the query completed.
    Served {
        /// Degraded response time in bucket-retrieval units (including
        /// slow-disk inflation and timeout penalties).
        response_time: u64,
        /// Buckets served by a chain backup instead of their primary.
        failover_buckets: u64,
        /// Detection penalty units charged to failover batches (0 when
        /// nothing failed over).
        timeout_penalty: u64,
    },
    /// Some touched bucket had no live copy; the query cannot complete.
    /// An error outcome, not a panic.
    Unavailable {
        /// Buckets with no live copy.
        dead_buckets: u64,
    },
    // (An explicit enum rather than Result so that "the disk array lost
    // data" flows through statistics as a countable outcome.)
}

impl QueryOutcome {
    /// The response time, when served.
    pub fn response_time(&self) -> Option<u64> {
        match self {
            QueryOutcome::Served { response_time, .. } => Some(*response_time),
            QueryOutcome::Unavailable { .. } => None,
        }
    }

    /// Whether the query completed.
    pub fn is_served(&self) -> bool {
        matches!(self, QueryOutcome::Served { .. })
    }
}

/// Executes one query's access histogram against the fault schedule at
/// logical time `t` and returns its outcome, accumulating per-disk loads
/// into a caller-owned buffer (cleared and resized first) so per-query
/// stream scoring allocates nothing once the buffer has grown.
///
/// `hist[d]` is the number of the query's buckets whose *primary* lives
/// on disk `d` (from [`decluster_methods::DiskCounts::access_histogram`]
/// or the naive walk — identical either way). Each bucket has copies on
/// its primary and `replicas` chain successors, and `selection` decides
/// which live copy serves each batch.
///
/// * `replicas = 0` ignores `selection`: any touched down disk makes the
///   query unavailable.
/// * `replicas = 1` with [`ReplicaPolicy::FailoverOnly`] is the classic
///   chain: a down disk's batch moves to `(d + 1) mod M` after the
///   policy's detection penalty, so the served response time is never
///   below the fault-free `max(hist)`.
/// * [`ReplicaPolicy::PrimaryOnly`] never reads a backup, so a down
///   primary is an unavailability even when copies exist.
/// * [`ReplicaPolicy::FailoverOnly`] pays the retry policy's
///   `detection_units` once per dead copy skipped before the first live
///   one.
/// * [`ReplicaPolicy::NearestFreeQueue`] and [`ReplicaPolicy::RoundRobin`]
///   are health-aware (no timeout penalty) and may serve from a backup
///   even when the primary is live, spreading load across copies.
/// * [`ReplicaPolicy::Spread`] splits each disk's batch across *all*
///   live copies (page-granular balancing, no timeout penalty); with no
///   live copy the batch is unavailable like the others.
///
/// Deterministic for a given `(hist, schedule, t)`; batches are resolved
/// in disk order, so `NearestFreeQueue`'s queue lengths are well-defined.
///
/// # Errors
/// [`SimError::ScheduleMismatch`] if `hist.len()` differs from the
/// schedule's disk count (the histogram's allocation covers other
/// disks), and [`SpecError::TooManyReplicas`] if `replicas >= M` (an
/// r-way chain would wrap onto its own primary).
pub fn degraded_outcome(
    hist: &[u64],
    schedule: &FaultSchedule,
    t: u64,
    policy: &RetryPolicy,
    replicas: u32,
    selection: ReplicaPolicy,
    loads: &mut Vec<u64>,
) -> Result<QueryOutcome> {
    let m = schedule.num_disks() as usize;
    if hist.len() != m {
        return Err(SimError::ScheduleMismatch {
            schedule_disks: schedule.num_disks(),
            experiment_disks: hist.len() as u32,
        });
    }
    if replicas as usize >= m {
        return Err(SpecError::TooManyReplicas { replicas, disks: m }.into());
    }
    let scale = |count: u64, state: DiskState| -> u64 {
        match state {
            DiskState::Slow(f) => (count as f64 * f).ceil() as u64,
            _ => count,
        }
    };
    loads.clear();
    loads.resize(m, 0);
    let mut failover_buckets = 0u64;
    let mut timeout_penalty = 0u64;
    let mut dead_buckets = 0u64;
    for (d, &count) in hist.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let primary_state = schedule.state_at(d as u32, t);
        if selection == ReplicaPolicy::Spread && replicas > 0 {
            // Page-granular: split the batch across every live copy in
            // the chain instead of picking one serving offset.
            let live = || {
                (0..=replicas)
                    .filter(|&j| schedule.state_at((d as u32 + j) % m as u32, t).is_live())
            };
            let n_live = live().count() as u64;
            if n_live == 0 {
                dead_buckets += count;
                continue;
            }
            for (idx, j) in live().enumerate() {
                let share = count / n_live + u64::from((idx as u64) < count % n_live);
                if share == 0 {
                    continue;
                }
                let s = (d + j as usize) % m;
                loads[s] += scale(share, schedule.state_at(s as u32, t));
                if j > 0 {
                    failover_buckets += share;
                }
            }
            continue;
        }
        // The chain offset of the copy that serves this batch, or None
        // when the policy cannot reach a live copy.
        let serving_offset: Option<u32> = match selection {
            _ if replicas == 0 => primary_state.is_live().then_some(0),
            ReplicaPolicy::PrimaryOnly => primary_state.is_live().then_some(0),
            ReplicaPolicy::FailoverOnly => schedule.first_live_copy(d as u32, t, replicas),
            ReplicaPolicy::NearestFreeQueue => (0..=replicas)
                .filter(|&j| schedule.state_at((d as u32 + j) % m as u32, t).is_live())
                .min_by_key(|&j| (loads[(d + j as usize) % m], j)),
            ReplicaPolicy::RoundRobin => {
                let mut live = (0..=replicas)
                    .filter(|&j| schedule.state_at((d as u32 + j) % m as u32, t).is_live());
                let n_live = live.clone().count() as u64;
                live.nth((t % n_live.max(1)) as usize)
            }
            ReplicaPolicy::Spread => unreachable!("spread with replicas > 0 is handled above"),
        };
        let Some(j) = serving_offset else {
            dead_buckets += count;
            continue;
        };
        let serving = (d + j as usize) % m;
        let serving_state = schedule.state_at(serving as u32, t);
        let penalty = if selection == ReplicaPolicy::FailoverOnly {
            policy.detection_units() * u64::from(j)
        } else {
            0
        };
        loads[serving] += scale(count, serving_state) + penalty;
        if j > 0 {
            failover_buckets += count;
        }
        timeout_penalty += penalty;
    }
    if dead_buckets > 0 {
        return Ok(QueryOutcome::Unavailable { dead_buckets });
    }
    Ok(QueryOutcome::Served {
        response_time: loads.iter().copied().max().unwrap_or(0),
        failover_buckets,
        timeout_penalty,
    })
}

/// Per-method statistics of a fault-injection run: the healthy and
/// degraded response-time distributions side by side, plus availability.
#[derive(Clone, Debug)]
pub struct FaultMethodStats {
    /// Row label (`DM`, `DM+chain`, …).
    pub name: String,
    /// Fault-free response-time summary of the same query stream.
    pub healthy: Summary,
    /// Degraded response-time summary over the *served* queries.
    pub degraded: Summary,
    /// Queries that completed.
    pub served: usize,
    /// Queries with no live copy of some bucket.
    pub unavailable: usize,
    /// Fraction of queries served, in `[0, 1]`.
    pub availability: f64,
    /// Total buckets served by chain backups.
    pub failover_buckets: u64,
}

/// The output of a fault-injection experiment: one row per method
/// variant (unreplicated and `+chain`).
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// Human-readable experiment title.
    pub title: String,
    /// The schedule driving the run, as [`FaultSchedule::describe`]s it.
    pub schedule: String,
    /// One row per method variant.
    pub rows: Vec<FaultMethodStats>,
}

/// The outcome of rebuilding a failed disk from its chain replicas while
/// a foreground workload keeps running.
#[derive(Clone, Debug)]
pub struct RebuildReport {
    /// The disk being rebuilt.
    pub failed_disk: u32,
    /// Pages replayed from the replica disk.
    pub pages_rebuilt: u64,
    /// Wall-clock time (ms) until the last rebuild chunk was written.
    pub rebuild_ms: f64,
    /// Foreground throughput with all disks healthy, queries/s.
    pub healthy_qps: f64,
    /// Foreground throughput during the rebuild, queries/s.
    pub degraded_qps: f64,
    /// `healthy_qps / degraded_qps` — how much the rebuild (plus the
    /// failover load) slows the foreground; `>= 1` by construction.
    pub interference_factor: f64,
}

/// Pages per rebuild chunk: the replica disk interleaves one chunk of
/// sequential replica reads between foreground batches, the classic
/// throttled-rebuild policy.
const REBUILD_CHUNK_PAGES: u64 = 16;

/// Simulates rebuilding `failed`'s contents from its chain replica while
/// `queries` run closed-loop with `clients` users.
///
/// The replica source is the chain successor `(failed + 1) mod M`: it
/// holds the backup copy of every page the failed disk owned. Foreground
/// batches destined for the failed disk are served by the source too
/// (chained failover), and between foreground batches the source disk
/// reads one `REBUILD_CHUNK_PAGES`-page sequential chunk of replica
/// data until the whole failed disk has been replayed. Deterministic.
///
/// With `obs` live, records rebuild progress counters (`rebuild.pages`,
/// `rebuild.chunks`, `rebuild.interleaved_chunks`,
/// `rebuild.drained_chunks`) plus `rebuild_start` / `rebuild_done` trace
/// events, and the healthy baseline's `multiuser.*` metrics. Rebuild
/// stays entirely on the position model (page identities matter here:
/// the source disk replays the failed disk's replica pages interleaved
/// with its own), so the healthy baseline is a closed [`ServeSpec`] run
/// over position rows and both sides of the interference ratio use the
/// same elevator accounting.
///
/// # Errors
/// [`crate::SpecError::NoClients`] for zero clients;
/// [`SimError::BadFaultSpec`] when `failed` is out of range.
pub fn simulate_rebuild(
    dir: &GridDirectory,
    params: &DiskParams,
    failed: u32,
    queries: &[decluster_grid::BucketRegion],
    clients: usize,
    obs: &Obs,
) -> Result<RebuildReport> {
    let baseline = ServeSpec::closed(clients);
    baseline.validate(dir.num_disks() as usize)?;
    let m = dir.num_disks();
    if failed >= m {
        return Err(SimError::BadFaultSpec {
            spec: format!("disk {failed}"),
            reason: format!("rebuild target out of range (M = {m})"),
        });
    }
    let m = m as usize;
    let source = (failed as usize + 1) % m;
    let loads = dir.load_vector();
    let pages_rebuilt = loads[failed as usize];
    let chunk_pages: Vec<u64> = (0..REBUILD_CHUNK_PAGES.min(pages_rebuilt.max(1))).collect();
    let chunk_ms = params.batch_ms(&chunk_pages, loads[source]);
    let total_chunks = pages_rebuilt.div_ceil(REBUILD_CHUNK_PAGES);
    let mut chunks_left = total_chunks;

    if obs.enabled() {
        obs.counter_add("rebuild.pages", pages_rebuilt);
        obs.counter_add("rebuild.chunks", total_chunks);
    }
    if obs.trace_enabled() {
        obs.emit(
            TraceEvent::new("rebuild_start")
                .with("failed_disk", failed)
                .with("source_disk", source)
                .with("pages", pages_rebuilt)
                .with("chunks", total_chunks),
        );
    }

    let healthy = baseline
        .serve_rows(
            &MultiUserEngine::with_kernel(dir, None),
            Rows::Positions,
            params,
            queries,
            &[],
            obs,
            &mut LoopScratch::new(),
        )?
        .report;

    // Degraded closed loop: the failed disk's batches are redirected to
    // the source, which also interleaves one rebuild chunk before each
    // foreground batch it serves.
    let mut plan = decluster_grid::IoPlan::new();
    let mut disk_free_at = vec![0.0f64; m];
    let mut clients_ready = vec![0.0f64; clients];
    let mut makespan: f64 = 0.0;
    for region in queries {
        // The least-busy client issues next (deterministic tie-break on
        // index, matching a min-heap over ready times).
        let (slot, _) = clients_ready
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
            .expect("clients > 0");
        let issue_at = clients_ready[slot];
        dir.io_plan_into(region, &mut plan);
        let mut completion = issue_at;
        for d in 0..m {
            // Chained failover: the failed disk's pages move to the
            // source, which serves them merged with its own in one
            // elevator pass (both runs are sorted).
            if d == failed as usize && d != source {
                continue;
            }
            let pages = plan.disk_pages(d);
            let moved = if d == source && d != failed as usize {
                plan.disk_pages(failed as usize)
            } else {
                &[]
            };
            if pages.is_empty() && moved.is_empty() {
                continue;
            }
            let mut start = issue_at.max(disk_free_at[d]);
            if d == source && chunks_left > 0 {
                // One rebuild chunk jumps the queue ahead of this batch.
                start += chunk_ms;
                chunks_left -= 1;
            }
            let service = params.batch_ms_merged(pages, moved, loads[d]);
            disk_free_at[d] = start + service;
            completion = completion.max(start + service);
        }
        makespan = makespan.max(completion);
        clients_ready[slot] = completion;
    }
    // Remaining chunks drain back-to-back once the foreground is done.
    let rebuild_ms = disk_free_at[source] + chunks_left as f64 * chunk_ms;
    if obs.enabled() {
        obs.counter_add("rebuild.interleaved_chunks", total_chunks - chunks_left);
        obs.counter_add("rebuild.drained_chunks", chunks_left);
    }

    let degraded_qps = if makespan > 0.0 {
        queries.len() as f64 / (makespan / 1000.0)
    } else {
        0.0
    };
    let interference_factor = if degraded_qps > 0.0 {
        healthy.throughput_qps / degraded_qps
    } else {
        1.0
    };
    if obs.trace_enabled() {
        obs.emit(
            TraceEvent::new("rebuild_done")
                .with("failed_disk", failed)
                .with("rebuild_ms", rebuild_ms)
                .with("interference_factor", interference_factor),
        );
    }
    Ok(RebuildReport {
        failed_disk: failed,
        pages_rebuilt,
        rebuild_ms,
        healthy_qps: healthy.throughput_qps,
        degraded_qps,
        interference_factor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic two-mode outcome, unreplicated or chained to the one
    /// successor `(d + 1) mod M`: the reference the r-way
    /// [`degraded_outcome`] is pinned to.
    fn chained_outcome(
        hist: &[u64],
        schedule: &FaultSchedule,
        t: u64,
        policy: &RetryPolicy,
        chained: bool,
        loads: &mut Vec<u64>,
    ) -> QueryOutcome {
        let m = schedule.num_disks() as usize;
        assert_eq!(hist.len(), m, "histogram arity {} != M = {m}", hist.len());
        let scale = |count: u64, state: DiskState| -> u64 {
            match state {
                DiskState::Slow(f) => (count as f64 * f).ceil() as u64,
                _ => count,
            }
        };
        loads.clear();
        loads.resize(m, 0);
        let mut failover_buckets = 0u64;
        let mut timeout_penalty = 0u64;
        let mut dead_buckets = 0u64;
        for (d, &count) in hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let state = schedule.state_at(d as u32, t);
            if state.is_live() {
                loads[d] += scale(count, state);
                continue;
            }
            if !chained {
                dead_buckets += count;
                continue;
            }
            let backup = (d + 1) % m;
            let backup_state = schedule.state_at(backup as u32, t);
            if !backup_state.is_live() {
                dead_buckets += count;
                continue;
            }
            // The whole batch moves to the chain successor after detection.
            loads[backup] += scale(count, backup_state) + policy.detection_units();
            failover_buckets += count;
            timeout_penalty += policy.detection_units();
        }
        if dead_buckets > 0 {
            return QueryOutcome::Unavailable { dead_buckets };
        }
        QueryOutcome::Served {
            response_time: loads.iter().copied().max().unwrap_or(0),
            failover_buckets,
            timeout_penalty,
        }
    }

    fn classic(
        hist: &[u64],
        schedule: &FaultSchedule,
        t: u64,
        policy: &RetryPolicy,
        chained: bool,
    ) -> QueryOutcome {
        chained_outcome(hist, schedule, t, policy, chained, &mut Vec::new())
    }

    #[test]
    fn chain_dead_needs_both_links_down() {
        let s = FaultSchedule::healthy(4)
            .fail_stop(1, 0)
            .unwrap()
            .fail_stop(2, 10)
            .unwrap();
        // Only disk 1 down: its backup (2) is still live.
        assert!(!s.chain_dead(1, 5));
        // After t=10 both 1 and 2 are down: 1's chain is dead, and so is
        // 2's only if disk 3 is down too (it is not).
        assert!(s.chain_dead(1, 10));
        assert!(!s.chain_dead(2, 10));
        // Wrap-around: backup of the last disk is disk 0.
        let wrap = FaultSchedule::healthy(4)
            .fail_stop(3, 0)
            .unwrap()
            .fail_stop(0, 0)
            .unwrap();
        assert!(wrap.chain_dead(3, 0));
    }

    #[test]
    fn healthy_schedule_reports_everything_up() {
        let s = FaultSchedule::healthy(4);
        assert!(s.is_healthy());
        assert_eq!(s.describe(), "healthy");
        for d in 0..4 {
            for t in [0, 5, 1000] {
                assert_eq!(s.state_at(d, t), DiskState::Up);
            }
        }
        assert_eq!(s.failed_mask(7), vec![false; 4]);
    }

    #[test]
    fn fail_stop_is_permanent() {
        let s = FaultSchedule::healthy(4).fail_stop(2, 10).unwrap();
        assert_eq!(s.state_at(2, 9), DiskState::Up);
        assert_eq!(s.state_at(2, 10), DiskState::Down);
        assert_eq!(s.state_at(2, 1_000_000), DiskState::Down);
        assert_eq!(s.state_at(1, 10), DiskState::Up);
        assert_eq!(s.failed_mask(10), vec![false, false, true, false]);
    }

    #[test]
    fn transient_window_recovers() {
        let s = FaultSchedule::healthy(3).transient(0, 5, 8).unwrap();
        assert_eq!(s.state_at(0, 4), DiskState::Up);
        assert_eq!(s.state_at(0, 5), DiskState::Down);
        assert_eq!(s.state_at(0, 7), DiskState::Down);
        assert_eq!(s.state_at(0, 8), DiskState::Up);
    }

    #[test]
    fn slow_windows_compose_by_max_and_down_wins() {
        let s = FaultSchedule::healthy(2)
            .slow(1, 2.0, 0, 10)
            .unwrap()
            .slow(1, 3.0, 5, 10)
            .unwrap()
            .transient(1, 8, 9)
            .unwrap();
        assert_eq!(s.state_at(1, 2), DiskState::Slow(2.0));
        assert_eq!(s.state_at(1, 6), DiskState::Slow(3.0));
        assert_eq!(s.state_at(1, 8), DiskState::Down);
        assert_eq!(s.state_at(1, 9), DiskState::Slow(3.0));
        assert_eq!(s.state_at(1, 10), DiskState::Up);
        assert!((DiskState::Slow(3.0).latency_factor() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(FaultSchedule::healthy(4).fail_stop(4, 0).is_err());
        assert!(FaultSchedule::healthy(4).transient(0, 5, 5).is_err());
        assert!(FaultSchedule::healthy(4).transient(0, 6, 5).is_err());
        assert!(FaultSchedule::healthy(4).slow(0, 0.5, 0, 5).is_err());
        assert!(FaultSchedule::healthy(4).slow(0, f64::NAN, 0, 5).is_err());
        assert!(FaultSchedule::healthy(4).slow(0, 1.5, 0, 5).is_ok());
    }

    #[test]
    fn parse_roundtrips_the_grammar() {
        let spec = "fail:2@10, transient:0@5..8, slow:1x2.5@0..100";
        let s = FaultSchedule::parse(spec, 4).unwrap();
        assert_eq!(s.events().len(), 3);
        assert_eq!(s.state_at(2, 10), DiskState::Down);
        assert_eq!(s.state_at(0, 6), DiskState::Down);
        assert_eq!(s.state_at(1, 50), DiskState::Slow(2.5));
        // describe() re-emits the grammar, which re-parses identically.
        let reparsed = FaultSchedule::parse(&s.describe(), 4).unwrap();
        assert_eq!(reparsed, s);
    }

    #[test]
    fn parse_accepts_empty_and_none() {
        assert!(FaultSchedule::parse("", 4).unwrap().is_healthy());
        assert!(FaultSchedule::parse("none", 4).unwrap().is_healthy());
        assert!(FaultSchedule::parse("  none  ", 4).unwrap().is_healthy());
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "zorp:1@2",
            "fail:1",
            "fail:x@2",
            "fail:1@y",
            "fail:9@2", // disk out of range for m = 4
            "transient:0@5",
            "transient:0@8..5",
            "slow:0@1..2",     // missing factor
            "slow:0x0.5@1..2", // factor < 1
            "slow:0xq@1..2",
            "fail:1@2, zorp",
        ] {
            let err = FaultSchedule::parse(bad, 4).unwrap_err();
            assert!(
                matches!(err, SimError::BadFaultSpec { .. }),
                "{bad}: {err:?}"
            );
            // Error message is one line (CLI prints it verbatim).
            assert!(!err.to_string().contains('\n'), "{bad}");
        }
    }

    /// Every way the corpus disturbs a seed: each truncation, each
    /// single-character deletion, and each substitution or insertion of
    /// a character from `alphabet`.
    fn mutants(seed: &str, alphabet: &str) -> Vec<String> {
        let cuts: Vec<usize> = seed
            .char_indices()
            .map(|(i, _)| i)
            .chain([seed.len()])
            .collect();
        let mut out = Vec::new();
        for (n, &i) in cuts.iter().enumerate() {
            let (head, tail) = seed.split_at(i);
            out.push(head.to_owned());
            out.extend(alphabet.chars().map(|c| format!("{head}{c}{tail}")));
            if let Some(&j) = cuts.get(n + 1) {
                out.push(format!("{head}{}", &seed[j..]));
                out.extend(alphabet.chars().map(|c| format!("{head}{c}{}", &seed[j..])));
            }
        }
        out
    }

    /// The `--faults` grammar corpus: mutants of the two schedules CI
    /// runs. No input may panic; an error is a one-line
    /// `BadFaultSpec`; an accepted schedule answers `state_at` for every
    /// disk, and a non-healthy one round-trips through `describe`.
    #[test]
    fn fault_grammar_corpus_parses_or_errors_in_one_line() {
        let seeds = [
            "fail:3@50,transient:5@10..40,slow:7x2.5@0..60",
            "fail:3@20000,transient:7@5000..15000,slow:11x2@0..10000",
        ];
        let alphabet = "fail:trnsentowx@.,0123456789-+e ";
        let mut accepted = 0;
        let mut inputs = 0;
        for spec in seeds.iter().flat_map(|s| mutants(s, alphabet)) {
            inputs += 1;
            let schedule = match FaultSchedule::parse(&spec, 16) {
                Ok(schedule) => schedule,
                Err(err) => {
                    assert!(
                        matches!(err, SimError::BadFaultSpec { .. }),
                        "{spec:?}: {err:?}"
                    );
                    assert!(!err.to_string().contains('\n'), "{spec:?}");
                    continue;
                }
            };
            accepted += 1;
            for disk in 0..16 {
                for t in [0, 10, 50, 60, 5_000, 15_000, 20_000, u64::MAX] {
                    match schedule.state_at(disk, t) {
                        DiskState::Up | DiskState::Down => {}
                        DiskState::Slow(f) => assert!(f.is_finite() && f > 1.0, "{spec:?}"),
                    }
                }
            }
            if !schedule.is_healthy() {
                let again = FaultSchedule::parse(&schedule.describe(), 16);
                assert_eq!(again.ok().as_ref(), Some(&schedule), "{spec:?}");
            }
        }
        assert!(accepted > 0 && accepted < inputs);
    }

    #[test]
    fn degraded_outcome_healthy_matches_plain_rt() {
        let s = FaultSchedule::healthy(4);
        let hist = [3u64, 1, 0, 2];
        let out = classic(&hist, &s, 0, &RetryPolicy::default(), true);
        assert_eq!(
            out,
            QueryOutcome::Served {
                response_time: 3,
                failover_buckets: 0,
                timeout_penalty: 0
            }
        );
        assert_eq!(out.response_time(), Some(3));
        assert!(out.is_served());
    }

    #[test]
    fn failed_primary_fails_over_to_chain_successor() {
        let s = FaultSchedule::healthy(4).fail_stop(0, 0).unwrap();
        let hist = [3u64, 1, 0, 2];
        // Instant detection: disk 1 inherits disk 0's 3 buckets -> load 4.
        let out = classic(&hist, &s, 0, &RetryPolicy::instant(), true);
        assert_eq!(
            out,
            QueryOutcome::Served {
                response_time: 4,
                failover_buckets: 3,
                timeout_penalty: 0
            }
        );
        // Default policy adds 2 detection units to the failover batch.
        let out = classic(&hist, &s, 0, &RetryPolicy::default(), true);
        assert_eq!(
            out,
            QueryOutcome::Served {
                response_time: 6,
                failover_buckets: 3,
                timeout_penalty: 2
            }
        );
    }

    #[test]
    fn unreplicated_failure_is_unavailable_not_a_panic() {
        let s = FaultSchedule::healthy(4).fail_stop(0, 0).unwrap();
        let hist = [3u64, 1, 0, 2];
        let out = classic(&hist, &s, 0, &RetryPolicy::default(), false);
        assert_eq!(out, QueryOutcome::Unavailable { dead_buckets: 3 });
        assert_eq!(out.response_time(), None);
        // A query not touching the failed disk is unaffected.
        let out = classic(&[0, 1, 0, 2], &s, 0, &RetryPolicy::default(), false);
        assert_eq!(
            out,
            QueryOutcome::Served {
                response_time: 2,
                failover_buckets: 0,
                timeout_penalty: 0
            }
        );
    }

    #[test]
    fn adjacent_double_failure_is_unavailable_even_chained() {
        let s = FaultSchedule::healthy(4)
            .fail_stop(0, 0)
            .unwrap()
            .fail_stop(1, 0)
            .unwrap();
        let out = classic(&[2, 1, 1, 1], &s, 0, &RetryPolicy::default(), true);
        assert_eq!(out, QueryOutcome::Unavailable { dead_buckets: 2 });
        // Non-adjacent double failure with chaining still serves.
        let s2 = FaultSchedule::healthy(4)
            .fail_stop(0, 0)
            .unwrap()
            .fail_stop(2, 0)
            .unwrap();
        let out = classic(&[2, 1, 1, 1], &s2, 0, &RetryPolicy::instant(), true);
        assert_eq!(
            out,
            QueryOutcome::Served {
                response_time: 3,
                failover_buckets: 3,
                timeout_penalty: 0
            }
        );
    }

    #[test]
    fn slow_disk_inflates_by_ceil() {
        let s = FaultSchedule::healthy(2).slow(0, 1.5, 0, 10).unwrap();
        // 3 buckets at 1.5x -> ceil(4.5) = 5.
        let out = classic(&[3, 1], &s, 5, &RetryPolicy::default(), true);
        assert_eq!(
            out,
            QueryOutcome::Served {
                response_time: 5,
                failover_buckets: 0,
                timeout_penalty: 0
            }
        );
        // Outside the window the disk is back to full speed.
        let out = classic(&[3, 1], &s, 10, &RetryPolicy::default(), true);
        assert_eq!(out.response_time(), Some(3));
    }

    #[test]
    fn failover_onto_a_slow_backup_scales_too() {
        let s = FaultSchedule::healthy(3)
            .fail_stop(0, 0)
            .unwrap()
            .slow(1, 2.0, 0, 10)
            .unwrap();
        // Disk 0's 2 buckets land on slow disk 1: ceil(2*2) + 0 penalty,
        // plus disk 1's own 1 bucket also at 2x.
        let out = classic(&[2, 1, 1], &s, 0, &RetryPolicy::instant(), true);
        // loads[1] = ceil(1*2) + ceil(2*2) = 6.
        assert_eq!(out.response_time(), Some(6));
    }

    #[test]
    fn degraded_rt_never_beats_healthy_rt() {
        // Exhaustive-ish sweep: random-ish histograms under several
        // schedules; served outcomes are always >= max(hist).
        let schedules = [
            FaultSchedule::healthy(5),
            FaultSchedule::healthy(5).fail_stop(2, 0).unwrap(),
            FaultSchedule::healthy(5).slow(0, 3.0, 0, 100).unwrap(),
            FaultSchedule::healthy(5)
                .fail_stop(4, 0)
                .unwrap()
                .slow(0, 1.5, 0, 50)
                .unwrap(),
        ];
        for (i, schedule) in schedules.iter().enumerate() {
            for seed in 0u64..50 {
                let hist: Vec<u64> = (0..5)
                    .map(|d| (seed.wrapping_mul(d + 3).wrapping_mul(2654435761) >> 29) % 7)
                    .collect();
                let healthy = hist.iter().copied().max().unwrap();
                for t in [0u64, 25, 75] {
                    let out = classic(&hist, schedule, t, &RetryPolicy::default(), true);
                    if let Some(rt) = out.response_time() {
                        assert!(
                            rt >= healthy,
                            "schedule {i} t {t} hist {hist:?}: {rt} < {healthy}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mismatched_histogram_is_a_schedule_mismatch() {
        let s = FaultSchedule::healthy(4);
        let err = degraded_outcome(
            &[1, 2],
            &s,
            0,
            &RetryPolicy::default(),
            1,
            ReplicaPolicy::FailoverOnly,
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::ScheduleMismatch {
                schedule_disks: 4,
                experiment_disks: 2
            }
        ));
    }

    #[test]
    fn a_chain_as_long_as_the_array_is_too_many_replicas() {
        let s = FaultSchedule::healthy(4);
        let err = degraded_outcome(
            &[1, 2, 0, 1],
            &s,
            0,
            &RetryPolicy::default(),
            4,
            ReplicaPolicy::FailoverOnly,
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::Spec(SpecError::TooManyReplicas {
                replicas: 4,
                disks: 4
            })
        ));
    }

    #[test]
    fn from_events_validates_every_event() {
        let ok = FaultSchedule::from_events(
            4,
            [
                FaultEvent::FailStop { disk: 1, at: 5 },
                FaultEvent::Slow {
                    disk: 0,
                    factor: 2.0,
                    from: 0,
                    until: 9,
                },
            ],
        )
        .unwrap();
        assert_eq!(ok.events().len(), 2);
        for (bad, what) in [
            (FaultEvent::FailStop { disk: 4, at: 0 }, "disk >= M"),
            (
                FaultEvent::Transient {
                    disk: 0,
                    from: 9,
                    until: 3,
                },
                "empty window",
            ),
            (
                FaultEvent::Slow {
                    disk: 0,
                    factor: 0.5,
                    from: 0,
                    until: 9,
                },
                "slow factor < 1",
            ),
            (
                FaultEvent::Slow {
                    disk: 0,
                    factor: f64::NAN,
                    from: 0,
                    until: 9,
                },
                "non-finite factor",
            ),
        ] {
            let err = FaultSchedule::from_events(4, [bad]).unwrap_err();
            assert!(
                matches!(err, SimError::BadFaultSpec { .. }),
                "{what}: {err:?}"
            );
            assert!(!err.to_string().contains('\n'), "one-line error for {what}");
        }
    }

    #[test]
    fn replicas_dead_generalizes_chain_dead() {
        let s = FaultSchedule::healthy(5)
            .fail_stop(1, 0)
            .unwrap()
            .fail_stop(2, 0)
            .unwrap()
            .fail_stop(3, 0)
            .unwrap();
        // r = 1: disk 1's only backup (2) is down.
        assert!(s.replicas_dead(1, 0, 1));
        assert_eq!(s.replicas_dead(1, 0, 1), s.chain_dead(1, 0));
        // r = 2: copies {1,2,3} all down.
        assert!(s.replicas_dead(1, 0, 2));
        // r = 3: copy on disk 4 is live.
        assert!(!s.replicas_dead(1, 0, 3));
        assert_eq!(s.first_live_copy(1, 0, 3), Some(3));
        assert_eq!(s.first_live_copy(0, 0, 2), Some(0));
        assert_eq!(s.first_live_copy(1, 0, 2), None);
    }

    #[test]
    fn policy_names_roundtrip_and_reject_unknowns() {
        for p in ReplicaPolicy::ALL
            .into_iter()
            .chain(std::iter::once(ReplicaPolicy::Spread))
        {
            assert_eq!(ReplicaPolicy::parse(p.name()).unwrap(), p);
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(
            ReplicaPolicy::parse("Round-Robin").unwrap(),
            ReplicaPolicy::RoundRobin
        );
        assert_eq!(
            ReplicaPolicy::parse("NEAREST").unwrap(),
            ReplicaPolicy::NearestFreeQueue
        );
        assert_eq!(
            ReplicaPolicy::parse("SPREAD").unwrap(),
            ReplicaPolicy::Spread
        );
        // Spread is deliberately absent from the whole-query policy axis.
        assert!(!ReplicaPolicy::ALL.contains(&ReplicaPolicy::Spread));
        let err = ReplicaPolicy::parse("zorp").unwrap_err();
        assert!(matches!(err, SimError::UnknownPolicy { .. }));
        let msg = err.to_string();
        assert!(msg.contains("unknown replica policy"), "{msg}");
        for name in ["primary", "failover", "nearest", "roundrobin", "spread"] {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
        assert!(!msg.contains('\n'), "one-line error: {msg}");
    }

    #[test]
    fn r1_failover_matches_the_classic_chain_outcome() {
        let schedules = [
            FaultSchedule::healthy(5),
            FaultSchedule::healthy(5).fail_stop(2, 0).unwrap(),
            FaultSchedule::healthy(5)
                .fail_stop(0, 0)
                .unwrap()
                .fail_stop(1, 0)
                .unwrap(),
            FaultSchedule::healthy(5)
                .fail_stop(4, 0)
                .unwrap()
                .slow(0, 1.5, 0, 50)
                .unwrap(),
        ];
        let mut a = Vec::new();
        let mut b = Vec::new();
        for schedule in &schedules {
            for seed in 0u64..40 {
                let hist: Vec<u64> = (0..5)
                    .map(|d| (seed.wrapping_mul(d + 3).wrapping_mul(2654435761) >> 29) % 7)
                    .collect();
                for t in [0u64, 25, 75] {
                    for policy in [RetryPolicy::default(), RetryPolicy::instant()] {
                        let classic = chained_outcome(&hist, schedule, t, &policy, true, &mut a);
                        let rway = degraded_outcome(
                            &hist,
                            schedule,
                            t,
                            &policy,
                            1,
                            ReplicaPolicy::FailoverOnly,
                            &mut b,
                        )
                        .unwrap();
                        assert_eq!(classic, rway, "hist {hist:?} t {t}");
                        let unreplicated =
                            chained_outcome(&hist, schedule, t, &policy, false, &mut a);
                        let r0 = degraded_outcome(
                            &hist,
                            schedule,
                            t,
                            &policy,
                            0,
                            ReplicaPolicy::FailoverOnly,
                            &mut b,
                        )
                        .unwrap();
                        assert_eq!(unreplicated, r0, "hist {hist:?} t {t} (r = 0)");
                    }
                }
            }
        }
    }

    #[test]
    fn primary_only_ignores_live_backups() {
        let s = FaultSchedule::healthy(4).fail_stop(0, 0).unwrap();
        let out = degraded_outcome(
            &[2, 1, 1, 1],
            &s,
            0,
            &RetryPolicy::instant(),
            2,
            ReplicaPolicy::PrimaryOnly,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(out, QueryOutcome::Unavailable { dead_buckets: 2 });
    }

    #[test]
    fn deeper_chains_survive_adjacent_double_failures() {
        let s = FaultSchedule::healthy(4)
            .fail_stop(0, 0)
            .unwrap()
            .fail_stop(1, 0)
            .unwrap();
        let hist = [2u64, 1, 1, 1];
        // r = 1 dies (0's backup is 1); r = 2 fails over to disk 2.
        let r1 = degraded_outcome(
            &hist,
            &s,
            0,
            &RetryPolicy::instant(),
            1,
            ReplicaPolicy::FailoverOnly,
            &mut Vec::new(),
        )
        .unwrap();
        assert!(!r1.is_served());
        let r2 = degraded_outcome(
            &hist,
            &s,
            0,
            &RetryPolicy::instant(),
            2,
            ReplicaPolicy::FailoverOnly,
            &mut Vec::new(),
        )
        .unwrap();
        // Disk 2 serves its own 1 + disk 0's 2 + disk 1's 1 = 4.
        assert_eq!(
            r2,
            QueryOutcome::Served {
                response_time: 4,
                failover_buckets: 3,
                timeout_penalty: 0
            }
        );
        // With the default policy each skipped dead copy costs the
        // detection units: disk 0's batch skips two dead copies (2×2),
        // disk 1's skips one (2).
        let r2 = degraded_outcome(
            &hist,
            &s,
            0,
            &RetryPolicy::default(),
            2,
            ReplicaPolicy::FailoverOnly,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(
            r2,
            QueryOutcome::Served {
                response_time: 4 + 6,
                failover_buckets: 3,
                timeout_penalty: 6
            }
        );
    }

    #[test]
    fn nearest_free_queue_balances_across_copies() {
        // Healthy, r = 1: every batch may use primary or its successor;
        // nearest-free-queue picks whichever queue is shorter at that
        // point, so the max load can only improve on primary-only.
        let s = FaultSchedule::healthy(4);
        let hist = [6u64, 0, 2, 0];
        let nearest = degraded_outcome(
            &hist,
            &s,
            0,
            &RetryPolicy::instant(),
            1,
            ReplicaPolicy::NearestFreeQueue,
            &mut Vec::new(),
        )
        .unwrap();
        let primary = degraded_outcome(
            &hist,
            &s,
            0,
            &RetryPolicy::instant(),
            1,
            ReplicaPolicy::PrimaryOnly,
            &mut Vec::new(),
        )
        .unwrap();
        assert!(nearest.response_time().unwrap() <= primary.response_time().unwrap());
        assert!(nearest.is_served());
    }

    #[test]
    fn round_robin_rotates_on_the_logical_clock() {
        let s = FaultSchedule::healthy(3);
        let hist = [3u64, 0, 0];
        // r = 2, all live: t selects copy t % 3 for disk 0's batch.
        for t in 0u64..6 {
            let out = degraded_outcome(
                &hist,
                &s,
                t,
                &RetryPolicy::instant(),
                2,
                ReplicaPolicy::RoundRobin,
                &mut Vec::new(),
            )
            .unwrap();
            let expect_failover = if t % 3 == 0 { 0 } else { 3 };
            assert_eq!(
                out,
                QueryOutcome::Served {
                    response_time: 3,
                    failover_buckets: expect_failover,
                    timeout_penalty: 0
                },
                "t = {t}"
            );
        }
    }

    #[test]
    fn spread_splits_batches_across_live_copies() {
        let s = FaultSchedule::healthy(4);
        let hist = [7u64, 0, 0, 0];
        // r = 1, all live: 7 pages split 4/3 over disks 0 and 1.
        let out = degraded_outcome(
            &hist,
            &s,
            0,
            &RetryPolicy::instant(),
            1,
            ReplicaPolicy::Spread,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(
            out,
            QueryOutcome::Served {
                response_time: 4,
                failover_buckets: 3,
                timeout_penalty: 0
            }
        );
        // A dead primary shifts the whole batch to the live successor.
        let down = FaultSchedule::parse("fail:0@0", 4).unwrap();
        let out = degraded_outcome(
            &hist,
            &down,
            1,
            &RetryPolicy::instant(),
            1,
            ReplicaPolicy::Spread,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(
            out,
            QueryOutcome::Served {
                response_time: 7,
                failover_buckets: 7,
                timeout_penalty: 0
            }
        );
        // r = 0 degenerates to primary-only.
        let out = degraded_outcome(
            &hist,
            &down,
            1,
            &RetryPolicy::instant(),
            0,
            ReplicaPolicy::Spread,
            &mut Vec::new(),
        )
        .unwrap();
        assert!(matches!(out, QueryOutcome::Unavailable { dead_buckets: 7 }));
    }

    #[test]
    fn retry_policy_detection_units() {
        assert_eq!(RetryPolicy::default().detection_units(), 2);
        assert_eq!(RetryPolicy::instant().detection_units(), 0);
        assert_eq!(
            RetryPolicy {
                timeout_units: 3,
                max_retries: 2
            }
            .detection_units(),
            9
        );
    }

    mod rebuild {
        use super::*;
        use decluster_grid::{BucketCoord, BucketRegion, GridSpace};
        use decluster_methods::{DeclusteringMethod, DiskModulo};

        fn setup() -> (GridDirectory, Vec<BucketRegion>) {
            let space = GridSpace::new_2d(8, 8).unwrap();
            let dm = DiskModulo::new(&space, 4).unwrap();
            let dir = GridDirectory::build(space.clone(), 4, |b| dm.disk_of(b.as_slice()));
            let mut queries = Vec::new();
            for r in (0..7).step_by(2) {
                for c in (0..7).step_by(2) {
                    queries.push(
                        BucketRegion::new(
                            &space,
                            BucketCoord::from([r, c]),
                            BucketCoord::from([r + 1, c + 1]),
                        )
                        .unwrap(),
                    );
                }
            }
            (dir, queries)
        }

        #[test]
        fn rebuild_replays_the_failed_disks_pages() {
            let (dir, queries) = setup();
            let report = simulate_rebuild(
                &dir,
                &DiskParams::default(),
                1,
                &queries,
                2,
                &Obs::disabled(),
            )
            .unwrap();
            assert_eq!(report.failed_disk, 1);
            assert_eq!(report.pages_rebuilt, dir.load_vector()[1]);
            assert!(report.rebuild_ms > 0.0);
        }

        #[test]
        fn rebuild_interferes_with_foreground() {
            let (dir, queries) = setup();
            let report = simulate_rebuild(
                &dir,
                &DiskParams::default(),
                0,
                &queries,
                2,
                &Obs::disabled(),
            )
            .unwrap();
            assert!(report.degraded_qps > 0.0);
            assert!(
                report.degraded_qps <= report.healthy_qps + 1e-9,
                "degraded {} > healthy {}",
                report.degraded_qps,
                report.healthy_qps
            );
            assert!(report.interference_factor >= 1.0 - 1e-9);
        }

        #[test]
        fn rebuild_is_deterministic() {
            let (dir, queries) = setup();
            let a = simulate_rebuild(
                &dir,
                &DiskParams::default(),
                2,
                &queries,
                3,
                &Obs::disabled(),
            )
            .unwrap();
            let b = simulate_rebuild(
                &dir,
                &DiskParams::default(),
                2,
                &queries,
                3,
                &Obs::disabled(),
            )
            .unwrap();
            assert_eq!(a.rebuild_ms, b.rebuild_ms);
            assert_eq!(a.degraded_qps, b.degraded_qps);
        }

        #[test]
        fn rebuild_rejects_zero_clients() {
            let (dir, queries) = setup();
            assert!(matches!(
                simulate_rebuild(
                    &dir,
                    &DiskParams::default(),
                    1,
                    &queries,
                    0,
                    &Obs::disabled()
                )
                .unwrap_err(),
                SimError::Spec(crate::SpecError::NoClients)
            ));
        }

        #[test]
        fn rebuild_rejects_out_of_range_disk() {
            let (dir, queries) = setup();
            assert!(matches!(
                simulate_rebuild(
                    &dir,
                    &DiskParams::default(),
                    4,
                    &queries,
                    1,
                    &Obs::disabled()
                )
                .unwrap_err(),
                SimError::BadFaultSpec { .. }
            ));
        }
    }
}
