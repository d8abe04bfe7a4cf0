//! Fleet coordination: the job rotation, runners, leases, and blocking
//! polls — all under the fleet's one mutex.
//!
//! This module is the daemon's claim point and its worker protocol, the
//! one execution path. A [`Fleet`] tracks registered runners (remote
//! `cdcs-runner`s over HTTP, and the daemon's own `--workers` calling in
//! process), grants each poll one leased unit claimed from the job
//! rotation, and revokes leases whose heartbeats stop — re-queueing the
//! unit in its job so a dead runner costs only its in-flight work.
//! Results flow back through [`Fleet::result`], which is exactly-once by
//! construction: the lease table is consulted and cleared under the
//! fleet mutex, so a revoked lease's late result is detectably stale and
//! dropped.
//!
//! Fairness: jobs sit in a FIFO rotation. A claim pops the front job,
//! takes **one** unit from it, and pushes the job to the back; with
//! several active jobs the claim sequence therefore strictly interleaves
//! them — two concurrent sweeps each make progress on every lap,
//! whatever their sizes (the fairness test pins the alternation through
//! the claim log, job ids in claim order). A job whose claim comes back
//! empty (drained, cancelled, or past its deadline) leaves the rotation
//! and is finalized *outside* the fleet lock, so a poll never waits on
//! report assembly; a revoked unit puts its job back.
//!
//! Placement: each unit goes to whichever runner polls first. A poll that
//! finds nothing to claim *blocks* (up to its `wait_ms`, capped below the
//! runner TTL so a waiting runner is never expired mid-poll) on a condvar
//! paired with the fleet mutex, and retries the claim the moment the work
//! generation moves: every enqueued job and every re-queued unit bumps
//! it, and [`Fleet::stop`] wakes every waiting poll at once. There is no
//! affinity routing: a cell is a pure function of `(config, cell)` and a
//! runner keeps no state keyed by unit, so steering a unit to one "owner"
//! would only queue it behind that owner. A runner silent (no poll,
//! heartbeat or result) past its TTL is expired and its leases are
//! re-queued wholesale.
//!
//! None of this can change report bytes: every cell's result derives
//! from `(config, cell)` alone, so *where* a unit runs — and how many
//! times a revoked unit re-runs — is invisible in the artifact. The
//! fleet e2e suite pins byte-equality against the in-process report
//! under fleet sizes, runner kills, and injected `lose_lease` faults.
//!
//! Lock order: `fleet` sits between the server's `jobs` and a job's
//! `state` (see `lints::lock_order::ORDER`) — claims and re-queues take a
//! job's lock inside the fleet mutex; nothing acquires `fleet` from
//! inside a job.

use crate::faults::FaultPlan;
use crate::job::Job;
use crate::lease::LeaseTable;
use crate::protocol::{FleetStatus, LeaseGrant, LeaseResult, RegisterReply, RunnerStatus};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Fleet knobs (all defaultable; the server wires CLI flags through).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Heartbeat window: a lease unbeaten for this long is revoked.
    pub lease_ttl: Duration,
    /// Liveness window: a runner silent (no poll, heartbeat or result)
    /// for this long is deregistered and its work re-queued. A blocking
    /// poll waits at most half of it.
    pub runner_ttl: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            lease_ttl: Duration::from_secs(5),
            runner_ttl: Duration::from_secs(20),
        }
    }
}

/// One registered runner.
struct RunnerEntry {
    name: String,
    /// Last poll/heartbeat/result — the liveness clock.
    last_seen: Instant,
    completed: usize,
}

/// Everything the fleet mutex guards.
#[derive(Default)]
struct FleetState {
    runners: BTreeMap<u64, RunnerEntry>,
    leases: LeaseTable,
    next_runner_id: u64,
    completed: usize,
    requeued: usize,
    /// The job rotation: claims pop the front and push it back.
    queue: VecDeque<Arc<Job>>,
    /// Job ids in claim order.
    claim_log: Vec<u64>,
    /// Bumped whenever work may have become claimable (a job enqueued, a
    /// unit re-queued): what blocked polls wait on.
    generation: u64,
    /// Set once claiming has ended for good.
    stopped: bool,
}

impl FleetState {
    /// Returns a revoked unit to its job and the job to the rotation (a
    /// job already rotating keeps its one slot — two would double-count
    /// it in fairness), bumping the work generation: the unit is new
    /// claimable work. The caller wakes the blocked polls.
    fn requeue(&mut self, job: Arc<Job>, unit: usize) {
        job.requeue(unit);
        self.requeued += 1;
        if !self.queue.iter().any(|j| j.id == job.id) {
            self.queue.push_back(job);
        }
        self.generation += 1;
    }

    /// Removes a runner and re-queues every lease it held. `false` if the
    /// runner was unknown.
    fn drop_runner(&mut self, runner: u64) -> bool {
        if self.runners.remove(&runner).is_none() {
            return false;
        }
        for lease in self.leases.revoke_runner(runner) {
            self.requeue(lease.job, lease.unit);
        }
        true
    }

    /// Refreshes a runner's liveness clock.
    fn touch(&mut self, runner: u64) {
        if let Some(entry) = self.runners.get_mut(&runner) {
            // lint: allow(determinism) — liveness bookkeeping only.
            entry.last_seen = Instant::now();
        }
    }
}

/// The fleet coordinator, owned by the server.
pub struct Fleet {
    fleet: Mutex<FleetState>,
    /// Paired with `fleet`: signalled when the work generation moves or
    /// claiming stops.
    work: Condvar,
    config: FleetConfig,
    faults: Arc<FaultPlan>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new(config: FleetConfig, faults: Arc<FaultPlan>) -> Fleet {
        Fleet {
            fleet: Mutex::new(FleetState::default()),
            work: Condvar::new(),
            config,
            faults,
        }
    }

    // The fleet state is only mutated in straight-line code (no report is
    // built under this lock), so a poisoned guard's data is intact;
    // recovering keeps one panicked thread from wedging every runner.
    fn lock_fleet(&self) -> MutexGuard<'_, FleetState> {
        self.fleet.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds a job to the rotation and wakes blocked polls.
    pub fn enqueue(&self, job: Arc<Job>) {
        let mut state = self.lock_fleet();
        state.queue.push_back(job);
        state.generation += 1;
        self.work.notify_all();
    }

    /// Stops claiming: blocked polls wake and come back empty; running
    /// units finish; queued units are abandoned.
    pub fn stop(&self) {
        self.lock_fleet().stopped = true;
        self.work.notify_all();
    }

    /// The claim sequence so far (job ids, in claim order).
    pub fn claim_log(&self) -> Vec<u64> {
        self.lock_fleet().claim_log.clone()
    }

    /// Registers a runner: assigns its id and returns the protocol knobs
    /// it must honor.
    pub fn register(&self, name: &str) -> RegisterReply {
        let mut state = self.lock_fleet();
        state.next_runner_id += 1;
        let id = state.next_runner_id;
        state.runners.insert(
            id,
            RunnerEntry {
                name: name.to_string(),
                // lint: allow(determinism) — liveness bookkeeping only;
                // no result byte depends on wall-clock reads.
                last_seen: Instant::now(),
                completed: 0,
            },
        );
        RegisterReply {
            runner_id: id,
            lease_ttl_ms: self.config.lease_ttl.as_millis() as u64,
            poll_ms: (self.config.lease_ttl.as_millis() as u64 / 5).clamp(10, 500),
        }
    }

    /// Deregisters a runner (graceful exit), re-queueing its outstanding
    /// leases at once. `false` if unknown.
    pub fn deregister(&self, runner: u64) -> bool {
        let known = self.lock_fleet().drop_runner(runner);
        self.work.notify_all();
        known
    }

    /// Handles one poll: grants at most one lease, claimed from the
    /// rotation for whichever runner asks. With nothing to claim it waits
    /// up to `wait` (capped at half the runner TTL, so the waiting runner
    /// never expires mid-poll) for new or re-queued work, retrying the
    /// claim each time the work generation moves; `Ok(None)` once the
    /// wait runs out or claiming stops. `Err` means the runner is unknown
    /// (expired or never registered); it must re-register.
    pub fn poll(&self, runner: u64, wait: Duration) -> Result<Option<LeaseGrant>, String> {
        let until = Instant::now() + wait.min(self.config.runner_ttl / 2);
        let mut state = self.lock_fleet();
        loop {
            if !state.runners.contains_key(&runner) {
                return Err(format!("unknown runner {runner}; re-register"));
            }
            state.touch(runner);
            let (grant, drained) = self.claim(&mut state, runner);
            if grant.is_some() || !drained.is_empty() {
                // Finalizing may assemble a report: never under this lock.
                drop(state);
                for job in drained {
                    job.try_finalize();
                }
                if grant.is_some() {
                    return Ok(grant);
                }
                state = self.lock_fleet();
                continue;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() || state.stopped {
                return Ok(None);
            }
            // The generation is read under the same lock as the empty
            // scan, so no enqueue or re-queue can slip between them.
            let seen = state.generation;
            state = self
                .work
                .wait_timeout_while(state, left, |s| s.generation == seen && !s.stopped)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// One scan of the rotation (at most one full lap) for `runner`:
    /// leases one unit from the first job that has work. Jobs whose claim
    /// comes back empty leave the rotation and are returned for the
    /// caller to finalize once the fleet lock is released.
    fn claim(&self, state: &mut FleetState, runner: u64) -> (Option<LeaseGrant>, Vec<Arc<Job>>) {
        let mut drained = Vec::new();
        if state.stopped {
            return (None, drained);
        }
        for _ in 0..state.queue.len() {
            let Some(job) = state.queue.pop_front() else {
                break;
            };
            match job.try_claim() {
                Some(unit) => {
                    state.claim_log.push(job.id);
                    state.queue.push_back(Arc::clone(&job));
                    return (Some(self.grant(state, runner, job, unit)), drained);
                }
                None => drained.push(job),
            }
        }
        (None, drained)
    }

    /// Leases `unit` of `job` to `runner`, with any injected cell fault.
    /// An injected `lose_lease` fault dooms the grant: the unit is
    /// re-queued immediately and the lease never enters the table, so the
    /// runner's heartbeats and result land stale — the full revocation
    /// path, deterministically.
    fn grant(&self, state: &mut FleetState, runner: u64, job: Arc<Job>, unit: usize) -> LeaseGrant {
        let mut grant = job.lease_grant(unit);
        let doomed = grant.cell_index.is_some_and(|i| self.faults.on_lease(i));
        grant.fault = grant.cell_index.and_then(|i| self.faults.on_cell(i));
        grant.lease_id = state.leases.grant(runner, Arc::clone(&job), unit);
        if doomed {
            state.leases.complete(grant.lease_id);
            state.requeue(job, unit);
            self.work.notify_all();
        }
        grant
    }

    /// Records a heartbeat, which also keeps its runner alive. `false`
    /// means the lease is gone (revoked or completed): the runner should
    /// abandon the work.
    pub fn heartbeat(&self, lease_id: u64) -> bool {
        let mut state = self.lock_fleet();
        let Some(runner) = state.leases.beat(lease_id) else {
            return false;
        };
        state.touch(runner);
        true
    }

    /// Accepts a lease's result. `false` means the lease was already
    /// revoked — the result is stale and discarded (its unit re-queued,
    /// possibly already re-run; byte-equal either way).
    pub fn result(&self, lease_id: u64, body: LeaseResult) -> bool {
        let lease = {
            let mut state = self.lock_fleet();
            let lease = state.leases.complete(lease_id);
            if let Some(lease) = &lease {
                state.completed += 1;
                state.touch(lease.runner);
                if let Some(entry) = state.runners.get_mut(&lease.runner) {
                    entry.completed += 1;
                }
            }
            lease
        };
        let Some(lease) = lease else { return false };
        lease.job.deliver(lease.unit, body);
        true
    }

    /// One watchdog tick: revokes leases past the heartbeat window and
    /// expires runners silent past the liveness window, re-queueing
    /// everything they held.
    pub fn tick(&self) {
        let mut state = self.lock_fleet();
        let seen = state.generation;
        for lease in state.leases.revoke_expired(self.config.lease_ttl) {
            state.requeue(lease.job, lease.unit);
        }
        let dead: Vec<u64> = state
            .runners
            .iter()
            .filter(|(_, e)| e.last_seen.elapsed() > self.config.runner_ttl)
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            state.drop_runner(id);
        }
        if state.generation != seen {
            self.work.notify_all();
        }
    }

    /// Every lease held longer than `limit`, as `(job, unit, age)`.
    pub fn overdue(&self, limit: Duration) -> Vec<(Arc<Job>, usize, Duration)> {
        self.lock_fleet().leases.older_than(limit)
    }

    /// Fleet-wide observability counters.
    pub fn status(&self) -> FleetStatus {
        let state = self.lock_fleet();
        FleetStatus {
            runners: state
                .runners
                .iter()
                .map(|(id, entry)| RunnerStatus {
                    id: *id,
                    name: entry.name.clone(),
                    active_leases: state.leases.active_for(*id),
                    completed: entry.completed,
                })
                .collect(),
            active_leases: state.leases.active(),
            completed: state.completed,
            requeued: state.requeued,
        }
    }
}
