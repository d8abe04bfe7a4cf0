//! Fleet coordination: runners, leases, and blocking polls.
//!
//! The daemon's scheduler claims cells one at a time from job sessions —
//! this module turns that claim point into a *worker protocol*, the
//! daemon's one execution path. A [`Fleet`] tracks registered runners
//! (remote `cdcs-runner`s over HTTP, and the daemon's own `--workers`
//! calling in process), grants each poll one leased [`WorkUnit`] claimed
//! from the scheduler rotation, and revokes leases whose heartbeats stop —
//! re-queueing the unit through the session seam so a dead runner costs
//! only its in-flight cells. Results flow back through [`Fleet::result`],
//! which is exactly-once by construction: the lease table is consulted
//! and cleared under the fleet's single mutex, so a revoked lease's late
//! result is detectably stale and dropped.
//!
//! Placement: each unit goes to whichever runner polls first. A poll that
//! finds nothing to claim *blocks* (up to its `wait_ms`, capped below the
//! runner TTL so a waiting runner is never expired mid-poll) on the
//! scheduler's work generation, without holding the fleet lock, and
//! retries the claim the moment a job arrives or a unit re-queues. There
//! is no affinity routing: a cell is a pure function of `(config, cell)`
//! and a runner keeps no state keyed by unit, so steering a unit to one
//! "owner" would only queue it behind that owner. A runner silent (no
//! poll, heartbeat or result) past its TTL is expired and its leases are
//! re-queued wholesale.
//!
//! None of this can change report bytes: every cell's result derives
//! from `(config, cell)` alone, so *where* a unit runs — and how many
//! times a revoked unit re-runs — is invisible in the artifact. The
//! fleet e2e suite pins byte-equality against the in-process report
//! under fleet sizes, runner kills, and injected `lose_lease` faults.
//!
//! Lock order: `fleet` sits between `jobs` and `rotation` (see
//! `lints::lock_order::ORDER`) — the poll path holds the fleet mutex
//! while claiming from the rotation; nothing acquires `fleet` from
//! inside the scheduler or a job.

use crate::faults::FaultPlan;
use crate::job::{Job, LeasePayload, WorkUnit};
use crate::lease::LeaseTable;
use crate::protocol::{FleetStatus, LeaseGrant, LeaseResult, RegisterReply, RunnerStatus};
use crate::scheduler::{run_contained, Scheduler};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
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
struct FleetState {
    runners: BTreeMap<u64, RunnerEntry>,
    leases: LeaseTable,
    next_runner_id: u64,
    completed: usize,
    requeued: usize,
}

/// The fleet coordinator, owned by the server.
pub struct Fleet {
    fleet: Mutex<FleetState>,
    config: FleetConfig,
    faults: Arc<FaultPlan>,
}

/// Deferred re-queue work, performed after the fleet lock is released.
#[derive(Default)]
struct Deferred {
    requeue: Vec<(Arc<Job>, WorkUnit)>,
    finalize: Vec<Arc<Job>>,
}

impl Deferred {
    /// Applies the deferred actions: units rejoin their sessions and jobs
    /// re-enter the rotation; drained jobs are finalized through the
    /// scheduler's containment boundary. Call **without** the fleet lock.
    fn apply(self, sched: &Scheduler) {
        for (job, unit) in self.requeue {
            job.requeue_unit(unit);
            sched.reenqueue(Arc::clone(&job));
        }
        for job in self.finalize {
            run_contained(&job);
        }
    }
}

impl Fleet {
    /// An empty fleet.
    pub fn new(config: FleetConfig, faults: Arc<FaultPlan>) -> Fleet {
        Fleet {
            fleet: Mutex::new(FleetState {
                runners: BTreeMap::new(),
                leases: LeaseTable::new(),
                next_runner_id: 0,
                completed: 0,
                requeued: 0,
            }),
            config,
            faults,
        }
    }

    // The fleet state is only mutated in straight-line code (no user code
    // runs under this lock), so a poisoned guard's data is intact;
    // recovering keeps one panicked thread from wedging every runner.
    fn lock_fleet(&self) -> MutexGuard<'_, FleetState> {
        self.fleet.lock().unwrap_or_else(PoisonError::into_inner)
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
    /// leases. `false` if unknown.
    pub fn deregister(&self, runner: u64, sched: &Scheduler) -> bool {
        let mut deferred = Deferred::default();
        let known = drop_runner(&mut self.lock_fleet(), runner, &mut deferred);
        deferred.apply(sched);
        known
    }

    /// Handles one poll: grants at most one lease, claimed from the
    /// rotation for whichever runner asks. With nothing to claim it waits
    /// up to `wait` (capped at half the runner TTL, so the waiting runner
    /// never expires mid-poll) for new or re-queued work, retrying the
    /// claim each time the scheduler signals some; `Ok(None)` once the
    /// wait runs out or the scheduler stops. `Err` means the runner is
    /// unknown (expired or never registered); it must re-register.
    pub fn poll(
        &self,
        runner: u64,
        sched: &Scheduler,
        wait: Duration,
    ) -> Result<Option<LeaseGrant>, String> {
        let deadline = Instant::now() + wait.min(self.config.runner_ttl / 2);
        loop {
            let (grant, seen) = self.try_grant(runner, sched)?;
            if grant.is_some() {
                return Ok(grant);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !sched.wait_for_work(seen, left) {
                return Ok(None);
            }
        }
    }

    /// One claim attempt for `runner`: refreshes its liveness and leases
    /// it the rotation's next unit, if any. Also returns the scheduler's
    /// work generation at the claim, for [`Scheduler::wait_for_work`].
    fn try_grant(
        &self,
        runner: u64,
        sched: &Scheduler,
    ) -> Result<(Option<LeaseGrant>, u64), String> {
        let mut deferred = Deferred::default();
        let (grant, generation) = {
            let mut state = self.lock_fleet();
            if !state.runners.contains_key(&runner) {
                return Err(format!("unknown runner {runner}; re-register"));
            }
            touch(&mut state, runner);
            let outcome = sched.try_claim_unit();
            deferred.finalize = outcome.drained;
            let grant = outcome
                .claimed
                .map(|(job, unit)| self.grant(&mut state, runner, job, unit, &mut deferred));
            (grant, outcome.generation)
        };
        deferred.apply(sched);
        Ok((grant, generation))
    }

    /// Builds the lease grant for one unit, with any injected cell fault.
    /// An injected `lose_lease` fault dooms the grant: the unit is
    /// re-queued immediately and the lease never enters the table, so the
    /// runner's heartbeats and result land stale — the full revocation
    /// path, deterministically.
    fn grant(
        &self,
        state: &mut FleetState,
        runner: u64,
        job: Arc<Job>,
        unit: WorkUnit,
        deferred: &mut Deferred,
    ) -> LeaseGrant {
        let doomed = matches!(unit, WorkUnit::Cell(i) if self.faults.on_lease(i));
        let lease_id = state.leases.grant(runner, Arc::clone(&job), unit);
        if doomed {
            state.leases.complete(lease_id);
            state.requeued += 1;
            deferred.requeue.push((Arc::clone(&job), unit));
        }
        let mut grant = LeaseGrant {
            lease_id,
            job_id: job.id,
            ..LeaseGrant::default()
        };
        match job.lease_payload(unit) {
            LeasePayload::Cell(config, cell) => {
                if let WorkUnit::Cell(i) = unit {
                    grant.cell_index = Some(i);
                    grant.fault = self.faults.on_cell(i);
                }
                grant.config = Some(config);
                grant.cell = Some(*cell);
            }
            LeasePayload::Spec(spec) => grant.spec = Some(spec),
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
        touch(&mut state, runner);
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
                touch(&mut state, lease.runner);
                if let Some(entry) = state.runners.get_mut(&lease.runner) {
                    entry.completed += 1;
                }
            }
            lease
        };
        let Some(lease) = lease else { return false };
        match lease.unit {
            WorkUnit::Cell(i) => {
                let result = match (body.ok, body.err) {
                    (Some(result), _) => Ok(result),
                    (None, Some(err)) => Err(err),
                    (None, None) => Err("runner returned an empty result".into()),
                };
                lease.job.deliver_cell(i, result);
            }
            WorkUnit::Inline => {
                let outcome = match (body.report_json, body.err) {
                    (Some(json), _) => Ok(json),
                    (None, Some(err)) => Err(err),
                    (None, None) => Err("runner returned an empty result".into()),
                };
                lease.job.deliver_inline(outcome);
            }
        }
        run_contained(&lease.job);
        true
    }

    /// One watchdog tick: revokes leases past the heartbeat window and
    /// expires runners silent past the liveness window, re-queueing
    /// everything they held.
    pub fn tick(&self, sched: &Scheduler) {
        let mut deferred = Deferred::default();
        {
            let mut state = self.lock_fleet();
            let revoked = state.leases.revoke_expired(self.config.lease_ttl);
            state.requeued += revoked.len();
            deferred
                .requeue
                .extend(revoked.into_iter().map(|l| (l.job, l.unit)));
            let dead: Vec<u64> = state
                .runners
                .iter()
                .filter(|(_, e)| e.last_seen.elapsed() > self.config.runner_ttl)
                .map(|(id, _)| *id)
                .collect();
            for id in dead {
                drop_runner(&mut state, id, &mut deferred);
            }
        }
        deferred.apply(sched);
    }

    /// Every lease held longer than `limit`, as `(job, unit, age)`.
    pub fn overdue(&self, limit: Duration) -> Vec<(Arc<Job>, WorkUnit, Duration)> {
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

/// Removes a runner and revokes every lease it held, counting and
/// deferring their re-queue. `false` if the runner was unknown.
fn drop_runner(state: &mut FleetState, runner: u64, deferred: &mut Deferred) -> bool {
    if state.runners.remove(&runner).is_none() {
        return false;
    }
    let lost = state.leases.revoke_runner(runner);
    state.requeued += lost.len();
    deferred
        .requeue
        .extend(lost.into_iter().map(|l| (l.job, l.unit)));
    true
}

/// Refreshes a runner's liveness clock.
fn touch(state: &mut FleetState, runner: u64) {
    if let Some(entry) = state.runners.get_mut(&runner) {
        // lint: allow(determinism) — liveness bookkeeping only.
        entry.last_seen = Instant::now();
    }
}
