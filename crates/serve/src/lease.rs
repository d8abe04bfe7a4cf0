//! Lease bookkeeping for the runner fleet.
//!
//! A lease is the fleet's unit of at-most-once-in-flight accounting: one
//! claimed unit of a job (a grid cell, or a whole analysis spec) handed
//! to one runner, local or remote, alive only
//! while heartbeats keep landing. The table is a plain struct — **no
//! interior locking** — because it lives inside the fleet's single mutex
//! ([`crate::fleet`]);
//! that one lock is what makes grant / heartbeat / result / revocation
//! mutually exclusive, which is the whole exactly-once argument: a result
//! POST only counts if `complete` still finds the lease, and revocation
//! removes it under the same lock, so a revoked lease's late result is
//! detectably stale and discarded (its cell already re-queued and re-run
//! elsewhere — byte-equal either way, so the race is harmless even in
//! principle).

use crate::job::Job;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One outstanding lease.
pub struct Lease {
    /// The runner holding it.
    pub runner: u64,
    /// The job the unit belongs to.
    pub job: Arc<Job>,
    /// The leased unit's index within its job.
    pub unit: usize,
    /// When the lease was granted (the per-cell watchdog's clock).
    pub granted: Instant,
    /// Last heartbeat (grant counts as one).
    pub last_beat: Instant,
}

/// All outstanding leases, keyed by lease id.
#[derive(Default)]
pub struct LeaseTable {
    leases: BTreeMap<u64, Lease>,
    next_id: u64,
}

impl LeaseTable {
    /// An empty table.
    pub fn new() -> Self {
        LeaseTable::default()
    }

    /// Grants a new lease and returns its id.
    pub fn grant(&mut self, runner: u64, job: Arc<Job>, unit: usize) -> u64 {
        self.next_id += 1;
        let id = self.next_id;
        // lint: allow(determinism) — lease liveness is wall-clock
        // bookkeeping; no SimResult byte depends on it.
        let now = Instant::now();
        self.leases.insert(
            id,
            Lease {
                runner,
                job,
                unit,
                granted: now,
                last_beat: now,
            },
        );
        id
    }

    /// Records a heartbeat and returns the runner holding the lease.
    /// `None` means the lease no longer exists (revoked or completed) —
    /// the runner should abandon the work.
    pub fn beat(&mut self, lease_id: u64) -> Option<u64> {
        let lease = self.leases.get_mut(&lease_id)?;
        // lint: allow(determinism) — heartbeat timestamps only gate
        // revocation, never results.
        lease.last_beat = Instant::now();
        Some(lease.runner)
    }

    /// Removes and returns a lease on result delivery. `None` means the
    /// lease was already revoked: the result is stale and must be
    /// discarded (its unit is re-queued, possibly already re-run).
    pub fn complete(&mut self, lease_id: u64) -> Option<Lease> {
        self.leases.remove(&lease_id)
    }

    /// Removes every lease whose heartbeat window has lapsed and returns
    /// them for re-queueing.
    pub fn revoke_expired(&mut self, ttl: Duration) -> Vec<Lease> {
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, lease)| lease.last_beat.elapsed() > ttl)
            .map(|(id, _)| *id)
            .collect();
        expired
            .into_iter()
            .filter_map(|id| self.leases.remove(&id))
            .collect()
    }

    /// Removes every lease held by `runner` (it expired or deregistered)
    /// and returns them for re-queueing.
    pub fn revoke_runner(&mut self, runner: u64) -> Vec<Lease> {
        let held: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, lease)| lease.runner == runner)
            .map(|(id, _)| *id)
            .collect();
        held.into_iter()
            .filter_map(|id| self.leases.remove(&id))
            .collect()
    }

    /// Every lease granted more than `limit` ago, as `(job, unit, age)`.
    pub fn older_than(&self, limit: Duration) -> Vec<(Arc<Job>, usize, Duration)> {
        self.leases
            .values()
            .map(|lease| (lease, lease.granted.elapsed()))
            .filter(|(_, age)| *age > limit)
            .map(|(lease, age)| (Arc::clone(&lease.job), lease.unit, age))
            .collect()
    }

    /// Outstanding lease count.
    pub fn active(&self) -> usize {
        self.leases.len()
    }

    /// Outstanding leases held by `runner`.
    pub fn active_for(&self, runner: u64) -> usize {
        self.leases.values().filter(|l| l.runner == runner).count()
    }
}
