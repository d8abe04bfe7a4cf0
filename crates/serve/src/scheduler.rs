//! Fair scheduling of concurrent jobs: the claim point every runner
//! polls.
//!
//! Jobs sit in a FIFO rotation. A claim ([`Scheduler::try_claim_unit`])
//! pops the front job, takes **one** unit of work from it under the
//! scheduler lock, and pushes the job to the back; the unit is then
//! leased to the polling runner ([`crate::fleet`]) and executed outside
//! the lock. With several active jobs the claim sequence therefore
//! strictly interleaves them — two concurrent sweeps each make progress
//! on every rotation lap, regardless of their sizes (no starvation; the
//! fairness test pins the alternation). A job whose claim comes back
//! empty (drained or cancelled) leaves the rotation and is finalized.
//!
//! Claims are recorded in a log (job ids, in claim order) so fairness is
//! observable and testable without timing assumptions.
//!
//! A poll whose claim comes back empty blocks in
//! [`Scheduler::wait_for_work`] on a work *generation* that every
//! [`Scheduler::enqueue`] and [`Scheduler::reenqueue`] bumps — so a
//! waiting runner wakes the moment a job arrives or a revoked cell
//! re-queues, never a poll interval later. [`Scheduler::stop`] ends all
//! claiming and wakes every waiting poll at once.
//!
//! Finalization is panic-contained: [`run_contained`] converts an unwind
//! that escapes a job's own boundaries into *that job's* failure, so a
//! poisoned job can never take a runner or the daemon down.

use crate::job::{panic_message, Job, WorkUnit};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

#[derive(Default)]
struct Rotation {
    queue: VecDeque<Arc<Job>>,
    claim_log: Vec<u64>,
    /// Bumped whenever work may have become claimable (a job enqueued, a
    /// unit re-queued): the wake-up signal for blocked fleet polls.
    generation: u64,
}

/// One non-blocking claim attempt: at most one claimed unit, plus the
/// jobs drained from the rotation (empty claims) that the caller must
/// finalize *outside* its own locks, plus the work generation the scan
/// saw (the starting point for [`Scheduler::wait_for_work`]).
pub(crate) struct ClaimOutcome {
    pub claimed: Option<(Arc<Job>, WorkUnit)>,
    pub drained: Vec<Arc<Job>>,
    pub generation: u64,
}

/// The shared scheduler: rotation + poll wake-up.
pub struct Scheduler {
    rotation: Mutex<Rotation>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Scheduler {
        Scheduler {
            rotation: Mutex::new(Rotation::default()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Adds a job to the rotation and wakes blocked polls.
    pub fn enqueue(&self, job: Arc<Job>) {
        let mut rotation = self.lock();
        rotation.queue.push_back(job);
        rotation.generation += 1;
        self.cv.notify_all();
    }

    /// Stops claiming: blocked polls wake and come back empty; running
    /// cells finish; queued cells are abandoned.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _rotation = self.lock();
        self.cv.notify_all();
    }

    /// The claim sequence so far (job ids, in claim order).
    pub fn claim_log(&self) -> Vec<u64> {
        self.lock().claim_log.clone()
    }

    /// Non-blocking single-unit claim for a fleet poll: scans the
    /// rotation once (at most one full lap), claiming one unit from the
    /// first job that has work (see the module docs). Jobs whose claim
    /// comes back empty leave the rotation and are returned as `drained`
    /// for the caller to finalize *outside* its own locks.
    pub(crate) fn try_claim_unit(&self) -> ClaimOutcome {
        let mut rotation = self.lock();
        let mut outcome = ClaimOutcome {
            claimed: None,
            drained: Vec::new(),
            generation: rotation.generation,
        };
        if self.shutdown.load(Ordering::SeqCst) {
            return outcome;
        }
        for _ in 0..rotation.queue.len() {
            let Some(job) = rotation.queue.pop_front() else {
                break;
            };
            match job.try_claim() {
                Some(unit) => {
                    rotation.claim_log.push(job.id);
                    rotation.queue.push_back(Arc::clone(&job));
                    outcome.claimed = Some((job, unit));
                    break;
                }
                None => outcome.drained.push(job),
            }
        }
        outcome
    }

    /// Blocks until the work generation moves past `seen` (a job arrived
    /// or a unit re-queued since that claim scan), the scheduler stops, or
    /// `timeout` passes. Returns whether another claim is worth trying.
    /// Reading `seen` under the same lock as the empty scan is what makes
    /// the wake-up race-free.
    pub(crate) fn wait_for_work(&self, seen: u64, timeout: Duration) -> bool {
        let rotation = self.lock();
        let (rotation, _) = self
            .cv
            .wait_timeout_while(rotation, timeout, |r| {
                r.generation == seen && !self.shutdown.load(Ordering::SeqCst)
            })
            .unwrap_or_else(PoisonError::into_inner);
        rotation.generation != seen && !self.shutdown.load(Ordering::SeqCst)
    }

    /// Returns a job to the rotation after a revoked lease re-queued some
    /// of its work, and wakes blocked polls. A job already
    /// rotating keeps its one slot (two slots would double-count it in
    /// fairness), but the wake-up still fires: its re-queued unit is new
    /// claimable work.
    pub fn reenqueue(&self, job: Arc<Job>) {
        let mut rotation = self.lock();
        if !rotation.queue.iter().any(|j| j.id == job.id) {
            rotation.queue.push_back(job);
        }
        rotation.generation += 1;
        self.cv.notify_all();
    }

    // The rotation holds only queue order and the claim log — both
    // updated in straight-line code — so a poisoned guard's data is
    // intact and recovering it beats wedging every runner.
    fn lock(&self) -> std::sync::MutexGuard<'_, Rotation> {
        self.rotation.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Finalizes `job` if it is ready ([`Job::try_finalize`]) with
/// last-resort panic containment: an unwind is converted into the job's
/// failure instead of the calling runner's death. The fleet's result,
/// revocation and drained-job paths all finalize through it.
pub(crate) fn run_contained(job: &Arc<Job>) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.try_finalize()));
    if let Err(payload) = outcome {
        job.fail_with(format!(
            "internal error executing job {}: {}",
            job.id,
            panic_message(payload.as_ref())
        ));
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}
