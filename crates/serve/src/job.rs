//! One submitted experiment job: a spec bound to its streaming session.
//!
//! Grid specs expand once at submission ([`GridSpec::expand`]) into a
//! [`GridSession`] the fleet leases out cell by cell; analysis specs
//! (miss curves, latency/capacity, planner runtimes, placement ablation)
//! are a single unit of work. Either way the finished job stores its
//! [`ExperimentReport`] pre-serialized with `serde_json::to_string_pretty`
//! — exactly the bytes [`cdcs_bench::artifact::write`] would put in
//! `out/<name>.json`, so a served report and an in-process artifact are
//! byte-comparable.
//!
//! Every failure a job can suffer is *contained*: a panicking cell (or a
//! panicking analysis run, or an injected fault) fails this job with the
//! captured message; a passed deadline moves it to `DeadlineExceeded`;
//! neither takes down a runner, the daemon, or any other tenant's jobs.
//!
//! Every phase change goes through one helper that also signals a condvar,
//! so a status long-poll ([`Job::wait_terminal`]) returns the moment the
//! job finishes instead of on the client's next poll.

use crate::protocol::{JobState, JobStatus};
use cdcs_bench::exp::{ExperimentReport, ExperimentSpec, GridAssembly, ReportData, SpecKind};
use cdcs_sim::session::clamp_intra_cell;
use cdcs_sim::{GridSession, SessionOptions, SimResult};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Internal lifecycle (the wire state plus the finished payloads).
#[derive(Debug)]
enum Phase {
    Queued,
    Running,
    Done { report_json: String },
    Cancelled,
    DeadlineExceeded,
    Failed { error: String },
}

impl Phase {
    fn is_terminal(&self) -> bool {
        matches!(
            self,
            Phase::Done { .. } | Phase::Cancelled | Phase::DeadlineExceeded | Phase::Failed { .. }
        )
    }
}

/// Per-job submission options (tenant, deadline).
#[derive(Default, Clone)]
pub struct JobOptions {
    /// The submitting tenant (for status observability; admission already
    /// happened by the time a job exists).
    pub tenant: String,
    /// Wall-clock deadline: enforced at claim time through the session
    /// and between claims by the server's watchdog.
    pub deadline: Option<Instant>,
}

/// The job's executable payload.
enum Work {
    /// A simulator sweep: cells stream through a session, one lease each;
    /// the assembly half waits for the results.
    Grid {
        session: GridSession,
        assembly: Mutex<Option<GridAssembly>>,
    },
    /// An analysis spec: one opaque unit of work, run whole by whichever
    /// runner leases it.
    Inline {
        claimed: AtomicBool,
        cancelled: AtomicBool,
    },
}

/// One unit of claimed work, leased to a runner. `Copy` so the lease
/// table can hold a unit and hand copies to the requeue path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkUnit {
    /// Run grid cell `i` of the job's session.
    Cell(usize),
    /// Run the whole (analysis) spec.
    Inline,
}

/// What a fleet lease ships to a runner: either one grid cell with the
/// session's (pool-clamped) config, or the whole analysis spec.
#[derive(Debug)]
pub enum LeasePayload {
    /// `(config, cell)` — the runner calls `run_cell` on them, exactly as
    /// an in-process session worker would.
    Cell(cdcs_sim::SimConfig, Box<cdcs_sim::runner::GridCell>),
    /// The full spec — the runner calls `spec.run()` and pretty-prints the
    /// report (byte-equal by the spec serialization fixpoint).
    Spec(ExperimentSpec),
}

/// A submitted job.
pub struct Job {
    /// Server-assigned id.
    pub id: u64,
    /// The spec as submitted (embedded verbatim in the report).
    pub spec: ExperimentSpec,
    /// The submitting tenant.
    pub tenant: String,
    /// The job's wall-clock deadline, if any (the watchdog scans this).
    pub deadline: Option<Instant>,
    work: Work,
    phase: Mutex<Phase>,
    /// Signalled on every `phase` write (paired with the `phase` mutex).
    phase_changed: Condvar,
}

impl Job {
    /// Builds a job for `spec`, expanding grid specs eagerly so malformed
    /// submissions fail at `POST /jobs` time. `workers` (the daemon's
    /// in-process runners) feeds the intra-cell nested clamp
    /// ([`clamp_intra_cell`]): `workers × inner` never exceeds the
    /// machine, exactly as in `run_grid`.
    ///
    /// # Errors
    ///
    /// Propagates spec-expansion errors (empty axes, unknown apps, ...),
    /// and refuses any grid spec whose patches set `trace_record`, or set
    /// a `trace_replay` other than a committed fixture
    /// (`specs/traces/<name>/index.json`): a served spec must neither
    /// write files on the daemon's or a runner's host nor read arbitrary
    /// ones. Recording and replaying other paths stay library features.
    pub fn new(
        id: u64,
        spec: ExperimentSpec,
        workers: usize,
        options: JobOptions,
    ) -> Result<Job, String> {
        let tenant = if options.tenant.is_empty() {
            crate::admission::DEFAULT_TENANT.to_string()
        } else {
            options.tenant.clone()
        };
        let work = match &spec.kind {
            SpecKind::Grid(grid) => {
                if grid
                    .patches
                    .iter()
                    .any(|p| p.trace_record.as_ref().is_some_and(|d| !d.is_empty()))
                {
                    return Err("trace_record is not accepted in served specs".into());
                }
                if let Some(path) = grid
                    .patches
                    .iter()
                    .filter_map(|p| p.trace_replay.as_deref())
                    .find(|path| !path.is_empty() && !is_committed_trace(path))
                {
                    return Err(format!(
                        "trace_replay {path:?} is not accepted in served specs: \
                         only committed fixtures (specs/traces/<name>/index.json)"
                    ));
                }
                let (config, cells, assembly) = grid.expand()?.into_parts();
                let config = clamp_intra_cell(&config, workers);
                let session_options = SessionOptions {
                    deadline: options.deadline,
                };
                Work::Grid {
                    session: GridSession::queued_with(&config, cells, session_options),
                    assembly: Mutex::new(Some(assembly)),
                }
            }
            _ => Work::Inline {
                claimed: AtomicBool::new(false),
                cancelled: AtomicBool::new(false),
            },
        };
        Ok(Job {
            id,
            spec,
            tenant,
            deadline: options.deadline,
            work,
            phase: Mutex::new(Phase::Queued),
            phase_changed: Condvar::new(),
        })
    }

    /// Claims the job's next unit of work for a polling runner, or
    /// `None` when the job has nothing left to issue (drained, cancelled,
    /// past its deadline, or — for analysis jobs — already claimed).
    pub fn try_claim(&self) -> Option<WorkUnit> {
        let unit = match &self.work {
            Work::Grid { session, .. } => session.try_claim().map(WorkUnit::Cell),
            Work::Inline { claimed, cancelled } => {
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    cancelled.store(true, Ordering::SeqCst);
                    None
                } else if cancelled.load(Ordering::SeqCst) || claimed.swap(true, Ordering::SeqCst) {
                    None
                } else {
                    Some(WorkUnit::Inline)
                }
            }
        };
        if unit.is_some() {
            let mut phase = self.lock_phase();
            if matches!(*phase, Phase::Queued) {
                self.set_phase(&mut phase, Phase::Running);
            }
        }
        unit
    }

    /// Finalizes the job if every issued cell has completed and no more
    /// will be issued: drains the session's stream, assembles the report
    /// (or records the failure / cancellation / expiry). Idempotent and
    /// safe to call from any thread after any unit completes.
    pub fn try_finalize(&self) {
        let Work::Grid { session, assembly } = &self.work else {
            // Inline jobs finalize on delivery; the loose ends are a job
            // cancelled or expired before any runner claimed it.
            if let Work::Inline { claimed, cancelled } = &self.work {
                let expired = self.deadline.is_some_and(|d| Instant::now() >= d);
                if (cancelled.load(Ordering::SeqCst) || expired) && !claimed.load(Ordering::SeqCst)
                {
                    self.finish(if expired {
                        Phase::DeadlineExceeded
                    } else {
                        Phase::Cancelled
                    });
                }
            }
            return;
        };
        if !session.progress().finished() {
            return;
        }
        let mut phase = self.lock_phase();
        if phase.is_terminal() {
            return;
        }
        // Sole finalizer (the phase lock is held): drain the stream. recv
        // cannot block — the session is finished, so every result is
        // already queued.
        let total = session.progress().total;
        let mut slots: Vec<Option<Result<SimResult, String>>> = (0..total).map(|_| None).collect();
        while let Some(done) = session.recv() {
            slots[done.index] = Some(done.result);
        }
        if slots.iter().any(Option::is_none) {
            // Stopped before every cell was issued: partial work, no
            // report. (A cancel that lands after the last cell completed
            // still produces a full report below.)
            let stopped = if session.deadline_exceeded() {
                Phase::DeadlineExceeded
            } else {
                Phase::Cancelled
            };
            self.set_phase(&mut phase, stopped);
            return;
        }
        let mut results = Vec::with_capacity(total);
        for slot in slots {
            match slot.expect("checked above") {
                Ok(result) => results.push(result),
                Err(error) => {
                    self.set_phase(&mut phase, Phase::Failed { error });
                    return;
                }
            }
        }
        let assembly = assembly
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("finalized exactly once");
        let report = ExperimentReport {
            spec: self.spec.clone(),
            data: ReportData::Grid(assembly.assemble(results)),
        };
        let done = match serde_json::to_string_pretty(&report) {
            Ok(report_json) => Phase::Done { report_json },
            Err(error) => Phase::Failed {
                error: format!("serializing report: {error}"),
            },
        };
        self.set_phase(&mut phase, done);
    }

    /// The payload for leasing `unit` to a runner.
    pub fn lease_payload(&self, unit: WorkUnit) -> LeasePayload {
        match (&self.work, unit) {
            (Work::Grid { session, .. }, WorkUnit::Cell(i)) => LeasePayload::Cell(
                session.config().clone(),
                Box::new(session.cells()[i].clone()),
            ),
            (_, WorkUnit::Inline) => LeasePayload::Spec(self.spec.clone()),
            (Work::Inline { .. }, WorkUnit::Cell(_)) => {
                unreachable!("cell unit claimed from an inline job")
            }
        }
    }

    /// Returns a claimed-but-undelivered unit to the job (its fleet lease
    /// was revoked): the cell (or the inline claim) becomes claimable
    /// again, so a dead runner costs only its in-flight work.
    pub fn requeue_unit(&self, unit: WorkUnit) {
        match (&self.work, unit) {
            (Work::Grid { session, .. }, WorkUnit::Cell(i)) => session.requeue(i),
            (Work::Inline { claimed, .. }, WorkUnit::Inline) => {
                claimed.store(false, Ordering::SeqCst);
            }
            _ => {}
        }
    }

    /// Delivers a leased cell's result into the job's session —
    /// determinism makes it independent of which runner computed it.
    pub fn deliver_cell(&self, index: usize, result: Result<SimResult, String>) {
        if let Work::Grid { session, .. } = &self.work {
            session.deliver(index, result);
        }
    }

    /// Delivers a leased analysis outcome: the report's pretty
    /// JSON on success, the error otherwise. No-op if already terminal
    /// (a late result after cancellation is simply dropped).
    pub fn deliver_inline(&self, outcome: Result<String, String>) {
        if matches!(self.work, Work::Inline { .. }) {
            self.finish(match outcome {
                Ok(report_json) => Phase::Done { report_json },
                Err(error) => Phase::Failed { error },
            });
        }
    }

    /// Requests cancellation: no new work is issued; in-flight cells
    /// finish. Too late for analysis jobs already running.
    pub fn cancel(&self) {
        match &self.work {
            Work::Grid { session, .. } => session.cancel_token().cancel(),
            Work::Inline { cancelled, .. } => cancelled.store(true, Ordering::SeqCst),
        }
    }

    /// Enforces a passed deadline from outside the claim path (the
    /// server's watchdog): finalizes if the job actually finished in
    /// time, otherwise stops the work and records `DeadlineExceeded`.
    pub fn expire_deadline(&self) {
        self.try_finalize();
        self.cancel();
        self.finish(Phase::DeadlineExceeded);
    }

    /// Forces the job into `Failed` with `error` (unless already
    /// terminal) and stops issuing work: the last-resort containment
    /// when finalization unwinds, and the watchdog's verdict for stuck
    /// cells.
    pub fn fail_with(&self, error: String) {
        self.cancel();
        self.finish(Phase::Failed { error });
    }

    /// Blocks until the job is terminal or `timeout` passes — the status
    /// long-poll. Wakes on the phase write itself, not on a poll tick.
    pub(crate) fn wait_terminal(&self, timeout: Duration) {
        let phase = self.lock_phase();
        let _ = self
            .phase_changed
            .wait_timeout_while(phase, timeout, |phase| !phase.is_terminal())
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// The job's current wire status.
    pub fn status(&self) -> JobStatus {
        let phase = self.lock_phase();
        let (state, error) = match &*phase {
            Phase::Queued => (JobState::Queued, None),
            Phase::Running => (JobState::Running, None),
            Phase::Done { .. } => (JobState::Done, None),
            Phase::Cancelled => (JobState::Cancelled, None),
            Phase::DeadlineExceeded => (JobState::DeadlineExceeded, None),
            Phase::Failed { error } => (JobState::Failed, Some(error.clone())),
        };
        let (total, issued, completed) = match &self.work {
            Work::Grid { session, .. } => {
                let p = session.progress();
                (p.total, p.issued, p.completed)
            }
            Work::Inline { claimed, .. } => {
                let claimed = claimed.load(Ordering::SeqCst) as usize;
                let done = matches!(*phase, Phase::Done { .. } | Phase::Failed { .. }) as usize;
                (1, claimed.max(done), done)
            }
        };
        JobStatus {
            id: self.id,
            name: self.spec.name.clone(),
            tenant: self.tenant.clone(),
            state,
            total_cells: total,
            issued_cells: issued,
            completed_cells: completed,
            error,
        }
    }

    /// Whether the job can still make progress (queued or running).
    pub fn is_active(&self) -> bool {
        !self.lock_phase().is_terminal()
    }

    /// The finished report's JSON, when the job is done.
    pub fn report_json(&self) -> Option<String> {
        match &*self.lock_phase() {
            Phase::Done { report_json } => Some(report_json.clone()),
            _ => None,
        }
    }

    /// The one place `phase` is written: every transition wakes the
    /// status long-polls waiting in [`Job::wait_terminal`].
    fn set_phase(&self, phase: &mut MutexGuard<'_, Phase>, next: Phase) {
        **phase = next;
        self.phase_changed.notify_all();
    }

    /// Moves the job to the terminal `next` unless it already ended (the
    /// first verdict wins).
    fn finish(&self, next: Phase) {
        let mut phase = self.lock_phase();
        if !phase.is_terminal() {
            self.set_phase(&mut phase, next);
        }
    }

    // Poison tolerance: phase updates are straight-line (no user code
    // runs under this lock), so a poisoned guard's data is intact;
    // recovering keeps one panicked thread from wedging status,
    // cancellation, and shutdown for everyone else.
    fn lock_phase(&self) -> MutexGuard<'_, Phase> {
        self.phase.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Whether `path` names a committed trace fixture: exactly
/// `specs/traces/<name>/index.json`, `<name>` one plain path component.
fn is_committed_trace(path: &str) -> bool {
    path.strip_prefix("specs/traces/")
        .and_then(|rest| rest.strip_suffix("/index.json"))
        .is_some_and(|name| !matches!(name, "" | "." | "..") && !name.contains('/'))
}

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}
