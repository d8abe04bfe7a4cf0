//! One submitted experiment job: a spec and the bookkeeping of its units.
//!
//! A job is a list of *units*, each leased to one runner at a time
//! ([`crate::fleet`]). A grid spec expands once at submission
//! ([`GridSpec::expand`]) into one unit per cell; an analysis spec (miss
//! curves, latency/capacity, planner runtimes, placement ablation) is a
//! single unit, run whole. Claim, requeue, cancel, deadline and status
//! take one code path for both kinds; only the lease payload
//! ([`Job::lease_grant`]) and finalization look at the kind.
//!
//! All of a job's mutable state sits under its one mutex: the next unit,
//! the re-queued units, the issued and completed counts, the result
//! slots, the cancel/deadline verdict, the grid's report assembly and the
//! phase. A claim, a delivered result or a status read takes that lock
//! once. The finished job stores its [`ExperimentReport`] pre-serialized
//! with `serde_json::to_string_pretty` — exactly the bytes
//! [`cdcs_bench::artifact::write`] would put in `out/<name>.json`, so a
//! served report and an in-process artifact are byte-comparable. The
//! report is assembled and serialized *outside* the lock (the phase reads
//! `Assembling` meanwhile), so a claim scan never waits on it.
//!
//! Every failure a job can suffer is *contained*: a panicking cell (or a
//! panicking analysis run, or an injected fault) fails this job with the
//! captured message, and so does a panic while assembling its report; a
//! passed deadline moves it to `DeadlineExceeded`; none of these takes
//! down a runner, the daemon, or any other tenant's jobs.
//!
//! Every phase change goes through one helper, which signals a condvar
//! when the job ends, so a status long-poll ([`Job::wait_terminal`])
//! returns the moment the job finishes instead of on the client's next
//! poll.
//!
//! [`GridSpec::expand`]: cdcs_bench::exp::GridSpec::expand

use crate::protocol::{JobState, JobStatus, LeaseGrant, LeaseResult};
use cdcs_bench::exp::{ExperimentReport, ExperimentSpec, GridAssembly, ReportData, SpecKind};
use cdcs_sim::runner::GridCell;
use cdcs_sim::session::{clamp_intra_cell, panic_message};
use cdcs_sim::SimConfig;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Internal lifecycle (the wire state plus the finished payloads).
#[derive(Debug)]
enum Phase {
    Queued,
    Running,
    /// Every unit is back and one thread is building the report outside
    /// the lock; no other verdict may land meanwhile.
    Assembling,
    Done {
        report_json: String,
    },
    Cancelled,
    DeadlineExceeded,
    Failed {
        error: String,
    },
}

impl Phase {
    fn is_terminal(&self) -> bool {
        matches!(
            self,
            Phase::Done { .. } | Phase::Cancelled | Phase::DeadlineExceeded | Phase::Failed { .. }
        )
    }
}

/// Why a job stopped issuing units (the first reason wins).
#[derive(Debug, Clone, Copy)]
enum Stop {
    Cancelled,
    Deadline,
}

/// Per-job submission options (tenant, deadline).
#[derive(Default, Clone)]
pub struct JobOptions {
    /// The submitting tenant (for status observability; admission already
    /// happened by the time a job exists).
    pub tenant: String,
    /// Wall-clock deadline: enforced when a unit is claimed or delivered,
    /// and in between by the server's watchdog.
    pub deadline: Option<Instant>,
}

/// Everything the job's mutex guards.
struct State {
    phase: Phase,
    /// Next never-issued unit.
    next: usize,
    /// Units whose lease was revoked; issued again before fresh ones.
    requeued: VecDeque<usize>,
    /// Units leased out and not re-queued (running or finished).
    issued: usize,
    /// Units whose result is back.
    completed: usize,
    /// Each unit's result, by unit index (one slot per unit).
    results: Vec<Option<LeaseResult>>,
    /// Set once no further unit may be issued.
    stop: Option<Stop>,
    /// The grid's report wiring, taken by the finalizer.
    assembly: Option<GridAssembly>,
}

impl State {
    /// Whether no further result can arrive: every issued unit is back,
    /// and either every unit was issued or issuing stopped.
    fn finished(&self) -> bool {
        self.completed == self.issued && (self.stop.is_some() || self.issued == self.results.len())
    }
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
    /// A grid spec's (pool-clamped) config and cells, one unit per cell;
    /// `None` for an analysis spec, whose one unit is the whole spec.
    grid: Option<(SimConfig, Vec<GridCell>)>,
    state: Mutex<State>,
    /// Signalled when the phase turns terminal (paired with the `state`
    /// mutex).
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
        let (grid, units, assembly) = match &spec.kind {
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
                let units = cells.len();
                let config = clamp_intra_cell(&config, workers);
                (Some((config, cells)), units, Some(assembly))
            }
            _ => (None, 1, None),
        };
        Ok(Job {
            id,
            spec,
            tenant,
            deadline: options.deadline,
            grid,
            state: Mutex::new(State {
                phase: Phase::Queued,
                next: 0,
                requeued: VecDeque::new(),
                issued: 0,
                completed: 0,
                results: (0..units).map(|_| None).collect(),
                stop: None,
                assembly,
            }),
            phase_changed: Condvar::new(),
        })
    }

    /// Claims the job's next unit for a polling runner — a re-queued unit
    /// before any fresh one — or `None` when the job has nothing left to
    /// issue (all issued, cancelled, or past its deadline).
    pub fn try_claim(&self) -> Option<usize> {
        let mut state = self.lock_state();
        if state.stop.is_some() {
            return None;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            state.stop = Some(Stop::Deadline);
            return None;
        }
        let unit = match state.requeued.pop_front() {
            Some(unit) => unit,
            None if state.next < state.results.len() => {
                state.next += 1;
                state.next - 1
            }
            None => return None,
        };
        state.issued += 1;
        if matches!(state.phase, Phase::Queued) {
            self.set_phase(&mut state, Phase::Running);
        }
        Some(unit)
    }

    /// The lease for a claimed `unit`: one grid cell with the job's
    /// (pool-clamped) config — the runner calls `run_cell` on them, as
    /// `run_grid` would — or the whole analysis spec, which the runner
    /// runs and pretty-prints (byte-equal by the spec serialization
    /// fixpoint). The fleet fills in the lease id and any fault.
    pub fn lease_grant(&self, unit: usize) -> LeaseGrant {
        let mut grant = LeaseGrant {
            job_id: self.id,
            ..LeaseGrant::default()
        };
        match &self.grid {
            Some((config, cells)) => {
                grant.cell_index = Some(unit);
                grant.config = Some(config.clone());
                grant.cell = Some(cells[unit].clone());
            }
            None => grant.spec = Some(self.spec.clone()),
        }
        grant
    }

    /// Returns a claimed-but-undelivered unit to the job (its lease was
    /// revoked): it is claimed again before any fresh unit, and the issued
    /// count rolls back, so a dead runner costs only its in-flight work.
    pub fn requeue(&self, unit: usize) {
        let mut state = self.lock_state();
        state.issued = state.issued.saturating_sub(1);
        state.requeued.push_back(unit);
    }

    /// Records a leased unit's result — determinism makes it independent
    /// of which runner computed it — and finalizes the job if that was
    /// the last result outstanding. A result that lands after the job's
    /// deadline ends it `DeadlineExceeded`: the job did not finish in
    /// time, whenever the watchdog's next tick would have noticed. A
    /// result that lands after the job ended still counts as completed,
    /// and changes nothing else.
    pub fn deliver(&self, unit: usize, result: LeaseResult) {
        let mut state = self.lock_state();
        state.completed += 1;
        state.results[unit] = Some(result);
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            state.stop.get_or_insert(Stop::Deadline);
            self.finish(&mut state, Phase::DeadlineExceeded);
        }
        self.finalize(state);
    }

    /// Finalizes the job if no further result can arrive (see
    /// [`Job::deliver`]). Idempotent and safe to call from any thread.
    pub fn try_finalize(&self) {
        self.finalize(self.lock_state());
    }

    /// Requests cancellation: no new unit is issued; in-flight units
    /// finish and still count. Too late for a job whose every unit is
    /// already out (an analysis job that is running, say): it still ends
    /// `Done`.
    pub fn cancel(&self) {
        let mut state = self.lock_state();
        state.stop.get_or_insert(Stop::Cancelled);
        self.finalize(state);
    }

    /// Enforces a passed deadline from outside the claim path (the
    /// server's watchdog): a job whose every unit is back finalizes as
    /// usual, one with work outstanding stops issuing and ends
    /// `DeadlineExceeded` now.
    pub fn expire_deadline(&self) {
        let mut state = self.lock_state();
        state.stop.get_or_insert(Stop::Deadline);
        if !state.finished() {
            self.finish(&mut state, Phase::DeadlineExceeded);
        }
        self.finalize(state);
    }

    /// Forces the job into `Failed` with `error` (unless it already ended)
    /// and stops issuing units — the watchdog's verdict for stuck cells.
    pub fn fail_with(&self, error: String) {
        let mut state = self.lock_state();
        state.stop.get_or_insert(Stop::Cancelled);
        self.finish(&mut state, Phase::Failed { error });
    }

    /// Blocks until the job is terminal or `timeout` passes — the status
    /// long-poll. Wakes on the phase write itself, not on a poll tick.
    pub(crate) fn wait_terminal(&self, timeout: Duration) {
        let state = self.lock_state();
        let _ = self
            .phase_changed
            .wait_timeout_while(state, timeout, |state| !state.phase.is_terminal())
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// The job's current wire status.
    pub fn status(&self) -> JobStatus {
        let state = self.lock_state();
        let (wire, error) = match &state.phase {
            Phase::Queued => (JobState::Queued, None),
            Phase::Running | Phase::Assembling => (JobState::Running, None),
            Phase::Done { .. } => (JobState::Done, None),
            Phase::Cancelled => (JobState::Cancelled, None),
            Phase::DeadlineExceeded => (JobState::DeadlineExceeded, None),
            Phase::Failed { error } => (JobState::Failed, Some(error.clone())),
        };
        JobStatus {
            id: self.id,
            name: self.spec.name.clone(),
            tenant: self.tenant.clone(),
            state: wire,
            total_cells: state.results.len(),
            issued_cells: state.issued,
            completed_cells: state.completed,
            error,
        }
    }

    /// Whether the job can still make progress (queued or running).
    pub fn is_active(&self) -> bool {
        !self.lock_state().phase.is_terminal()
    }

    /// The finished report's JSON, when the job is done.
    pub fn report_json(&self) -> Option<String> {
        match &self.lock_state().phase {
            Phase::Done { report_json } => Some(report_json.clone()),
            _ => None,
        }
    }

    /// Ends the job once no further result can arrive: with a result
    /// missing (issuing stopped early) as `Cancelled` or
    /// `DeadlineExceeded`; otherwise by assembling the report outside the
    /// lock, with a panic there contained as this job's failure.
    fn finalize(&self, mut state: MutexGuard<'_, State>) {
        if state.phase.is_terminal()
            || matches!(state.phase, Phase::Assembling)
            || !state.finished()
        {
            return;
        }
        if state.results.iter().any(Option::is_none) {
            // Stopped before every unit ran: partial work, no report. (A
            // cancel that lands after the last unit completed still
            // produces a full report below.)
            let stopped = match state.stop {
                Some(Stop::Deadline) => Phase::DeadlineExceeded,
                _ => Phase::Cancelled,
            };
            self.set_phase(&mut state, stopped);
            return;
        }
        let results: Vec<LeaseResult> = state.results.iter_mut().filter_map(Option::take).collect();
        let assembly = state.assembly.take();
        self.set_phase(&mut state, Phase::Assembling);
        drop(state);
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match self.report(results, assembly) {
                Ok(report_json) => Phase::Done { report_json },
                Err(error) => Phase::Failed { error },
            }
        }))
        .unwrap_or_else(|payload| Phase::Failed {
            error: format!(
                "internal error executing job {}: {}",
                self.id,
                panic_message(payload.as_ref())
            ),
        });
        self.set_phase(&mut self.lock_state(), verdict);
    }

    /// The finished report's pretty JSON from every unit's result, or the
    /// first failure in unit order.
    fn report(
        &self,
        results: Vec<LeaseResult>,
        assembly: Option<GridAssembly>,
    ) -> Result<String, String> {
        let Some(assembly) = assembly else {
            // An analysis job: its one unit carries the report itself.
            let result = results.into_iter().next().unwrap_or_default();
            return outcome(result.report_json, result.err);
        };
        let results = results
            .into_iter()
            .map(|result| outcome(result.ok, result.err))
            .collect::<Result<Vec<_>, String>>()?;
        let report = ExperimentReport {
            spec: self.spec.clone(),
            data: ReportData::Grid(assembly.assemble(results)),
        };
        serde_json::to_string_pretty(&report)
            .map_err(|error| format!("serializing report: {error}"))
    }

    /// The one place the phase is written. The status long-polls in
    /// [`Job::wait_terminal`] wait only for a terminal phase, so only
    /// those transitions wake them.
    fn set_phase(&self, state: &mut MutexGuard<'_, State>, next: Phase) {
        let wake = next.is_terminal();
        state.phase = next;
        if wake {
            self.phase_changed.notify_all();
        }
    }

    /// Moves the job to the terminal `next` unless it already ended or is
    /// assembling its report (the first verdict wins).
    fn finish(&self, state: &mut MutexGuard<'_, State>, next: Phase) {
        if !state.phase.is_terminal() && !matches!(state.phase, Phase::Assembling) {
            self.set_phase(state, next);
        }
    }

    // Poison tolerance: the state is only mutated in straight-line code
    // (the report is built outside the lock), so a poisoned guard's data
    // is intact; recovering keeps one panicked thread from wedging claims,
    // status, cancellation, and shutdown for everyone else.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One unit's result as a `Result`: its payload, or the runner's error.
fn outcome<T>(ok: Option<T>, err: Option<String>) -> Result<T, String> {
    match (ok, err) {
        (Some(ok), _) => Ok(ok),
        (None, Some(err)) => Err(err),
        (None, None) => Err("runner returned an empty result".into()),
    }
}

/// Whether `path` names a committed trace fixture: exactly
/// `specs/traces/<name>/index.json`, `<name>` one plain path component.
fn is_committed_trace(path: &str) -> bool {
    path.strip_prefix("specs/traces/")
        .and_then(|rest| rest.strip_suffix("/index.json"))
        .is_some_and(|name| !matches!(name, "" | "." | "..") && !name.contains('/'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdcs_bench::exp::{BaseConfig, GridSpec, MixEntry};
    use cdcs_bench::specs;
    use cdcs_sim::runner::{run_cell, CellRun};
    use cdcs_sim::Scheme;
    use cdcs_workload::MixSpec;

    /// A SmallTest grid with exactly one cell per app.
    fn cells_spec(name: &str, apps: &[&str]) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            kind: SpecKind::Grid(GridSpec {
                base: BaseConfig::SmallTest,
                schemes: vec![Scheme::cdcs()],
                mixes: apps
                    .iter()
                    .map(|app| MixEntry::auto(MixSpec::Named(vec![app.to_string()])))
                    .collect(),
                seeds: Vec::new(),
                patches: Vec::new(),
                run: CellRun::Steady,
                weighted_speedup: false,
                auto_intra_cell: false,
            }),
        }
    }

    fn job(spec: ExperimentSpec, deadline: Option<Instant>) -> Job {
        let options = JobOptions {
            tenant: String::new(),
            deadline,
        };
        Job::new(0, spec, 1, options).expect("job builds")
    }

    /// A result whose content no assertion reads (the job stops early).
    fn stand_in() -> LeaseResult {
        LeaseResult {
            err: Some("stand-in".into()),
            ..LeaseResult::default()
        }
    }

    #[test]
    fn a_requeued_unit_is_handed_out_before_fresh_ones_and_issued_rolls_back() {
        let job = job(cells_spec("requeue", &["milc", "omnet", "bzip2"]), None);
        assert_eq!(job.status().state, JobState::Queued);
        assert_eq!((job.try_claim(), job.try_claim()), (Some(0), Some(1)));
        assert_eq!(job.status().state, JobState::Running);

        // Unit 0's lease is revoked while unit 1 stays in flight.
        job.requeue(0);
        let status = job.status();
        assert_eq!((status.issued_cells, status.completed_cells), (1, 0));
        assert_eq!(
            job.try_claim(),
            Some(0),
            "the revoked unit outranks fresh ones"
        );
        assert_eq!(job.try_claim(), Some(2));
        assert_eq!(job.try_claim(), None, "every unit is out");
        assert_eq!(job.status().issued_cells, 3);
    }

    #[test]
    fn cancel_stops_new_claims_while_in_flight_cells_still_deliver() {
        let job = job(cells_spec("cancel", &["milc", "omnet", "bzip2"]), None);
        let (a, b) = (job.try_claim(), job.try_claim());
        job.deliver(a.expect("unit 0"), stand_in());
        job.cancel();
        assert_eq!(job.try_claim(), None, "a cancelled job issues nothing");
        assert_eq!(job.status().state, JobState::Running, "unit 1 is in flight");

        job.deliver(b.expect("unit 1"), stand_in());
        let status = job.status();
        assert_eq!(status.state, JobState::Cancelled);
        assert_eq!((status.issued_cells, status.completed_cells), (2, 2));
        assert!(job.report_json().is_none(), "partial work has no report");
    }

    #[test]
    fn a_deadline_seen_at_claim_ends_as_deadline_exceeded_not_cancelled() {
        let expired = job(
            cells_spec("expired", &["milc", "omnet"]),
            Some(Instant::now() - Duration::from_millis(1)),
        );
        assert_eq!(expired.try_claim(), None, "an expired job issues nothing");
        // A later cancel neither rewrites the verdict nor issues work.
        expired.cancel();
        let status = expired.status();
        assert_eq!(status.state, JobState::DeadlineExceeded);
        assert_eq!((status.issued_cells, status.completed_cells), (0, 0));

        let mut live = job(
            cells_spec("live", &["milc", "omnet"]),
            Some(Instant::now() + Duration::from_secs(3600)),
        );
        assert_eq!(
            live.try_claim(),
            Some(0),
            "a future deadline claims normally"
        );
        // The deadline passes while unit 0 runs: its result lands too late
        // for a report, whether or not the watchdog has ticked yet.
        live.deadline = Some(Instant::now() - Duration::from_millis(1));
        live.deliver(0, stand_in());
        let status = live.status();
        assert_eq!(status.state, JobState::DeadlineExceeded);
        assert_eq!((status.issued_cells, status.completed_cells), (1, 1));
    }

    #[test]
    fn externally_delivered_results_assemble_the_in_process_report() {
        let spec = cells_spec("external", &["milc", "omnet"]);
        let job = job(spec.clone(), None);
        let units: Vec<usize> = std::iter::from_fn(|| job.try_claim()).collect();
        assert_eq!(units, [0, 1]);
        // A runner executes each lease from its `(config, cell)` alone;
        // the results land last cell first.
        for unit in units.into_iter().rev() {
            let grant = job.lease_grant(unit);
            let (Some(config), Some(cell)) = (&grant.config, &grant.cell) else {
                panic!("a grid unit leases a cell: {grant:?}");
            };
            let result = LeaseResult {
                ok: Some(run_cell(config, cell).expect("cell runs")),
                ..LeaseResult::default()
            };
            job.deliver(unit, result);
        }
        let in_process = spec.run().expect("spec runs");
        let expected = serde_json::to_string_pretty(&in_process).expect("report serializes");
        assert_eq!(job.report_json(), Some(expected));
        let status = job.status();
        assert_eq!((status.state, status.completed_cells), (JobState::Done, 2));
    }

    #[test]
    fn an_analysis_job_is_one_unit_for_claim_requeue_and_cancel() {
        let job = job(specs::fig5(), None);
        assert_eq!(job.status().total_cells, 1);
        assert_eq!(job.try_claim(), Some(0));
        let grant = job.lease_grant(0);
        assert!(grant.cell.is_none() && grant.cell_index.is_none());
        assert_eq!(
            grant.spec.as_ref(),
            Some(&job.spec),
            "the lease ships the spec"
        );
        assert_eq!(job.try_claim(), None, "one unit only");

        job.requeue(0);
        assert_eq!(job.status().issued_cells, 0);
        assert_eq!(
            job.try_claim(),
            Some(0),
            "a revoked analysis lease is claimable again"
        );

        // Too late to cancel: the one unit is out, and its report stands.
        job.cancel();
        assert_eq!(job.status().state, JobState::Running);
        let report = LeaseResult {
            report_json: Some("{\"stand\":\"in\"}".into()),
            ..LeaseResult::default()
        };
        job.deliver(0, report);
        assert_eq!(job.report_json().as_deref(), Some("{\"stand\":\"in\"}"));

        // Cancelled before any runner claimed it: nothing issued, no report.
        let idle = Job::new(1, specs::fig5(), 1, JobOptions::default()).expect("job builds");
        idle.cancel();
        assert_eq!(idle.try_claim(), None);
        let status = idle.status();
        assert_eq!(
            (status.state, status.issued_cells, status.completed_cells),
            (JobState::Cancelled, 0, 0)
        );
    }
}
