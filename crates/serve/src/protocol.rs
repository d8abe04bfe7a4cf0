//! The daemon's JSON wire types.
//!
//! Job *inputs* are plain [`cdcs_bench::exp::ExperimentSpec`] JSON (the
//! same bytes `specs/quickstart.json` holds and the round-trip golden test
//! pins); job *reports* are [`cdcs_bench::exp::ExperimentReport`] JSON,
//! byte-equal to the `out/` artifact the same spec produces in process.
//! This module only adds the thin envelope around them: job status,
//! submission replies, and errors.

use serde::{Deserialize, Serialize};

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted; no cell has started yet.
    Queued,
    /// At least one cell has been claimed by a runner.
    Running,
    /// Finished; the report is available.
    Done,
    /// Cancelled before every cell ran; no report.
    Cancelled,
    /// The job's deadline passed before it finished; no report.
    DeadlineExceeded,
    /// A cell (or the report serialization) failed; no report.
    Failed,
}

impl JobState {
    /// Whether the state is final (no further transitions).
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// One job's live status (`GET /jobs/<id>`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Server-assigned job id.
    pub id: u64,
    /// The submitted spec's name (`out/<name>.json` artifact name).
    pub name: String,
    /// The submitting tenant (`X-Tenant` header; `"default"` otherwise).
    pub tenant: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Total cells in the job's grid (1 for analysis specs).
    pub total_cells: usize,
    /// Cells claimed by runners so far (running or finished).
    pub issued_cells: usize,
    /// Cells finished so far.
    pub completed_cells: usize,
    /// The failure message, when `state` is `Failed`.
    pub error: Option<String>,
}

/// Reply to `POST /jobs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitReply {
    /// The new job's id (poll `GET /jobs/<id>`).
    pub id: u64,
}

/// Reply to `GET /jobs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobList {
    /// Every job the daemon has accepted, in submission order.
    pub jobs: Vec<JobStatus>,
}

/// Error envelope for non-2xx replies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// What went wrong.
    pub error: String,
}

// ---------------------------------------------------------------------------
// Fleet wire types. Every field is `#[serde(default)]` so a version-skewed
// runner and daemon parse each other leniently (the golden-coupling lint
// pins this); enums are avoided in favor of flat `Option` fields for the
// same reason, except a lease's injected fault, which old runners skip.
// ---------------------------------------------------------------------------

/// Body of `POST /fleet/runners` — a runner introducing itself.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunnerHello {
    /// Free-form runner name (host, pid, ...) for observability.
    #[serde(default)]
    pub name: String,
}

/// Reply to registration: the runner's identity plus the protocol knobs
/// it must honor.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegisterReply {
    /// Server-assigned runner id.
    #[serde(default)]
    pub runner_id: u64,
    /// Heartbeat window: a lease unbeaten for this long is revoked.
    #[serde(default)]
    pub lease_ttl_ms: u64,
    /// How long an idle poll asks to wait (`?wait_ms=`) for work, and
    /// the least time between two idle polls: a runner whose empty poll
    /// comes back sooner (a daemon that answers at once) sleeps the rest.
    #[serde(default)]
    pub poll_ms: u64,
}

/// Reply to `POST /fleet/runners/<id>/poll`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PollReply {
    /// The granted lease, or `None` when no work became claimable within
    /// the poll's wait.
    #[serde(default)]
    pub lease: Option<LeaseGrant>,
}

/// One leased unit of work. Exactly one of `cell` / `spec` is populated:
/// a grid-cell lease carries `(config, cell)` (the runner calls
/// `run_cell`), an analysis lease carries the whole `spec` (the runner
/// calls `spec.run()`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LeaseGrant {
    /// Lease id — heartbeats and the result POST reference it.
    #[serde(default)]
    pub lease_id: u64,
    /// The job this unit belongs to.
    #[serde(default)]
    pub job_id: u64,
    /// Grid-cell index within the job, for cell leases.
    #[serde(default)]
    pub cell_index: Option<usize>,
    /// The job's (pool-clamped) config, for cell leases.
    #[serde(default)]
    pub config: Option<cdcs_sim::SimConfig>,
    /// The cell itself, for cell leases.
    #[serde(default)]
    pub cell: Option<cdcs_sim::runner::GridCell>,
    /// The full spec, for analysis (inline) leases.
    #[serde(default)]
    pub spec: Option<cdcs_bench::exp::ExperimentSpec>,
    /// An injected fault the runner fires just before the cell runs.
    #[serde(default)]
    pub fault: Option<crate::faults::CellFault>,
}

/// Body of `POST /fleet/leases/<id>/result`. Exactly one field is
/// populated: `ok` for a cell's `SimResult`, `report_json` for an
/// analysis lease's pretty-printed report, `err` for either kind's
/// failure.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LeaseResult {
    /// A cell lease's result.
    #[serde(default)]
    pub ok: Option<cdcs_sim::SimResult>,
    /// An analysis lease's report, pre-serialized with
    /// `to_string_pretty` (the byte-equality fixpoint).
    #[serde(default)]
    pub report_json: Option<String>,
    /// The failure message, for either kind.
    #[serde(default)]
    pub err: Option<String>,
}

/// Generic acknowledgement (heartbeats, result posts, deregistration).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AckReply {
    /// Whether the referenced lease/runner was still live. `false` means
    /// the lease was revoked (or the runner expired): stop working on it;
    /// its cell is already re-queued.
    #[serde(default)]
    pub ok: bool,
}

/// Reply to `GET /fleet` — fleet-wide observability counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetStatus {
    /// Registered runners, in id order.
    #[serde(default)]
    pub runners: Vec<RunnerStatus>,
    /// Leases currently outstanding.
    #[serde(default)]
    pub active_leases: usize,
    /// Units completed by the fleet since startup.
    #[serde(default)]
    pub completed: usize,
    /// Units re-queued by revocations (lost heartbeats, dead runners,
    /// injected `lose_lease` faults) since startup.
    #[serde(default)]
    pub requeued: usize,
}

/// One runner's slice of [`FleetStatus`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunnerStatus {
    /// Runner id.
    #[serde(default)]
    pub id: u64,
    /// The name it registered with.
    #[serde(default)]
    pub name: String,
    /// Leases it currently holds.
    #[serde(default)]
    pub active_leases: usize,
    /// Units it has completed.
    #[serde(default)]
    pub completed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_round_trips() {
        let status = JobStatus {
            id: 3,
            name: "quickstart".into(),
            tenant: "default".into(),
            state: JobState::Running,
            total_cells: 7,
            issued_cells: 4,
            completed_cells: 2,
            error: None,
        };
        let json = serde_json::to_string(&status).unwrap();
        let back: JobStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(back, status);
        let failed = JobStatus {
            state: JobState::Failed,
            error: Some("boom".into()),
            ..status
        };
        let back: JobStatus =
            serde_json::from_str(&serde_json::to_string(&failed).unwrap()).unwrap();
        assert_eq!(back, failed);
    }

    #[test]
    fn fleet_types_round_trip_and_parse_leniently() {
        let grant = LeaseGrant {
            lease_id: 9,
            job_id: 2,
            cell_index: Some(4),
            config: None,
            cell: None,
            spec: None,
            fault: Some(crate::faults::CellFault::SlowMs(5)),
        };
        let reply = PollReply {
            lease: Some(grant.clone()),
        };
        let back: PollReply =
            serde_json::from_str(&serde_json::to_string(&reply).unwrap()).unwrap();
        assert_eq!(back, reply);

        // Lenient parsing: an empty object is every fleet type's default —
        // the version-skew contract the golden-coupling lint pins.
        let empty: PollReply = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, PollReply::default());
        let empty: RegisterReply = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, RegisterReply::default());
        let empty: LeaseResult = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, LeaseResult::default());
        let empty: FleetStatus = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, FleetStatus::default());
    }

    #[test]
    fn terminal_states_are_exactly_the_non_live_ones() {
        for (state, terminal) in [
            (JobState::Queued, false),
            (JobState::Running, false),
            (JobState::Done, true),
            (JobState::Cancelled, true),
            (JobState::DeadlineExceeded, true),
            (JobState::Failed, true),
        ] {
            assert_eq!(state.is_terminal(), terminal, "{state:?}");
            let back: JobState =
                serde_json::from_str(&serde_json::to_string(&state).unwrap()).unwrap();
            assert_eq!(back, state);
        }
    }
}
