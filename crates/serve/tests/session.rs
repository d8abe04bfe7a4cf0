//! A job's claim session, driven the way the fleet drives it but without
//! HTTP: units are claimed, run from their lease grant alone (as a runner
//! runs them) and delivered back. With real cell results, a single driver
//! claims in unit order, a revoked unit is handed out again before fresh
//! ones, cancellation stops issuing while in-flight cells still land, and
//! a job whose every unit lands serves the in-process report bytes.

use cdcs_bench::exp::{BaseConfig, ExperimentSpec, GridSpec, MixEntry, SpecKind};
use cdcs_serve::job::{Job, JobOptions};
use cdcs_serve::protocol::{JobState, LeaseResult};
use cdcs_sim::runner::{run_cell, CellRun};
use cdcs_sim::Scheme;
use cdcs_workload::MixSpec;
use std::sync::Barrier;

/// A SmallTest grid of five cells, one app each.
fn five_cells(name: &str) -> ExperimentSpec {
    let apps = ["calculix", "milc", "omnet", "bzip2", "xalancbmk"];
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

fn job(spec: &ExperimentSpec) -> Job {
    Job::new(0, spec.clone(), 1, JobOptions::default()).expect("job builds")
}

/// What a runner sends back for `unit`: `run_cell` on the lease's
/// `(config, cell)` pair alone.
fn run_unit(job: &Job, unit: usize) -> LeaseResult {
    let grant = job.lease_grant(unit);
    let (Some(config), Some(cell)) = (&grant.config, &grant.cell) else {
        panic!("a grid unit leases a cell: {grant:?}");
    };
    LeaseResult {
        ok: Some(run_cell(config, cell).expect("cell runs")),
        ..LeaseResult::default()
    }
}

/// The report bytes the same spec produces in process.
fn in_process_report(spec: &ExperimentSpec) -> String {
    serde_json::to_string_pretty(&spec.run().expect("spec runs")).expect("report serializes")
}

#[test]
fn externally_driven_session_streams_in_claim_order() {
    let spec = five_cells("claim_order");
    let job = job(&spec);

    // Drive one unit by hand, then look at the job between results.
    assert_eq!(job.try_claim(), Some(0));
    job.deliver(0, run_unit(&job, 0));
    let status = job.status();
    assert_eq!(status.state, JobState::Running, "fresh units remain");
    assert_eq!((status.issued_cells, status.completed_cells), (1, 1));

    let rest: Vec<usize> = std::iter::from_fn(|| job.try_claim()).collect();
    assert_eq!(rest, [1, 2, 3, 4], "a single driver claims in unit order");
    for unit in rest {
        job.deliver(unit, run_unit(&job, unit));
    }
    assert_eq!(job.status().state, JobState::Done);
    assert_eq!(job.report_json(), Some(in_process_report(&spec)));
}

#[test]
fn requeued_cells_are_reclaimed_before_fresh_indices() {
    let spec = five_cells("requeue");
    let job = job(&spec);

    // Claim two units; "lose" the first lease (revocation) and keep the
    // second in flight.
    assert_eq!((job.try_claim(), job.try_claim()), (Some(0), Some(1)));
    job.requeue(0);
    let status = job.status();
    assert_eq!(
        (status.issued_cells, status.completed_cells),
        (1, 0),
        "requeue rolls the claim back"
    );

    // The revoked unit is handed out again before any fresh one.
    assert_eq!(job.try_claim(), Some(0), "revoked unit outranks fresh ones");
    job.deliver(0, run_unit(&job, 0));
    job.deliver(1, run_unit(&job, 1));
    while let Some(unit) = job.try_claim() {
        job.deliver(unit, run_unit(&job, unit));
    }

    // Each unit landed once: the report is the in-process one.
    let status = job.status();
    assert_eq!(
        (status.state, status.issued_cells, status.completed_cells),
        (JobState::Done, 5, 5)
    );
    assert_eq!(job.report_json(), Some(in_process_report(&spec)));
}

#[test]
fn cancelled_session_stops_issuing_and_returns_partial_results() {
    let spec = five_cells("cancel");
    let job = job(&spec);

    // Two units complete and a third is in flight when the job is
    // cancelled.
    for _ in 0..2 {
        let unit = job.try_claim().expect("claimable");
        job.deliver(unit, run_unit(&job, unit));
    }
    let in_flight = job.try_claim().expect("claimable");
    job.cancel();
    assert_eq!(job.try_claim(), None, "cancelled jobs issue no new units");
    assert_eq!(job.status().state, JobState::Running, "one unit is out");

    // Its runner dies: the revoked unit goes back but is never issued
    // again, and the fleet's next claim scan finalizes the job.
    job.requeue(in_flight);
    assert_eq!(job.try_claim(), None, "nothing is reissued after cancel");
    job.try_finalize();

    // The partial work counts in the status; there is no report.
    let status = job.status();
    assert_eq!(
        (status.state, status.issued_cells, status.completed_cells),
        (JobState::Cancelled, 2, 2)
    );
    assert!(job.report_json().is_none(), "partial work has no report");
}

#[test]
fn cancelling_mid_flight_delivers_in_flight_cells() {
    let spec = five_cells("cancel_mid_flight");
    let job = job(&spec);

    // Two runners each hold a unit when the job is cancelled; both cells
    // still run, on their own threads, and land. (Nothing between the
    // barriers may panic, or the other parties would wait forever.)
    let claimed = Barrier::new(3);
    let cancelled = Barrier::new(3);
    let (claim_after_cancel, state_after_cancel) = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let unit = job.try_claim();
                claimed.wait();
                cancelled.wait();
                let unit = unit.expect("a unit for each runner");
                job.deliver(unit, run_unit(&job, unit));
            });
        }
        claimed.wait();
        job.cancel();
        let seen = (job.try_claim(), job.status().state);
        cancelled.wait();
        seen
    });
    assert_eq!(
        claim_after_cancel, None,
        "cancelled jobs issue no new units"
    );
    assert_eq!(state_after_cancel, JobState::Running, "two units are out");

    let status = job.status();
    assert_eq!(
        (status.state, status.issued_cells, status.completed_cells),
        (JobState::Cancelled, 2, 2),
        "both in-flight cells are accounted for"
    );
    assert!(job.report_json().is_none(), "partial work has no report");
}
