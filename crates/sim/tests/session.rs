//! Streaming-session semantics: results stream in completion order and
//! match the serial reference bit-for-bit; cancellation stops issuing new
//! cells and returns partial results cleanly; progress counters are live
//! and consistent.

use cdcs_sim::runner::{run_grid_serial, GridCell};
use cdcs_sim::{GridSession, Scheme, SimConfig};
use cdcs_workload::{MixSpec, WorkloadMix};

fn mix(names: &[&str]) -> WorkloadMix {
    WorkloadMix::from_spec(&MixSpec::Named(
        names.iter().map(|s| s.to_string()).collect(),
    ))
    .expect("mix")
}

fn five_cells() -> Vec<GridCell> {
    let mixes = [mix(&["calculix", "milc"]), mix(&["bzip2", "omnet"])];
    let mut cells = Vec::new();
    for m in &mixes {
        for scheme in [Scheme::SNuca, Scheme::cdcs()] {
            cells.push(GridCell::new(scheme, m.clone()));
        }
    }
    cells.push(GridCell::new(Scheme::SNuca, mixes[0].clone()).with_seed(99));
    cells
}

#[test]
fn streamed_results_match_serial_reference() {
    let config = SimConfig::small_test();
    let cells = five_cells();
    let serial = run_grid_serial(&config, &cells).expect("serial grid");

    // A real multi-worker pool, even on single-core runners: the streaming
    // machinery (claim queue, delivery, join) is what's under test.
    let session = GridSession::spawn(&config, cells.clone(), 3);
    let mut seen = vec![false; cells.len()];
    let mut received = 0usize;
    while let Some(done) = session.recv() {
        assert!(!seen[done.index], "cell {} delivered twice", done.index);
        seen[done.index] = true;
        received += 1;
        let result = done.result.expect("cell runs");
        assert_eq!(
            result, serial[done.index],
            "cell {} diverged from the serial reference",
            done.index
        );
    }
    assert_eq!(received, cells.len(), "every cell streamed exactly once");
    let progress = session.progress();
    assert!(progress.finished());
    assert_eq!(progress.completed, cells.len());
}

#[test]
fn externally_driven_session_streams_in_claim_order() {
    let config = SimConfig::small_test();
    let cells = five_cells();
    let serial = run_grid_serial(&config, &cells).expect("serial grid");
    let session = GridSession::queued(&config, cells.clone());

    // Drive two cells by hand, interleaving claims with receives.
    let first = session.try_claim().expect("cell 0");
    assert_eq!(first, 0);
    session.run_claimed(first);
    let done = session.recv().expect("first result");
    assert_eq!(done.index, 0);
    assert_eq!(done.result.expect("runs"), serial[0]);

    let progress = session.progress();
    assert_eq!((progress.issued, progress.completed), (1, 1));
    assert!(!progress.finished());

    session.drive();
    let remaining: Vec<usize> = std::iter::from_fn(|| session.recv())
        .map(|d| d.index)
        .collect();
    assert_eq!(remaining, vec![1, 2, 3, 4], "single driver preserves order");
}

#[test]
fn cancelled_session_stops_issuing_and_returns_partial_results() {
    let config = SimConfig::small_test();
    let cells = five_cells();
    let serial = run_grid_serial(&config, &cells).expect("serial grid");
    let session = GridSession::queued(&config, cells.clone());
    let token = session.cancel_token();

    // Two cells complete, then the job is cancelled.
    for _ in 0..2 {
        let i = session.try_claim().expect("claimable");
        session.run_claimed(i);
    }
    assert!(!token.is_cancelled());
    token.cancel();
    assert!(token.is_cancelled());
    assert!(
        session.try_claim().is_none(),
        "cancelled sessions issue no new cells"
    );

    let progress = session.progress();
    assert!(progress.cancelled);
    assert_eq!((progress.issued, progress.completed), (2, 2));
    assert!(progress.finished(), "nothing in flight after cancellation");

    let slots = session.join();
    assert_eq!(slots.len(), cells.len());
    for (i, slot) in slots.iter().enumerate() {
        match slot {
            Some(result) if i < 2 => {
                assert_eq!(result.as_ref().expect("ran"), &serial[i], "cell {i}");
            }
            None if i >= 2 => {}
            other => panic!("cell {i}: unexpected slot {other:?}"),
        }
    }
}

#[test]
fn cancelling_mid_flight_delivers_in_flight_cells() {
    let config = SimConfig::small_test();
    let cells = five_cells();
    // Cancel as soon as the first result lands: workers finish what they
    // claimed; nothing new is issued afterwards.
    let session = GridSession::spawn(&config, cells.clone(), 2);
    let token = session.cancel_token();
    let first = session.recv().expect("at least one cell completes");
    token.cancel();
    let serial = run_grid_serial(&config, &cells).expect("serial grid");
    assert_eq!(first.result.expect("ran"), serial[first.index]);
    let slots = session.join();
    let completed = slots.iter().flatten().count();
    assert!(completed >= 1, "the received cell is accounted for");
    for (i, result) in slots.iter().enumerate() {
        if let Some(r) = result {
            assert_eq!(r.as_ref().expect("ran"), &serial[i], "cell {i}");
        }
    }
}

#[test]
fn empty_session_finishes_immediately() {
    let config = SimConfig::small_test();
    let session = GridSession::spawn(&config, Vec::new(), 4);
    assert!(session.progress().finished());
    assert!(session.recv().is_none());
    assert!(session.join().is_empty());
}

#[test]
fn expired_deadline_stops_issuing_and_is_distinguishable_from_cancel() {
    use cdcs_sim::SessionOptions;
    use std::time::{Duration, Instant};

    let config = SimConfig::small_test();
    let cells = five_cells();
    let serial = run_grid_serial(&config, &cells).expect("serial grid");

    // One cell completes before the deadline passes; the rest never issue.
    let session = GridSession::queued_with(
        &config,
        cells.clone(),
        SessionOptions {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
        },
    );
    let i = session.try_claim().expect("claimable before the deadline");
    session.run_claimed(i);
    assert!(!session.deadline_exceeded());

    // A second session whose deadline is already in the past.
    let expired = GridSession::queued_with(
        &config,
        cells.clone(),
        SessionOptions {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        },
    );
    assert!(!expired.deadline_exceeded(), "unobserved until a claim");
    assert!(
        expired.try_claim().is_none(),
        "expired sessions issue nothing"
    );
    assert!(expired.deadline_exceeded());
    let progress = expired.progress();
    assert!(progress.cancelled, "expiry behaves as cancellation");
    assert!(progress.finished());
    assert!(expired.recv().is_none(), "the stream terminates cleanly");

    // The live session still works and its result matches the reference.
    let done = session.recv().expect("pre-deadline cell delivered");
    assert_eq!(done.result.expect("ran"), serial[done.index]);
}

#[test]
fn requeued_cells_are_reclaimed_before_fresh_indices() {
    let config = SimConfig::small_test();
    let cells = five_cells();
    let serial = run_grid_serial(&config, &cells).expect("serial grid");
    let session = GridSession::queued(&config, cells.clone());

    // Claim two cells; "lose" the first lease (revocation) and keep the
    // second in flight.
    let a = session.try_claim().expect("cell 0");
    let b = session.try_claim().expect("cell 1");
    assert_eq!((a, b), (0, 1));
    session.requeue(a);
    let progress = session.progress();
    assert_eq!(
        (progress.issued, progress.completed),
        (1, 0),
        "requeue rolls the claim back"
    );

    // The revoked index is handed out again before any fresh cell.
    let again = session.try_claim().expect("requeued cell");
    assert_eq!(again, a, "revoked cell outranks fresh indices");
    session.run_claimed(again);
    session.run_claimed(b);
    session.drive();

    let slots = session.join();
    for (i, slot) in slots.into_iter().enumerate() {
        let result = slot.expect("every cell issued");
        assert_eq!(result.expect("ran"), serial[i], "cell {i}");
    }
}

#[test]
fn external_delivery_is_indistinguishable_from_local_execution() {
    let config = SimConfig::small_test();
    let cells = five_cells();
    let serial = run_grid_serial(&config, &cells).expect("serial grid");
    let session = GridSession::queued(&config, cells.clone());

    // A "remote runner": claim a cell, execute it from the shipped
    // (config, cell) pair alone, and deliver the result externally.
    let i = session.try_claim().expect("claimable");
    let remote = cdcs_sim::runner::run_cell(session.config(), &session.cells()[i]);
    session.deliver(i, remote);

    let done = session.recv().expect("delivered result streams");
    assert_eq!(done.index, i);
    assert_eq!(done.result.expect("ran"), serial[i]);
    let progress = session.progress();
    assert_eq!((progress.issued, progress.completed), (1, 1));
    assert!(!progress.finished(), "fresh cells remain");

    session.drive();
    assert!(session.progress().finished());
}

#[test]
fn construction_errors_stream_per_cell() {
    let mut config = SimConfig::small_test();
    config.bank_lines = 0; // invalid: every cell errors
    let cells = vec![GridCell::new(Scheme::SNuca, mix(&["milc"]))];
    let session = GridSession::queued(&config, cells);
    session.drive();
    let done = session.recv().expect("error is still a delivery");
    assert!(done.result.is_err());
}
