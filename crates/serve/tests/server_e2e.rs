//! End-to-end daemon tests: a spec submitted over HTTP round-trips to a
//! report byte-equal to the in-process artifact; cancellation stops a job
//! cleanly over the wire; and two concurrent jobs interleave fairly on a
//! 2-worker pool (pinned via the scheduler's claim log, not timing).

use cdcs_bench::exp::{BaseConfig, ExperimentSpec, GridSpec, MixEntry, SpecKind};
use cdcs_bench::specs;
use cdcs_serve::protocol::JobState;
use cdcs_serve::{Client, JobServer};
use cdcs_sim::runner::CellRun;
use cdcs_sim::Scheme;
use cdcs_workload::MixSpec;
use std::time::{Duration, Instant};

fn small(mut spec: ExperimentSpec) -> ExperimentSpec {
    spec.set_base(BaseConfig::SmallTest);
    spec.name = format!("{}_small", spec.name);
    spec
}

/// A spec with exactly one cell per app name (no baseline, no alone runs):
/// the cell count is what the scheduling tests reason about.
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

fn wait_terminal(client: &Client, id: u64) -> JobState {
    loop {
        let status = client.status(id).expect("status");
        match status.state {
            JobState::Queued | JobState::Running => {
                std::thread::sleep(Duration::from_millis(20));
            }
            terminal => return terminal,
        }
    }
}

#[test]
fn client_run_returns_when_the_job_ends_not_on_its_next_poll() {
    // `Client::run` long-polls: a quick job under a 5 s poll must come
    // back in well under one poll (the old sleep-then-poll loop slept the
    // whole 5 s after its first status request).
    let server = JobServer::start("127.0.0.1:0", 2).expect("server");
    let client = Client::new(server.addr().to_string());
    let spec = cells_spec("quick", &["milc"]);
    let spec_json = serde_json::to_string(&spec).expect("spec serializes");
    let expected = serde_json::to_string_pretty(&spec.run().expect("in-process run"))
        .expect("report serializes");

    let started = Instant::now();
    let served = client
        .run(&spec_json, Duration::from_secs(5))
        .expect("job runs to a report");
    let elapsed = started.elapsed();
    assert_eq!(served, expected);
    assert!(
        elapsed < Duration::from_secs(1),
        "a quick job under a 5 s poll took {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn served_report_is_byte_equal_to_in_process_artifact() {
    let server = JobServer::start("127.0.0.1:0", 2).expect("server");
    let client = Client::new(server.addr().to_string());

    let spec = small(specs::quickstart());
    let spec_json = serde_json::to_string(&spec).expect("spec serializes");
    let served = client
        .run(&spec_json, Duration::from_millis(25))
        .expect("job runs to a report");

    // The same spec run in process, serialized exactly as
    // `cdcs_bench::artifact::write` persists it.
    let local = spec.run().expect("in-process run");
    let expected = serde_json::to_string_pretty(&local).expect("report serializes");
    assert_eq!(
        served, expected,
        "served report bytes diverge from the in-process artifact"
    );

    // The spec embedded in the served report survived the wire: parse and
    // compare structurally too.
    let parsed: cdcs_bench::exp::ExperimentReport =
        serde_json::from_str(&served).expect("served report parses");
    assert_eq!(parsed.spec, spec);
    server.shutdown();
}

#[test]
fn http_cancellation_stops_issuing_and_reports_partial_progress() {
    // One worker, many cells: the cancel lands long before the job could
    // finish.
    let server = JobServer::start("127.0.0.1:0", 1).expect("server");
    let client = Client::new(server.addr().to_string());

    let spec = cells_spec(
        "cancel_me",
        &[
            "calculix",
            "milc",
            "omnet",
            "bzip2",
            "xalancbmk",
            "ilbdc",
            "mgrid",
            "md",
            "nab",
            "calculix",
            "milc",
            "omnet",
        ],
    );
    let id = client
        .submit(&serde_json::to_string(&spec).expect("spec serializes"))
        .expect("submit");
    let status = client.cancel(id).expect("cancel");
    assert!(status.total_cells >= 12);

    assert_eq!(wait_terminal(&client, id), JobState::Cancelled);
    let status = client.status(id).expect("status");
    assert!(
        status.completed_cells < status.total_cells,
        "cancellation should leave cells unrun: {status:?}"
    );
    assert_eq!(status.issued_cells, status.completed_cells);

    // No report for a cancelled job.
    let err = client
        .report(id)
        .expect_err("cancelled jobs have no report");
    assert!(err.contains("409"), "unexpected error: {err}");
    server.shutdown();
}

#[test]
fn concurrent_jobs_interleave_fairly_on_a_two_worker_pool() {
    let server = JobServer::start("127.0.0.1:0", 2).expect("server");
    let client = Client::new(server.addr().to_string());

    let a_apps = ["calculix", "milc", "omnet", "bzip2", "xalancbmk", "ilbdc"];
    let b_apps = ["mgrid", "md", "nab", "calculix"];
    let a = client
        .submit(&serde_json::to_string(&cells_spec("fair_a", &a_apps)).unwrap())
        .expect("submit a");
    let b = client
        .submit(&serde_json::to_string(&cells_spec("fair_b", &b_apps)).unwrap())
        .expect("submit b");

    assert_eq!(wait_terminal(&client, a), JobState::Done);
    assert_eq!(wait_terminal(&client, b), JobState::Done);
    let status_a = client.status(a).expect("status a");
    let status_b = client.status(b).expect("status b");
    assert_eq!(status_a.completed_cells, a_apps.len());
    assert_eq!(status_b.completed_cells, b_apps.len());

    // Fairness, deterministically: claims are logged under the scheduler
    // lock, and the rotation pops one cell per job per lap. From B's first
    // claim until either job drains, the log must strictly alternate —
    // no job may claim twice in a row while the other still has pending
    // cells.
    let log = server.claim_log();
    let first_b = log
        .iter()
        .position(|&id| id == b)
        .expect("job B claimed at least once");
    let mut remaining_a = a_apps.len() - log[..first_b].iter().filter(|&&id| id == a).count();
    let mut remaining_b = b_apps.len();
    assert!(
        remaining_a > 0,
        "job A finished before job B started; the fairness window is empty"
    );
    let mut prev: Option<u64> = None;
    for &id in &log[first_b..] {
        if remaining_a > 0 && remaining_b > 0 {
            if let Some(prev) = prev {
                assert_ne!(
                    prev, id,
                    "job {id} claimed twice in a row while the other had \
                     pending cells; claim log: {log:?}"
                );
            }
        }
        if id == a {
            remaining_a -= 1;
        } else {
            remaining_b -= 1;
        }
        prev = Some(id);
    }
    assert_eq!((remaining_a, remaining_b), (0, 0), "claim log: {log:?}");
    server.shutdown();
}

#[test]
fn served_specs_may_not_record_traces() {
    // `trace_record` would make the daemon (or, through a lease, a runner)
    // write files wherever the spec says: refused before anything queues.
    let server = JobServer::start("127.0.0.1:0", 1).expect("server");
    let client = Client::new(server.addr().to_string());
    let target = std::env::temp_dir().join(format!("cdcs-served-record-{}", std::process::id()));
    std::fs::remove_dir_all(&target).ok();
    let mut spec = cells_spec("record", &["milc"]);
    if let SpecKind::Grid(grid) = &mut spec.kind {
        grid.patches = vec![cdcs_sim::ConfigPatch::named("rec")
            .with_trace_record(target.join("deep/dir").to_string_lossy())];
    }
    let err = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect_err("trace_record spec");
    assert!(err.contains("400"), "unexpected error: {err}");
    assert!(err.contains("trace_record"), "unexpected error: {err}");
    let jobs = cdcs_serve::http::request(&client.addr, "GET", "/jobs", &[], None).expect("jobs");
    assert!(
        !jobs.body.contains("record"),
        "a refused job was queued: {}",
        jobs.body
    );
    let report = server.shutdown();
    assert!(
        !target.exists(),
        "the refused spec wrote {}",
        target.display()
    );
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn protocol_errors_are_structured() {
    let server = JobServer::start("127.0.0.1:0", 1).expect("server");
    let client = Client::new(server.addr().to_string());

    // Unknown job.
    let err = client.status(999).expect_err("unknown job");
    assert!(err.contains("404"), "unexpected error: {err}");
    // Malformed spec.
    let err = client.submit("{not json").expect_err("bad spec");
    assert!(err.contains("400"), "unexpected error: {err}");
    // A spec that parses but fails expansion (no schemes).
    let mut spec = cells_spec("empty", &["milc"]);
    if let SpecKind::Grid(grid) = &mut spec.kind {
        grid.schemes.clear();
    }
    let err = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect_err("unexpandable spec");
    assert!(err.contains("400"), "unexpected error: {err}");
    // Health probe.
    let response =
        cdcs_serve::http::request(&client.addr, "GET", "/healthz", &[], None).expect("healthz");
    assert_eq!(response.status, 200);
    assert!(response.body.contains("true"));
    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0);
}
