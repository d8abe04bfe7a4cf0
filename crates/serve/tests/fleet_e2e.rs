//! Fleet end-to-end tests: a daemon with **zero local workers** and a
//! fleet of in-process `Runner`s produces reports byte-equal to the
//! in-process artifact — through fleet sizes, runner death, heartbeat
//! loss, and injected `lose_lease` faults. The lease protocol has no
//! latency floor: a lease costs its cell's run time, not a heartbeat
//! period; a blocked poll wakes the moment work arrives; a waiting runner
//! is never expired mid-poll; and any poller may take any unit.

use cdcs_bench::exp::{BaseConfig, ExperimentSpec, GridSpec, MixEntry, SpecKind};
use cdcs_bench::specs;
use cdcs_serve::http;
use cdcs_serve::protocol::{
    FleetStatus, JobState, LeaseGrant, LeaseResult, PollReply, RegisterReply, RunnerHello,
};
use cdcs_serve::server::MAX_WAIT;
use cdcs_serve::{Client, FleetConfig, JobServer, Runner, ServerConfig};
use cdcs_sim::runner::CellRun;
use cdcs_sim::Scheme;
use cdcs_workload::MixSpec;
use std::time::{Duration, Instant};

fn small(mut spec: ExperimentSpec) -> ExperimentSpec {
    spec.set_base(BaseConfig::SmallTest);
    spec.name = format!("{}_small", spec.name);
    spec
}

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

/// The bytes `spec` produces in process — the fleet must match exactly.
fn expected_bytes(spec: &ExperimentSpec) -> String {
    let report = spec.run().expect("in-process run");
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// A fleet-only daemon: no local workers, fast lease/runner expiry so
/// failure tests run in test time, optional faults.
fn fleet_server(lease_ttl: Duration, runner_ttl: Duration, fault: &str) -> JobServer {
    let mut config = ServerConfig::new("127.0.0.1:0", 0);
    config.fleet = FleetConfig {
        lease_ttl,
        runner_ttl,
    };
    if !fault.is_empty() {
        config.faults =
            std::sync::Arc::new(cdcs_serve::faults::FaultPlan::parse(fault).expect("fault spec"));
    }
    JobServer::start_with(config).expect("server")
}

fn fleet_status(addr: &str) -> FleetStatus {
    let response = http::request(addr, "GET", "/fleet", &[], None).expect("GET /fleet");
    assert_eq!(response.status, 200);
    serde_json::from_str(&response.body).expect("fleet status parses")
}

// --- manual (raw-HTTP) runner actions, for the failure-mode tests ------

fn register(addr: &str, name: &str) -> RegisterReply {
    let body = serde_json::to_string(&RunnerHello { name: name.into() }).unwrap();
    let response =
        http::request(addr, "POST", "/fleet/runners", &[], Some(&body)).expect("register");
    assert_eq!(response.status, 201);
    serde_json::from_str(&response.body).expect("register reply parses")
}

/// One poll with the raw query `query` (e.g. `?wait_ms=2000`): the lease,
/// if granted, and how long the daemon held the poll.
fn poll_waiting(addr: &str, runner_id: u64, query: &str) -> (Option<LeaseGrant>, Duration) {
    let path = format!("/fleet/runners/{runner_id}/poll{query}");
    let started = Instant::now();
    let response = http::request(addr, "POST", &path, &[], Some("{}")).expect("poll");
    let held = started.elapsed();
    assert_eq!(response.status, 200, "poll: {}", response.body);
    let reply: PollReply = serde_json::from_str(&response.body).expect("poll reply parses");
    (reply.lease, held)
}

fn heartbeat_status(addr: &str, lease_id: u64) -> u16 {
    let path = format!("/fleet/leases/{lease_id}/heartbeat");
    http::request(addr, "POST", &path, &[], Some("{}"))
        .expect("heartbeat")
        .status
}

/// Polls until a lease is granted (the job must already be submitted).
fn poll_until_lease(addr: &str, runner_id: u64) -> LeaseGrant {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let (Some(lease), _) = poll_waiting(addr, runner_id, "") {
            return lease;
        }
        assert!(Instant::now() < deadline, "no lease granted within 10s");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn ten_runner_fleet_report_is_byte_equal_to_in_process() {
    let server = fleet_server(Duration::from_millis(2000), Duration::from_secs(20), "");
    let addr = server.addr().to_string();
    let runners: Vec<_> = (0..10)
        .map(|i| Runner::new(addr.clone(), format!("fleet-{i}")).spawn())
        .collect();
    let client = Client::new(addr.clone());

    let spec = small(specs::quickstart());
    let spec_json = serde_json::to_string(&spec).expect("spec serializes");
    let served = client
        .run(&spec_json, Duration::from_millis(25))
        .expect("fleet runs the job to a report");
    assert_eq!(
        served,
        expected_bytes(&spec),
        "10-runner fleet report diverges from the in-process artifact"
    );

    let status = fleet_status(&addr);
    assert_eq!(status.runners.len(), 10, "all runners registered");
    assert!(
        status.completed >= 1,
        "fleet completed the job's units: {status:?}"
    );
    assert_eq!(status.active_leases, 0, "nothing in flight after the job");
    let fleet_completed: usize = status.runners.iter().map(|r| r.completed).sum();
    assert_eq!(fleet_completed, status.completed);
    // The typed client binding (what `cdcs fleet` renders) sees the same
    // snapshot as the raw endpoint.
    let via_client = client.fleet().expect("Client::fleet");
    assert_eq!(via_client, status);

    for handle in runners {
        handle.stop();
    }
    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn runner_killed_mid_job_recovers_via_requeue() {
    // Tight windows so revocation and runner expiry land in test time.
    let server = fleet_server(Duration::from_millis(300), Duration::from_millis(600), "");
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());

    // The victim registers first, grabs a lease, and then goes silent
    // forever — never a heartbeat, never a result: a kill -9 as the
    // daemon sees it.
    let victim = register(&addr, "victim");
    let spec = cells_spec(
        "requeue_me",
        &["calculix", "milc", "omnet", "bzip2", "xalancbmk", "ilbdc"],
    );
    let id = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect("submit");
    let lease = poll_until_lease(&addr, victim.runner_id);
    assert!(lease.cell.is_some(), "grid job leases cells");

    // Two healthy runners carry the job — including the victim's cell
    // once its lease (and then the victim itself) is revoked.
    let good: Vec<_> = (0..2)
        .map(|i| Runner::new(addr.clone(), format!("good-{i}")).spawn())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(id).expect("status");
        if status.state == JobState::Done {
            break;
        }
        assert!(
            !status.state.is_terminal(),
            "job ended {:?}: {:?}",
            status.state,
            status.error
        );
        assert!(Instant::now() < deadline, "job not done within 60s");
        std::thread::sleep(Duration::from_millis(25));
    }

    let served = client.report(id).expect("report");
    assert_eq!(
        served,
        expected_bytes(&spec),
        "report after a runner kill diverges from the in-process artifact"
    );
    let status = fleet_status(&addr);
    assert!(
        status.requeued >= 1,
        "the victim's lease must have re-queued: {status:?}"
    );
    // The job can finish before the victim's runner TTL runs out (its
    // lease is revoked sooner), so wait for the expiry itself.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let status = fleet_status(&addr);
        if status.runners.iter().all(|r| !r.name.contains("victim")) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the silent victim must have been expired: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    for handle in good {
        handle.stop();
    }
    server.shutdown();
}

#[test]
fn heartbeat_loss_revokes_the_lease_and_discards_the_late_result() {
    let server = fleet_server(Duration::from_millis(250), Duration::from_secs(20), "");
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());

    let me = register(&addr, "slowpoke");
    let spec = cells_spec("hb_loss", &["calculix", "milc"]);
    let id = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect("submit");
    let lease = poll_until_lease(&addr, me.runner_id);

    // Beat once inside the window — still alive.
    assert_eq!(heartbeat_status(&addr, lease.lease_id), 200);
    // Go silent past the TTL: the watchdog revokes and re-queues.
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(
        heartbeat_status(&addr, lease.lease_id),
        410,
        "a lapsed lease answers Gone"
    );
    // The late result is stale and must be discarded.
    let late = LeaseResult {
        err: Some("late result from a revoked lease".into()),
        ..LeaseResult::default()
    };
    let response = http::request(
        &addr,
        "POST",
        &format!("/fleet/leases/{}/result", lease.lease_id),
        &[],
        Some(&serde_json::to_string(&late).unwrap()),
    )
    .expect("late result post");
    assert_eq!(response.status, 410, "stale results answer Gone");

    // A healthy runner finishes the job; the discarded fake "result"
    // must leave no trace in the bytes.
    let good = Runner::new(addr.clone(), "good").spawn();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(id).expect("status");
        if status.state == JobState::Done {
            break;
        }
        assert!(
            !status.state.is_terminal(),
            "job ended {:?}: {:?}",
            status.state,
            status.error
        );
        assert!(Instant::now() < deadline, "job not done within 60s");
        std::thread::sleep(Duration::from_millis(25));
    }
    let served = client.report(id).expect("report");
    assert_eq!(served, expected_bytes(&spec));
    let status = fleet_status(&addr);
    assert!(status.requeued >= 1, "revocation counted: {status:?}");

    good.stop();
    server.shutdown();
}

#[test]
fn lose_lease_fault_requeues_and_report_stays_byte_equal() {
    let server = fleet_server(
        Duration::from_millis(2000),
        Duration::from_secs(20),
        "lose_lease:2",
    );
    let addr = server.addr().to_string();
    let runners: Vec<_> = (0..3)
        .map(|i| Runner::new(addr.clone(), format!("faulted-{i}")).spawn())
        .collect();
    let client = Client::new(addr.clone());

    let spec = cells_spec(
        "lose_lease",
        &["calculix", "milc", "omnet", "bzip2", "xalancbmk"],
    );
    let served = client
        .run(
            &serde_json::to_string(&spec).unwrap(),
            Duration::from_millis(25),
        )
        .expect("job survives the injected lost lease");
    assert_eq!(
        served,
        expected_bytes(&spec),
        "report under lose_lease diverges from the in-process artifact"
    );
    let status = fleet_status(&addr);
    assert!(
        status.requeued >= 1,
        "the doomed grant must re-queue cell 2: {status:?}"
    );

    for handle in runners {
        handle.stop();
    }
    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0);
}

// --- no latency floors -------------------------------------------------

#[test]
fn a_one_cell_job_under_the_default_lease_ttl_finishes_inside_one_heartbeat_period() {
    // The default 5 s lease TTL means a heartbeat every 1.67 s. The lease
    // must cost the cell's run time, not a heartbeat period, and the
    // client must see the job end when it ends, not on its next poll.
    let server = JobServer::start_with(ServerConfig::new("127.0.0.1:0", 0)).expect("server");
    let addr = server.addr().to_string();
    let runner = Runner::new(addr.clone(), "solo").spawn();
    let deadline = Instant::now() + Duration::from_secs(10);
    while fleet_status(&addr).runners.is_empty() {
        assert!(Instant::now() < deadline, "runner never registered");
        std::thread::sleep(Duration::from_millis(5));
    }
    let spec = cells_spec("one_cell", &["milc"]);
    let expected = expected_bytes(&spec);

    let started = Instant::now();
    let served = Client::new(addr.clone())
        .run(
            &serde_json::to_string(&spec).unwrap(),
            Duration::from_millis(200),
        )
        .expect("one-cell job runs");
    let elapsed = started.elapsed();
    assert_eq!(served, expected);
    assert!(
        elapsed < Duration::from_secs(1),
        "a one-cell fleet job took {elapsed:?}; the heartbeat period is 1.67 s"
    );

    runner.stop();
    server.shutdown();
}

#[test]
fn a_blocked_poll_is_handed_a_job_submitted_while_it_waits() {
    let server = fleet_server(Duration::from_secs(5), Duration::from_secs(20), "");
    let addr = server.addr().to_string();
    let me = register(&addr, "waiter");
    let spec_json = serde_json::to_string(&cells_spec("late_job", &["milc"])).unwrap();
    let submit_addr = addr.clone();
    let submitter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        Client::new(submit_addr).submit(&spec_json).expect("submit")
    });

    // Sent before the job exists: the poll must block, then get the cell.
    let (lease, held) = poll_waiting(&addr, me.runner_id, "?wait_ms=2000");
    let id = submitter.join().expect("submitter");
    let lease = lease.expect("the waiting poll is granted the new job's cell");
    assert_eq!(lease.job_id, id);
    assert!(
        held < Duration::from_millis(1500),
        "the poll slept past the submission ({held:?}) instead of waking on it"
    );
    server.shutdown();
}

#[test]
fn a_runner_blocking_in_polls_is_never_expired_mid_poll() {
    // runner_ttl 600 ms: every wait is capped at 300 ms, so a runner that
    // asks for far longer waits still checks in often enough to live.
    let server = fleet_server(Duration::from_secs(5), Duration::from_millis(600), "");
    let addr = server.addr().to_string();
    let me = register(&addr, "patient");
    let until = Instant::now() + Duration::from_secs(2);
    while Instant::now() < until {
        let (lease, held) = poll_waiting(&addr, me.runner_id, "?wait_ms=5000");
        assert!(lease.is_none(), "no work was ever submitted");
        assert!(
            held >= Duration::from_millis(250),
            "an empty poll must block for half the runner TTL ({held:?})"
        );
        assert!(
            held < Duration::from_millis(600),
            "a poll held past the runner TTL ({held:?}) would expire its runner"
        );
        let ids: Vec<u64> = fleet_status(&addr).runners.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![me.runner_id], "the waiting runner was expired");
    }
    server.shutdown();
}

#[test]
fn job_status_long_poll_waits_clamps_and_rejects_a_malformed_wait() {
    // Fleet-only daemon with no runners: the job can never finish, so
    // every long-poll runs its full (clamped) wait.
    let server = fleet_server(Duration::from_secs(5), Duration::from_secs(20), "");
    let addr = server.addr().to_string();
    let id = Client::new(addr.clone())
        .submit(&serde_json::to_string(&cells_spec("stuck", &["milc"])).unwrap())
        .expect("submit");
    let status_after = |query: &str| {
        let started = Instant::now();
        let response =
            http::request(&addr, "GET", &format!("/jobs/{id}{query}"), &[], None).expect("GET");
        (response, started.elapsed())
    };

    let (response, held) = status_after("?wait_ms=300");
    assert_eq!(response.status, 200, "{}", response.body);
    let status: cdcs_serve::protocol::JobStatus =
        serde_json::from_str(&response.body).expect("status parses");
    assert_eq!(status.state, JobState::Queued);
    assert!(
        held >= Duration::from_millis(300) && held < Duration::from_secs(2),
        "wait_ms=300 held {held:?}"
    );

    let (response, held) = status_after("?wait_ms=600000");
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(
        held >= MAX_WAIT && held < MAX_WAIT + Duration::from_secs(2),
        "an over-long wait must be clamped to {MAX_WAIT:?}, held {held:?}"
    );

    let (response, held) = status_after("?wait_ms=abc");
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("wait_ms"), "{}", response.body);
    assert!(
        held < Duration::from_secs(1),
        "a bad wait_ms is refused at once"
    );

    // Without the parameter the route still answers at once.
    let (response, held) = status_after("");
    assert_eq!(response.status, 200);
    assert!(held < Duration::from_secs(1), "plain status held {held:?}");
    server.shutdown();
}

#[test]
fn a_single_poller_receives_every_cell_of_a_three_cell_job() {
    // Two runners are registered but only one polls: with no affinity
    // routing, every cell goes to the runner that asks.
    let server = fleet_server(Duration::from_secs(5), Duration::from_secs(20), "");
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());
    let poller = register(&addr, "poller");
    let idle = register(&addr, "idle");
    let spec = cells_spec("three_cells", &["calculix", "milc", "omnet"]);
    let id = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect("submit");

    let leases: Vec<LeaseGrant> = (0..3)
        .map(|_| poll_until_lease(&addr, poller.runner_id))
        .collect();
    let mut cells: Vec<usize> = leases
        .iter()
        .map(|l| l.cell_index.expect("grid leases carry a cell index"))
        .collect();
    cells.sort_unstable();
    assert_eq!(cells, vec![0, 1, 2], "the lone poller got every cell");

    // Deliver each result as a runner would: the report is byte-equal.
    for lease in &leases {
        let result = cdcs_sim::runner::run_cell(
            lease.config.as_ref().expect("cell lease config"),
            lease.cell.as_ref().expect("cell lease cell"),
        )
        .expect("cell runs");
        let body = LeaseResult {
            ok: Some(result),
            ..LeaseResult::default()
        };
        let response = http::request(
            &addr,
            "POST",
            &format!("/fleet/leases/{}/result", lease.lease_id),
            &[],
            Some(&serde_json::to_string(&body).unwrap()),
        )
        .expect("result post");
        assert_eq!(response.status, 200, "{}", response.body);
    }
    assert_eq!(client.status(id).expect("status").state, JobState::Done);
    assert_eq!(client.report(id).expect("report"), expected_bytes(&spec));
    let status = fleet_status(&addr);
    let completed = |rid: u64| {
        status
            .runners
            .iter()
            .find(|r| r.id == rid)
            .map(|r| r.completed)
    };
    assert_eq!(completed(poller.runner_id), Some(3));
    assert_eq!(completed(idle.runner_id), Some(0));
    server.shutdown();
}

// --- one execution path: faults and liveness on every runner -----------

/// Waits (at most 60 s) until job `id` is terminal and returns its status.
fn wait_terminal(client: &Client, id: u64) -> cdcs_serve::protocol::JobStatus {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(id).expect("status");
        if status.state.is_terminal() {
            return status;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} not terminal within 60s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn an_injected_cell_panic_fails_its_job_on_a_remote_runner() {
    // The fault is decided at grant and fires on the runner, inside the
    // lease's panic boundary: the job fails with the session's message,
    // the runner survives, and the next job's bytes are untouched.
    let server = fleet_server(
        Duration::from_millis(2000),
        Duration::from_secs(20),
        "panic_cell:1",
    );
    let addr = server.addr().to_string();
    let runner = Runner::new(addr.clone(), "solo").spawn();
    let client = Client::new(addr.clone());

    let spec = cells_spec("doomed", &["milc", "omnet", "bzip2"]);
    let id = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect("submit");
    let status = wait_terminal(&client, id);
    assert_eq!(status.state, JobState::Failed, "{status:?}");
    let error = status.error.expect("failure carries the captured message");
    assert!(
        error.contains("cell 1 panicked: injected fault: panic_cell 1"),
        "unexpected error: {error}"
    );

    let spec = small(specs::quickstart());
    let served = client
        .run(
            &serde_json::to_string(&spec).unwrap(),
            Duration::from_millis(25),
        )
        .expect("the same runner serves the next job");
    assert_eq!(served, expected_bytes(&spec), "bytes diverge after a fault");

    runner.stop();
    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn lose_lease_requeues_on_local_workers_too() {
    // `--workers 2` are in-process runners on the lease path: they show
    // in `GET /fleet`, and a doomed grant re-queues exactly as it does
    // for a remote runner.
    let mut config = ServerConfig::new("127.0.0.1:0", 2);
    config.faults = std::sync::Arc::new(
        cdcs_serve::faults::FaultPlan::parse("lose_lease:2").expect("fault spec"),
    );
    let server = JobServer::start_with(config).expect("server");
    let addr = server.addr().to_string();

    let spec = cells_spec(
        "lose_lease_local",
        &["calculix", "milc", "omnet", "bzip2", "xalancbmk"],
    );
    let served = Client::new(addr.clone())
        .run(
            &serde_json::to_string(&spec).unwrap(),
            Duration::from_millis(25),
        )
        .expect("job survives the injected lost lease");
    assert_eq!(
        served,
        expected_bytes(&spec),
        "report under lose_lease on local workers diverges"
    );
    let status = fleet_status(&addr);
    assert!(
        status.requeued >= 1,
        "the doomed grant must re-queue cell 2: {status:?}"
    );
    let mut names: Vec<&str> = status.runners.iter().map(|r| r.name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(names, ["local-0", "local-1"], "{status:?}");

    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn heartbeats_keep_a_runner_busy_on_one_long_cell_alive() {
    // runner_ttl 400 ms, and the injected slow cell holds the runner's
    // only lease for 1 s — more than twice the TTL. Its heartbeats (every
    // 100 ms, a third of the 300 ms lease TTL) are its only sign of life
    // meanwhile; they must keep the runner registered, or the watchdog
    // expires it, revokes the lease and re-queues the cell.
    let server = fleet_server(
        Duration::from_millis(300),
        Duration::from_millis(400),
        "slow_cell:0:1000",
    );
    let addr = server.addr().to_string();
    let runner = Runner::new(addr.clone(), "busy").spawn();
    let spec = cells_spec("long_cell", &["milc"]);

    let started = Instant::now();
    let served = Client::new(addr.clone())
        .run(
            &serde_json::to_string(&spec).unwrap(),
            Duration::from_millis(25),
        )
        .expect("the long cell finishes");
    assert!(
        started.elapsed() >= Duration::from_millis(800),
        "the slow cell fault did not hold the lease"
    );
    assert_eq!(served, expected_bytes(&spec));
    let status = fleet_status(&addr);
    assert_eq!(
        status.requeued, 0,
        "the busy runner was expired: {status:?}"
    );
    assert_eq!(status.completed, 1, "{status:?}");

    runner.stop();
    server.shutdown();
}
