//! Fault-tolerance and multi-tenant e2e: admission control bounds
//! overload (429 + `Retry-After`, tenant isolation), deadlines move jobs
//! to `DeadlineExceeded`, injected faults (cell panics, slow cells,
//! dropped/garbled connections) degrade exactly one job while the daemon
//! and other tenants keep working, the client retries through connection
//! loss and a daemon restart, and drain-mode shutdown finishes queued
//! cells.

use cdcs_bench::exp::{BaseConfig, ExperimentSpec, GridSpec, MixEntry, SpecKind};
use cdcs_bench::specs;
use cdcs_serve::admission::TenantLimit;
use cdcs_serve::faults::FaultPlan;
use cdcs_serve::protocol::JobState;
use cdcs_serve::{Client, JobServer, RetryPolicy, ServerConfig};
use cdcs_sim::runner::CellRun;
use cdcs_sim::Scheme;
use cdcs_workload::MixSpec;
use std::sync::Arc;
use std::time::Duration;

fn small(mut spec: ExperimentSpec) -> ExperimentSpec {
    spec.set_base(BaseConfig::SmallTest);
    spec.name = format!("{}_small", spec.name);
    spec
}

/// A spec with exactly one cell per app name (no baseline, no alone runs).
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

fn spec_json(spec: &ExperimentSpec) -> String {
    serde_json::to_string(spec).expect("spec serializes")
}

fn wait_terminal(client: &Client, id: u64) -> JobState {
    loop {
        let status = client.status(id).expect("status");
        if status.state.is_terminal() {
            return status.state;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn config_with(faults: &str) -> ServerConfig {
    let mut config = ServerConfig::new("127.0.0.1:0", 2);
    config.faults = Arc::new(FaultPlan::parse(faults).expect("fault spec"));
    config
}

#[test]
fn queue_cap_overload_gets_429_with_retry_after() {
    let mut config = config_with("slow_cell:0:400");
    config.queue_cap = Some(1);
    config.workers = 1;
    let server = JobServer::start_with(config).expect("server");
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());

    // The slow first cell keeps job A active while the burst arrives.
    let a = client
        .submit(&spec_json(&cells_spec("hold", &["milc", "omnet"])))
        .expect("first job admitted");

    // A burst past the cap: raw request so we can inspect the headers.
    let refused = cdcs_serve::http::request(
        &addr,
        "POST",
        "/jobs",
        &[],
        Some(&spec_json(&cells_spec("burst", &["milc"]))),
    )
    .expect("refusal is a clean HTTP exchange");
    assert_eq!(refused.status, 429, "body: {}", refused.body);
    let retry_after: f64 = refused
        .header("retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is delta-seconds");
    assert!(retry_after >= 1.0);
    assert!(refused.body.contains("queue is full"), "{}", refused.body);

    // Once the queue drains, the same tenant is welcome again — the
    // retrying client rides the 429 window without user intervention.
    assert_eq!(wait_terminal(&client, a), JobState::Done);
    client
        .submit(&spec_json(&cells_spec("after_drain", &["milc"])))
        .expect("admitted after the queue drained");
    server.shutdown();
}

#[test]
fn token_buckets_isolate_a_greedy_tenant_from_a_quiet_one() {
    let mut config = ServerConfig::new("127.0.0.1:0", 2);
    config.tenant_limit = Some(TenantLimit {
        burst: 2.0,
        rate: 0.001, // no meaningful refill inside the test window
    });
    let server = JobServer::start_with(config).expect("server");
    let greedy = Client::new(server.addr().to_string())
        .with_tenant("greedy")
        .with_retry(RetryPolicy::none());
    let quiet = Client::new(server.addr().to_string()).with_tenant("quiet");

    let spec = spec_json(&cells_spec("one", &["milc"]));
    let a = greedy.submit(&spec).expect("burst credit 1");
    let b = greedy.submit(&spec).expect("burst credit 2");
    let err = greedy.submit(&spec).expect_err("burst exhausted");
    assert!(err.contains("429"), "{err}");
    assert!(err.contains("greedy"), "{err}");

    // The greedy tenant's exhaustion is invisible to the quiet tenant.
    let c = quiet.submit(&spec).expect("quiet tenant admitted");
    for id in [a, b, c] {
        assert_eq!(wait_terminal(&quiet, id), JobState::Done);
    }
    let statuses = quiet.list().expect("list");
    assert_eq!(statuses[a as usize].tenant, "greedy");
    assert_eq!(statuses[c as usize].tenant, "quiet");
    server.shutdown();
}

#[test]
fn deadline_moves_running_and_queued_jobs_to_deadline_exceeded() {
    // One worker held for 400ms by the injected slow cell: the running
    // job's deadline expires mid-cell (watchdog), and a queued job's
    // deadline expires before it ever claims.
    let mut config = config_with("slow_cell:0:400");
    config.workers = 1;
    let server = JobServer::start_with(config).expect("server");
    let client = Client::new(server.addr().to_string()).with_deadline_ms(60);

    let running = client
        .submit(&spec_json(&cells_spec("slow", &["milc", "omnet"])))
        .expect("submit running");
    let queued = client
        .submit(&spec_json(&cells_spec("starved", &["milc"])))
        .expect("submit queued");
    assert_eq!(wait_terminal(&client, running), JobState::DeadlineExceeded);
    assert_eq!(wait_terminal(&client, queued), JobState::DeadlineExceeded);

    // No report either way.
    for id in [running, queued] {
        let err = client.report(id).expect_err("expired jobs have no report");
        assert!(err.contains("409"), "{err}");
    }

    // The worker freed up: a deadline-free job completes.
    let clean = Client::new(server.addr().to_string());
    let ok = clean
        .submit(&spec_json(&cells_spec("clean", &["milc"])))
        .expect("submit clean");
    assert_eq!(wait_terminal(&clean, ok), JobState::Done);
    server.shutdown();
}

#[test]
fn injected_cell_panic_fails_one_job_and_the_daemon_serves_on() {
    let server = JobServer::start_with(config_with("panic_cell:1")).expect("server");
    let addr = server.addr().to_string();
    let victim = Client::new(addr.clone()).with_tenant("victim");
    let bystander = Client::new(addr.clone()).with_tenant("bystander");

    let doomed = victim
        .submit(&spec_json(&cells_spec(
            "doomed",
            &["milc", "omnet", "bzip2"],
        )))
        .expect("submit doomed");
    assert_eq!(wait_terminal(&victim, doomed), JobState::Failed);
    let status = victim.status(doomed).expect("status");
    let error = status.error.expect("failure carries the captured message");
    assert!(
        error.contains("cell 1 panicked: injected fault: panic_cell 1"),
        "unexpected error: {error}"
    );

    // The daemon survived its worker's panic...
    let health = cdcs_serve::http::request(&addr, "GET", "/healthz", &[], None).expect("healthz");
    assert_eq!(health.status, 200);

    // ...another tenant's job completes (the fault budget is spent)...
    let spec = small(specs::quickstart());
    let served = bystander
        .run(&spec_json(&spec), Duration::from_millis(25))
        .expect("bystander job runs to a report");

    // ...and the clean run's report is byte-equal to the in-process
    // artifact: degraded service, undegraded results.
    let local = spec.run().expect("in-process run");
    let expected = serde_json::to_string_pretty(&local).expect("report serializes");
    assert_eq!(served, expected, "served report diverges after a fault");
    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0, "panic was contained in-pool");
}

#[test]
fn dropped_and_garbled_connections_are_ridden_out_by_client_retry() {
    // The first three connections the daemon sees are sabotaged; the
    // client's bounded backoff rides through them transparently.
    let server = JobServer::start_with(config_with("drop_conn:2, garble_conn:1")).expect("server");
    let client = Client::new(server.addr().to_string());

    let spec = small(specs::quickstart());
    let served = client
        .run(&spec_json(&spec), Duration::from_millis(25))
        .expect("run succeeds despite connection faults");
    let local = spec.run().expect("in-process run");
    assert_eq!(
        served,
        serde_json::to_string_pretty(&local).expect("report serializes"),
        "retries must not change the bytes"
    );
    server.shutdown();
}

#[test]
fn client_run_resubmits_after_a_daemon_restart() {
    // A scripted daemon stand-in: accepts a submission, then — as a
    // restarted daemon would — claims to have never heard of the job.
    // The client must resubmit the spec and finish against the new
    // incarnation, with no user intervention.
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let posts = Arc::new(AtomicUsize::new(0));
    let posts_seen = Arc::clone(&posts);
    let script = std::thread::spawn(move || {
        loop {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 65536];
            let n = stream.read(&mut buf).expect("read");
            let request = String::from_utf8_lossy(&buf[..n]).to_string();
            let start = request.lines().next().unwrap_or("").to_string();
            let respond = |stream: &mut std::net::TcpStream, status: &str, body: &str| {
                let head = format!(
                    "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                );
                stream.write_all(head.as_bytes()).expect("head");
                stream.write_all(body.as_bytes()).expect("body");
            };
            if start.starts_with("POST /jobs") {
                let n = posts_seen.fetch_add(1, Ordering::SeqCst);
                // First incarnation assigns id 7; the "restarted" daemon
                // starts its ids over at 0.
                let id = if n == 0 { 7 } else { 0 };
                respond(&mut stream, "201 Created", &format!("{{\"id\":{id}}}"));
            } else if start.starts_with("GET /jobs/7") {
                // The restart forgot job 7.
                respond(&mut stream, "404 Not Found", "{\"error\":\"no job 7\"}");
            } else if start.starts_with("GET /jobs/0/report") {
                respond(&mut stream, "200 OK", "the-report-bytes");
                return; // script complete
            } else if start.starts_with("GET /jobs/0") {
                let status = "{\"id\":0,\"name\":\"x\",\"tenant\":\"default\",\
                     \"state\":\"Done\",\"total_cells\":1,\"issued_cells\":1,\
                     \"completed_cells\":1,\"error\":null}";
                respond(&mut stream, "200 OK", status);
            } else {
                respond(&mut stream, "404 Not Found", "{\"error\":\"?\"}");
            }
        }
    });

    let client = Client::new(addr);
    let report = client
        .run("{\"fake\":\"spec\"}", Duration::from_millis(5))
        .expect("run rides through the restart");
    assert_eq!(report, "the-report-bytes");
    assert_eq!(
        posts.load(std::sync::atomic::Ordering::SeqCst),
        2,
        "resubmitted once"
    );
    script.join().expect("script thread");
}

#[test]
fn client_run_paces_its_polls_against_a_daemon_that_ignores_wait_ms() {
    // A scripted older daemon: it answers every status request at once —
    // `Running` three times, then `Done` — whatever `wait_ms` asks for.
    // The client must still leave `poll` between requests, so such a
    // daemon sees the request rate it always saw.
    use std::io::{Read, Write};
    use std::sync::Mutex;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let status_paths = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&status_paths);
    let script = std::thread::spawn(move || loop {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 65536];
        let n = stream.read(&mut buf).expect("read");
        let request = String::from_utf8_lossy(&buf[..n]).to_string();
        let start = request.lines().next().unwrap_or("").to_string();
        let (status, body, last) = if start.starts_with("POST /jobs") {
            ("201 Created", "{\"id\":0}".to_string(), false)
        } else if start.starts_with("GET /jobs/0/report") {
            ("200 OK", "the-report-bytes".to_string(), true)
        } else if start.starts_with("GET /jobs/0") {
            let mut paths = seen.lock().unwrap();
            paths.push(start.split_whitespace().nth(1).unwrap_or("").to_string());
            let state = if paths.len() <= 3 { "Running" } else { "Done" };
            let body = format!(
                "{{\"id\":0,\"name\":\"x\",\"tenant\":\"default\",\"state\":\"{state}\",\
                 \"total_cells\":1,\"issued_cells\":1,\"completed_cells\":0,\"error\":null}}"
            );
            ("200 OK", body, false)
        } else {
            ("404 Not Found", "{\"error\":\"?\"}".to_string(), false)
        };
        let head = format!(
            "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes()).expect("head");
        stream.write_all(body.as_bytes()).expect("body");
        if last {
            return;
        }
    });

    let poll = Duration::from_millis(100);
    let started = std::time::Instant::now();
    let report = Client::new(addr)
        .run("{\"fake\":\"spec\"}", poll)
        .expect("run completes against the old daemon");
    let elapsed = started.elapsed();
    script.join().expect("script thread");
    assert_eq!(report, "the-report-bytes");
    let paths = status_paths.lock().unwrap().clone();
    assert_eq!(
        paths.len(),
        4,
        "three Running replies, then Done: {paths:?}"
    );
    assert!(
        paths.iter().all(|p| p == "/jobs/0?wait_ms=100"),
        "every status request asks the daemon to wait one poll: {paths:?}"
    );
    assert!(
        elapsed >= 3 * poll,
        "the client polled a non-waiting daemon without pause ({elapsed:?})"
    );
}

#[test]
fn client_retries_until_the_daemon_comes_up() {
    // Reserve a port, leave it dead, and only start the daemon after the
    // client has already begun calling: connect-refused is transient.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
    let addr = probe.local_addr().expect("addr").to_string();
    drop(probe);

    let spec = spec_json(&cells_spec("late", &["milc"]));
    let client_addr = addr.clone();
    let runner = std::thread::spawn(move || {
        let client = Client::new(client_addr).with_retry(RetryPolicy {
            max_attempts: 20,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(200),
        });
        client.run(&spec, Duration::from_millis(25))
    });
    std::thread::sleep(Duration::from_millis(150));
    let server = JobServer::start(&addr, 2).expect("rebind the reserved port");
    let report = runner.join().expect("runner thread");
    assert!(
        report.is_ok(),
        "run should succeed once the daemon is up: {report:?}"
    );
    server.shutdown();
}

#[test]
fn drain_shutdown_finishes_every_queued_cell() {
    let server = JobServer::start("127.0.0.1:0", 1).expect("server");
    let client = Client::new(server.addr().to_string());
    let a = client
        .submit(&spec_json(&cells_spec(
            "drain_a",
            &["calculix", "milc", "omnet", "bzip2"],
        )))
        .expect("submit a");
    let b = client
        .submit(&spec_json(&cells_spec("drain_b", &["mgrid", "md"])))
        .expect("submit b");

    // Immediate drain: nothing has necessarily even been claimed yet.
    let report = server.shutdown_drain();
    assert_eq!(report.panicked_threads, 0);
    for id in [a, b] {
        let job = &report.jobs[id as usize];
        assert_eq!(job.state, JobState::Done, "job {id}: {job:?}");
        assert_eq!(job.completed_cells, job.total_cells, "job {id}: {job:?}");
    }
}
