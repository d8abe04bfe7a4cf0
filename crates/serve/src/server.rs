//! The experiment daemon: HTTP front end over the fleet's job rotation.
//! Its `--workers N` threads are in-process runners (`local-0`, …) on the
//! same lease path ([`crate::fleet`]) the `cdcs-runner` routes below use.
//!
//! Routes (all JSON, `Connection: close`):
//!
//! * `POST /jobs` — body is an [`ExperimentSpec`]; expands the spec,
//!   enqueues the job, replies `{"id": n}`. Admission-controlled: the
//!   tenant (`X-Tenant` header, `"default"` otherwise) is charged one
//!   token-bucket credit and the active-job queue depth is checked; a
//!   refusal is `429 Too Many Requests` with `Retry-After`. An optional
//!   `X-Deadline-Ms` header sets the job's wall-clock deadline. A spec
//!   that fails expansion, or whose patches set `trace_record`, is `400`.
//! * `GET /jobs` — every job's status, in submission order.
//! * `GET /jobs/<id>` — one job's live status (per-cell progress).
//!   With `?wait_ms=N` it long-polls: it replies once the job is terminal
//!   or after N ms (capped at [`MAX_WAIT`]), whichever comes first. A
//!   malformed `wait_ms` is `400`.
//! * `GET /jobs/<id>/report` — the finished [`ExperimentReport`] JSON,
//!   byte-equal to the `out/<name>.json` artifact the same spec produces
//!   in process; `409` while the job is still running.
//! * `DELETE /jobs/<id>` — cancels the job: no further cell is issued,
//!   cells already running finish; replies with the job's status.
//! * `GET /healthz` — liveness probe.
//!
//! Fleet routes (the `cdcs-runner` worker protocol, see [`crate::fleet`]):
//!
//! * `POST /fleet/runners` — register; body [`RunnerHello`], reply
//!   [`crate::protocol::RegisterReply`] with the lease TTL to honor.
//! * `POST /fleet/runners/<id>/poll` — lease at most one unit of work.
//!   With `?wait_ms=N` an empty poll blocks until a unit becomes
//!   claimable or N ms pass (capped at [`MAX_WAIT`] and at half the
//!   runner TTL); without it the poll answers at once.
//! * `DELETE /fleet/runners/<id>` — graceful deregistration (held work
//!   re-queues immediately).
//! * `POST /fleet/leases/<id>/heartbeat` — keep a lease alive; `410` once
//!   the lease is revoked (abandon the work).
//! * `POST /fleet/leases/<id>/result` — deliver a lease's result; `410`
//!   if the lease was revoked first (the result is discarded as stale).
//! * `GET /fleet` — fleet status: runners, leases, requeue counters.
//!
//! Degradation is designed, not accidental: oversized bodies are `413`
//! before any allocation, malformed requests are `400` without wedging
//! their connection thread, overload is `429` + `Retry-After` (never an
//! unbounded queue), a panicking cell fails its own job while every other
//! tenant's jobs keep running, and deadlines/watchdogs move stuck jobs to
//! a terminal state. A [`FaultPlan`] can inject each of these failures
//! deterministically for the e2e suite and the CI smoke job.

use crate::admission::{Admission, TenantLimit, DEFAULT_TENANT};
use crate::client::RetryPolicy;
use crate::faults::{ConnFault, FaultPlan};
use crate::fleet::{Fleet, FleetConfig};
use crate::http::{read_request, write_response, Request, RequestError};
use crate::job::{Job, JobOptions};
use crate::protocol::{
    AckReply, ErrorReply, JobList, JobStatus, LeaseGrant, LeaseResult, PollReply, RegisterReply,
    RunnerHello, SubmitReply,
};
use crate::runner::{run_loop, Link, PollFailure};
use cdcs_bench::exp::ExperimentSpec;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read/write timeout on every accepted connection.
const CONN_TIMEOUT: Duration = Duration::from_secs(10);

/// The longest one long-poll (`?wait_ms=` on a job status or a runner
/// poll) holds its connection: a few seconds, well inside
/// [`CONN_TIMEOUT`].
pub const MAX_WAIT: Duration = Duration::from_secs(5);

/// Daemon configuration. [`ServerConfig::new`] gives the permissive
/// defaults (no admission limits, no watchdog, no faults) — the shape the
/// pre-hardening daemon had.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port `0` for ephemeral).
    pub addr: String,
    /// In-process runners (`local-0`, …) on the fleet's lease path. `0` is
    /// legal and means *fleet-only*: every unit of work is leased to
    /// remote runners.
    pub workers: usize,
    /// Per-tenant submission rate limit.
    pub tenant_limit: Option<TenantLimit>,
    /// Cap on queued-or-running jobs.
    pub queue_cap: Option<usize>,
    /// Per-cell wall-clock watchdog: a lease held longer than this, local
    /// or remote, fails its job (the runner frees once the cell returns).
    pub cell_timeout: Option<Duration>,
    /// Fault-injection plan (empty by default).
    pub faults: Arc<FaultPlan>,
    /// Runner-fleet knobs (lease and runner TTLs).
    pub fleet: FleetConfig,
}

impl ServerConfig {
    /// Permissive defaults on `addr` with `workers` in-process runners.
    pub fn new(addr: impl Into<String>, workers: usize) -> ServerConfig {
        ServerConfig {
            addr: addr.into(),
            workers,
            tenant_limit: None,
            queue_cap: None,
            cell_timeout: None,
            faults: Arc::new(FaultPlan::default()),
            fleet: FleetConfig::default(),
        }
    }
}

/// How a shutdown went: which threads had to be abandoned rather than
/// joined cleanly, plus every job's final status.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Threads whose join reported a panic (0 in healthy operation —
    /// runners contain every unwind).
    pub panicked_threads: usize,
    /// Final status of every job the daemon accepted.
    pub jobs: Vec<JobStatus>,
}

struct ServerState {
    jobs: Mutex<Vec<Arc<Job>>>,
    next_id: AtomicU64,
    admission: Admission,
    fleet: Fleet,
    workers: usize,
    cell_timeout: Option<Duration>,
    faults: Arc<FaultPlan>,
    /// Set once no new job may be accepted (drain or stop).
    draining: AtomicBool,
    /// Set when the daemon's threads must exit.
    stopping: AtomicBool,
}

/// A running daemon: in-process runners + accept loop + watchdog.
/// Dropping (or [`JobServer::shutdown`]) stops accepting, stops claiming,
/// and joins every thread; running cells finish first.
pub struct JobServer {
    state: Arc<ServerState>,
    addr: std::net::SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl JobServer {
    /// Binds `addr` (e.g. `127.0.0.1:7077`, or port `0` for an ephemeral
    /// port) and starts `workers` in-process runners plus the accept
    /// loop, with permissive defaults (no limits, no faults).
    ///
    /// # Errors
    ///
    /// Returns bind errors.
    pub fn start(addr: &str, workers: usize) -> Result<JobServer, String> {
        JobServer::start_with(ServerConfig::new(addr, workers))
    }

    /// Binds and starts a daemon with the full configuration.
    ///
    /// # Errors
    ///
    /// Returns bind errors.
    pub fn start_with(config: ServerConfig) -> Result<JobServer, String> {
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("binding {}: {e}", config.addr))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let state = Arc::new(ServerState {
            jobs: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            admission: Admission::new(config.tenant_limit, config.queue_cap),
            fleet: Fleet::new(config.fleet, Arc::clone(&config.faults)),
            workers: config.workers,
            cell_timeout: config.cell_timeout,
            faults: config.faults,
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
        });
        // `workers == 0` starts no local runner: fleet-only execution.
        let mut threads: Vec<JoinHandle<()>> = (0..state.workers)
            .map(|k| {
                let local = Arc::clone(&state);
                std::thread::spawn(move || {
                    let name = format!("local-{k}");
                    run_loop(&*local, &name, &RetryPolicy::default(), &local.stopping);
                })
            })
            .collect();
        let watchdog_state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || watchdog_state.watchdog_loop()));
        let accept_state = Arc::clone(&state);
        threads.push(std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_state.stopping.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(mut stream) = stream else { continue };
                // One detached thread per connection, with I/O deadlines:
                // a client that connects and goes silent must never wedge
                // the accept loop (or `GET /healthz`) — it times out in
                // its own thread instead.
                let _ = stream.set_read_timeout(Some(CONN_TIMEOUT));
                let _ = stream.set_write_timeout(Some(CONN_TIMEOUT));
                let conn_state = Arc::clone(&accept_state);
                std::thread::spawn(move || conn_state.handle(&mut stream));
            }
        }));
        Ok(JobServer {
            state,
            addr: local,
            threads,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The claim sequence so far (job ids, in claim order) — the fairness
    /// tests assert concurrent jobs alternate here.
    pub fn claim_log(&self) -> Vec<u64> {
        self.state.fleet.claim_log()
    }

    /// Submits a spec directly (the HTTP-free path for embedding and
    /// tests). Bypasses tenant buckets but not the queue cap.
    ///
    /// # Errors
    ///
    /// Propagates spec-expansion errors and queue-cap refusals.
    pub fn submit(&self, spec: ExperimentSpec) -> Result<u64, String> {
        self.state
            .submit(spec, JobOptions::default())
            .map_err(|e| e.message)
    }

    /// Stops the accept loop, the runners and claiming (running cells
    /// finish, queued cells are abandoned) and joins every thread. A
    /// panicked thread is *reported*, never propagated: shutdown always
    /// completes.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.stop();
        self.join_threads()
    }

    /// Drain-mode shutdown: refuses new jobs, waits until every accepted
    /// job is terminal — local and remote runners keep executing, and the
    /// accept loop keeps serving the remote ones — then stops and joins.
    /// The report carries each job's final status.
    pub fn shutdown_drain(mut self) -> ShutdownReport {
        self.state.draining.store(true, Ordering::SeqCst);
        let accepted = self.state.lock_jobs().clone();
        for job in accepted {
            while job.is_active() {
                job.wait_terminal(MAX_WAIT);
            }
        }
        self.stop();
        self.join_threads()
    }

    fn stop(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.stopping.store(true, Ordering::SeqCst);
        self.state.fleet.stop();
        // Unblock `listener.incoming()` with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    fn join_threads(&mut self) -> ShutdownReport {
        let mut panicked = 0usize;
        for handle in self.threads.drain(..) {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        ShutdownReport {
            panicked_threads: panicked,
            jobs: self.state.lock_jobs().iter().map(|j| j.status()).collect(),
        }
    }

    /// Blocks the calling thread on the daemon's threads (the daemon
    /// binary's main thread parks here).
    pub fn join(mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.stop();
        // Never panic in Drop: a panicked runner is already contained
        // (its job is Failed); a double panic here would abort.
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A submission refusal with its HTTP shape.
struct SubmitRefusal {
    status: u16,
    reason: &'static str,
    message: String,
    retry_after: Option<Duration>,
}

impl SubmitRefusal {
    fn bad_request(message: String) -> SubmitRefusal {
        SubmitRefusal {
            status: 400,
            reason: "Bad Request",
            message,
            retry_after: None,
        }
    }
}

impl ServerState {
    fn submit(&self, spec: ExperimentSpec, options: JobOptions) -> Result<u64, SubmitRefusal> {
        let tenant = if options.tenant.is_empty() {
            DEFAULT_TENANT
        } else {
            options.tenant.as_str()
        };
        let active = self.lock_jobs().iter().filter(|j| j.is_active()).count();
        self.admission
            .admit(tenant, active)
            .map_err(|refusal| SubmitRefusal {
                status: 429,
                reason: "Too Many Requests",
                message: refusal.reason,
                retry_after: Some(refusal.retry_after),
            })?;
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let job = Arc::new(
            Job::new(id, spec, self.workers, options).map_err(SubmitRefusal::bad_request)?,
        );
        {
            let mut jobs = self.lock_jobs();
            // Checked under the lock a drain snapshots the job list under,
            // so every job the drain misses is refused.
            if self.draining.load(Ordering::SeqCst) {
                return Err(SubmitRefusal {
                    status: 503,
                    reason: "Service Unavailable",
                    message: "daemon is shutting down".into(),
                    retry_after: Some(Duration::from_secs(1)),
                });
            }
            jobs.push(Arc::clone(&job));
        }
        self.fleet.enqueue(job);
        Ok(id)
    }

    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.lock_jobs().iter().find(|j| j.id == id).cloned()
    }

    fn lock_jobs(&self) -> std::sync::MutexGuard<'_, Vec<Arc<Job>>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Periodically enforces wall-clock limits no claim path would catch:
    /// job deadlines while nothing claims (queued or mid-flight jobs),
    /// the per-cell watchdog over lease ages (local and remote alike),
    /// and fleet lease/runner expiry (revoke-and-requeue).
    fn watchdog_loop(&self) {
        while !self.stopping.load(Ordering::SeqCst) {
            self.fleet.tick();
            // Only jobs past their deadline are locked: the plain
            // `deadline` field picks them out under the jobs lock alone.
            let now = Instant::now();
            let expired: Vec<Arc<Job>> = self
                .lock_jobs()
                .iter()
                .filter(|job| job.deadline.is_some_and(|d| now >= d))
                .cloned()
                .collect();
            for job in expired {
                job.expire_deadline();
            }
            if let Some(timeout) = self.cell_timeout {
                for (job, unit, age) in self.fleet.overdue(timeout) {
                    job.fail_with(format!(
                        "cell {unit} exceeded the {}ms per-cell watchdog \
                         (running for {}ms)",
                        timeout.as_millis(),
                        age.as_millis()
                    ));
                }
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Handles one request; every response is written before the
    /// connection closes (unless a connection fault is injected).
    fn handle(&self, stream: &mut TcpStream) {
        match self.faults.on_conn() {
            Some(ConnFault::Drop) => return, // close without a byte
            Some(ConnFault::Garble) => {
                let _ = stream.write_all(b"\x07garbled by fault injection\x07");
                return;
            }
            None => {}
        }
        let reply = match read_request(stream) {
            Ok(request) => self.route(&request),
            Err(RequestError::TooLarge { declared }) => Reply::error(
                413,
                "Payload Too Large",
                &format!(
                    "declared body of {declared} bytes exceeds the \
                     {}-byte cap",
                    crate::http::MAX_BODY
                ),
            ),
            Err(RequestError::Malformed(error)) => Reply::error(400, "Bad Request", &error),
            // The transport died mid-read; writing a reply is best-effort
            // noise, but must never wedge or kill this thread.
            Err(RequestError::Io(error)) => Reply::error(400, "Bad Request", &error),
        };
        let _ = write_response(
            stream,
            reply.status,
            reply.reason,
            "application/json",
            &reply.headers,
            reply.body.as_bytes(),
        );
    }

    fn route(&self, request: &Request) -> Reply {
        let segments: Vec<&str> = request
            .path
            .split('?')
            .next()
            .unwrap_or("")
            .split('/')
            .filter(|s| !s.is_empty())
            .collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Reply::ok("{\"ok\":true}".into()),
            ("POST", ["jobs"]) => self.post_job(request),
            ("GET", ["jobs"]) => {
                let list = JobList {
                    jobs: self.lock_jobs().iter().map(|j| j.status()).collect(),
                };
                Reply::json(&list)
            }
            ("GET", ["jobs", id]) => with_wait(&request.path, |wait| {
                self.with_job(id, |job| {
                    if let Some(wait) = wait {
                        job.wait_terminal(wait);
                    }
                    Reply::json(&job.status())
                })
            }),
            ("GET", ["jobs", id, "report"]) => self.with_job(id, |job| match job.report_json() {
                Some(json) => Reply::ok(json),
                None => Reply::error(
                    409,
                    "Conflict",
                    &format!(
                        "job {} is not finished (state {:?})",
                        job.id,
                        job.status().state
                    ),
                ),
            }),
            ("DELETE", ["jobs", id]) => self.with_job(id, |job| {
                job.cancel();
                Reply::json(&job.status())
            }),
            (method, ["jobs", ..]) => Reply::error(
                405,
                "Method Not Allowed",
                &format!("method {method} is not supported on {}", request.path),
            ),
            ("GET", ["fleet"]) => Reply::json(&self.fleet.status()),
            ("POST", ["fleet", "runners"]) => self.post_runner(request),
            ("POST", ["fleet", "runners", id, "poll"]) => with_wait(&request.path, |wait| {
                with_id(id, "runner", |id| {
                    let wait = wait.unwrap_or(Duration::ZERO);
                    match self.fleet.poll(id, wait) {
                        Ok(lease) => Reply::json(&PollReply { lease }),
                        Err(message) => Reply::error(404, "Not Found", &message),
                    }
                })
            }),
            ("DELETE", ["fleet", "runners", id]) => with_id(id, "runner", |id| {
                if self.fleet.deregister(id) {
                    Reply::json(&AckReply { ok: true })
                } else {
                    Reply::error(404, "Not Found", &format!("no runner {id}"))
                }
            }),
            ("POST", ["fleet", "leases", id, "heartbeat"]) => with_id(id, "lease", |id| {
                if self.fleet.heartbeat(id) {
                    Reply::json(&AckReply { ok: true })
                } else {
                    // 410: the lease was revoked (or completed) — the
                    // runner must abandon the work; its unit is already
                    // re-queued.
                    Reply::gone(&AckReply { ok: false })
                }
            }),
            ("POST", ["fleet", "leases", id, "result"]) => with_id(id, "lease", |id| {
                let body: LeaseResult = match parse_body(&request.body) {
                    Ok(body) => body,
                    Err(e) => {
                        return Reply::error(400, "Bad Request", &format!("parsing result: {e}"))
                    }
                };
                if self.fleet.result(id, body) {
                    Reply::json(&AckReply { ok: true })
                } else {
                    // Stale: the lease was revoked before the result
                    // arrived; the unit re-ran (or will) elsewhere.
                    Reply::gone(&AckReply { ok: false })
                }
            }),
            (method, ["fleet", ..]) => Reply::error(
                405,
                "Method Not Allowed",
                &format!("method {method} is not supported on {}", request.path),
            ),
            _ => Reply::error(
                404,
                "Not Found",
                &format!("no route for {} {}", request.method, request.path),
            ),
        }
    }

    fn post_job(&self, request: &Request) -> Reply {
        let text = match std::str::from_utf8(&request.body) {
            Ok(text) => text,
            Err(e) => return Reply::error(400, "Bad Request", &format!("body is not UTF-8: {e}")),
        };
        let spec: ExperimentSpec = match serde_json::from_str(text) {
            Ok(spec) => spec,
            Err(e) => {
                return Reply::error(400, "Bad Request", &format!("parsing spec: {e}"));
            }
        };
        let deadline = match request.header("x-deadline-ms") {
            Some(raw) => match raw.parse::<u64>() {
                Ok(ms) => Some(Instant::now() + Duration::from_millis(ms)),
                Err(e) => {
                    return Reply::error(
                        400,
                        "Bad Request",
                        &format!("bad X-Deadline-Ms {raw:?}: {e}"),
                    )
                }
            },
            None => None,
        };
        let options = JobOptions {
            tenant: request.header("x-tenant").unwrap_or("").to_string(),
            deadline,
        };
        match self.submit(spec, options) {
            Ok(id) => Reply {
                status: 201,
                reason: "Created",
                headers: Vec::new(),
                body: serde_json::to_string(&SubmitReply { id }).expect("submit reply serializes"),
            },
            Err(refusal) => {
                let mut reply = Reply::error(refusal.status, refusal.reason, &refusal.message);
                if let Some(wait) = refusal.retry_after {
                    // Retry-After is delta-seconds; round up so a client
                    // that sleeps exactly this long finds a token.
                    reply
                        .headers
                        .push(("Retry-After", wait.as_secs_f64().ceil().to_string()));
                }
                reply
            }
        }
    }

    fn post_runner(&self, request: &Request) -> Reply {
        if self.stopping.load(Ordering::SeqCst) {
            return Reply::error(503, "Service Unavailable", "daemon is shutting down");
        }
        let hello: RunnerHello = if request.body.is_empty() {
            RunnerHello::default()
        } else {
            match parse_body(&request.body) {
                Ok(hello) => hello,
                Err(e) => return Reply::error(400, "Bad Request", &format!("parsing hello: {e}")),
            }
        };
        let reply = self.fleet.register(&hello.name);
        Reply {
            status: 201,
            reason: "Created",
            headers: Vec::new(),
            body: serde_json::to_string(&reply).expect("register reply serializes"),
        }
    }

    fn with_job(&self, id: &str, f: impl FnOnce(&Job) -> Reply) -> Reply {
        let Ok(id) = id.parse::<u64>() else {
            return Reply::error(400, "Bad Request", &format!("bad job id {id:?}"));
        };
        match self.job(id) {
            Some(job) => f(&job),
            None => Reply::error(404, "Not Found", &format!("no job {id}")),
        }
    }
}

/// The `--workers` runners' link: the routes' fleet calls, in process.
impl Link for ServerState {
    fn register(&self, name: &str) -> Option<RegisterReply> {
        Some(self.fleet.register(name))
    }

    fn poll(&self, runner_id: u64, wait: Duration) -> Result<Option<LeaseGrant>, PollFailure> {
        self.fleet
            .poll(runner_id, wait)
            .map_err(|_| PollFailure::Forgotten)
    }

    fn heartbeat(&self, lease_id: u64) -> bool {
        self.fleet.heartbeat(lease_id)
    }

    fn result(&self, lease_id: u64, result: LeaseResult) {
        self.fleet.result(lease_id, result);
    }

    fn deregister(&self, runner_id: u64) {
        self.fleet.deregister(runner_id);
    }
}

/// Parses a JSON request body (UTF-8 checked first).
fn parse_body<T: for<'de> serde::Deserialize<'de>>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Parses the `wait_ms` query parameter (capped at [`MAX_WAIT`]) and hands
/// it to `f`: `None` when absent — answer at once — and `400` when it is
/// not a whole number of milliseconds.
fn with_wait(path: &str, f: impl FnOnce(Option<Duration>) -> Reply) -> Reply {
    let raw = path
        .split_once('?')
        .and_then(|(_, query)| query.split('&').find_map(|p| p.strip_prefix("wait_ms=")));
    let Some(raw) = raw else { return f(None) };
    match raw.parse::<u64>() {
        Ok(ms) => f(Some(Duration::from_millis(ms).min(MAX_WAIT))),
        Err(e) => Reply::error(400, "Bad Request", &format!("bad wait_ms {raw:?}: {e}")),
    }
}

/// Parses a numeric path segment, naming `what` in the error.
fn with_id(raw: &str, what: &str, f: impl FnOnce(u64) -> Reply) -> Reply {
    match raw.parse::<u64>() {
        Ok(id) => f(id),
        Err(_) => Reply::error(400, "Bad Request", &format!("bad {what} id {raw:?}")),
    }
}

struct Reply {
    status: u16,
    reason: &'static str,
    headers: Vec<(&'static str, String)>,
    body: String,
}

impl Reply {
    fn ok(body: String) -> Reply {
        Reply {
            status: 200,
            reason: "OK",
            headers: Vec::new(),
            body,
        }
    }

    fn json<T: serde::Serialize>(value: &T) -> Reply {
        Reply::ok(serde_json::to_string(value).expect("reply serializes"))
    }

    /// `410 Gone` with a JSON body: a lease/runner that no longer exists.
    fn gone<T: serde::Serialize>(value: &T) -> Reply {
        Reply {
            status: 410,
            reason: "Gone",
            headers: Vec::new(),
            body: serde_json::to_string(value).expect("reply serializes"),
        }
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Reply {
        Reply {
            status,
            reason,
            headers: Vec::new(),
            body: serde_json::to_string(&ErrorReply {
                error: message.to_string(),
            })
            .expect("error reply serializes"),
        }
    }
}
