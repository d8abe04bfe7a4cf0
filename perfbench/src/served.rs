//! Served workloads: a real `cdcs-serve` daemon (and, for the fleet, real
//! `cdcs-runner` processes) driven through `cdcs_serve::client::Client`.
//!
//! Every child process is owned by a [`Proc`], which kills and reaps it on
//! drop — so every exit path, panics included, leaves no orphan behind.

use crate::trace::Tracer;
use cdcs_serve::protocol::{FleetStatus, JobState};
use cdcs_serve::Client;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Runners in the fleet workload.
pub const RUNNERS: usize = 2;
/// The `cdcs run` default poll interval.
pub const CLIENT_POLL: Duration = Duration::from_millis(200);
/// Status poll of the traced client, fine enough to see when a job is done.
const FINE_POLL: Duration = Duration::from_millis(2);
/// Lease TTL of the fleet daemon. A runner heartbeats every TTL/3 and
/// holds each lease for at least one heartbeat period; idle runners poll
/// every TTL/5. The default 5000 ms makes every lease cost 1.67 s, so a
/// run of a few seconds would finish only a handful of jobs.
pub const LEASE_TTL_MS: u64 = 600;
/// Cycles of jobs after which a served run reads the service's peak RSS.
/// The daemon keeps every report it has served, so a reading at the end of
/// the run would grow with the number of jobs, i.e. with throughput.
pub const RSS_CYCLES: usize = 2;
/// Pause between readiness checks. Set-up takes a few milliseconds, so a
/// coarser poll would round it up to whole poll periods and make it jump
/// by one when the host's speed shifts a little.
const READY_POLL: Duration = Duration::from_micros(100);
/// How long a daemon or fleet may take to become ready.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// A child process, killed and reaped on drop.
pub struct Proc {
    child: Child,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The binaries a served workload spawns.
pub struct Bins {
    pub serve: PathBuf,
    pub runner: PathBuf,
}

/// A running daemon plus its runners.
pub struct Service {
    pub addr: String,
    // Runners first: they are dropped (killed) before the daemon.
    pub runners: Vec<Proc>,
    pub daemon: Proc,
}

impl Service {
    /// Summed peak RSS of the daemon and every runner, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::iter::once(&self.daemon)
            .chain(&self.runners)
            .filter_map(|p| crate::stats::peak_rss_mb(&p.pid().to_string()))
            .sum()
    }
}

/// Spawns the daemon on a free port (`--workers workers`, or fleet-only
/// for [`Service::add_runners`]) from the current directory, and waits
/// until `/healthz` answers.
pub fn start(bins: &Bins, fleet: bool, workers: usize) -> Result<Service, String> {
    let mut cmd = Command::new(&bins.serve);
    cmd.args(["--addr", "127.0.0.1:0", "--workers"]);
    if fleet {
        cmd.args(["0", "--lease-ttl-ms", &LEASE_TTL_MS.to_string()]);
    } else {
        cmd.arg(workers.to_string());
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bins.serve.display()))?;
    // The daemon announces its bound address on stderr; a thread reads
    // that line, hands it over, and drains the rest so the pipe never
    // fills.
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = mpsc::channel();
    let drain = std::thread::spawn(move || {
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                break;
            }
            line.clear();
        }
        let _ = std::io::copy(&mut reader, &mut std::io::sink());
    });
    let daemon = Proc {
        child,
        drain: Some(drain),
    };
    let addr = rx
        .recv_timeout(READY_TIMEOUT)
        .map_err(|_| "daemon did not announce its address".to_string())?;
    let deadline = Instant::now() + READY_TIMEOUT;
    while !matches!(
        cdcs_serve::http::request(&addr, "GET", "/healthz", &[], None),
        Ok(r) if r.status == 200
    ) {
        if Instant::now() > deadline {
            return Err(format!("daemon at {addr} never answered /healthz"));
        }
        std::thread::sleep(READY_POLL);
    }
    Ok(Service {
        addr,
        runners: Vec::new(),
        daemon,
    })
}

impl Service {
    /// Spawns [`RUNNERS`] runners against the daemon and waits until every
    /// one shows in `GET /fleet`.
    pub fn add_runners(&mut self, bins: &Bins) -> Result<(), String> {
        for k in 0..RUNNERS {
            let child = Command::new(&bins.runner)
                .args(["--addr", &self.addr, "--name", &format!("bench-r{k}")])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", bins.runner.display()))?;
            self.runners.push(Proc { child, drain: None });
        }
        let client = Client::new(self.addr.clone());
        let deadline = Instant::now() + READY_TIMEOUT;
        while client.fleet().map_or(0, |f| f.runners.len()) < RUNNERS {
            if Instant::now() > deadline {
                return Err("runners never registered".into());
            }
            std::thread::sleep(READY_POLL);
        }
        Ok(())
    }
}

/// One served job, timed from submit until the report is in hand.
pub struct ServedJob {
    pub n: usize,
    pub d: usize,
    pub wall: Duration,
    pub report: Result<String, String>,
    /// Traced client only: submit, first status with issued cells, first
    /// `Done`, and the report call — each in ms from submit, except the
    /// report call's own duration.
    pub phases: Option<[f64; 4]>,
}

/// Runs `clients` closed loops against `service` over whole cycles of the
/// stream (`cycle` jobs each) until `seconds` have passed: after the
/// deadline, clients finish the current cycle and stop. `job(n)` maps the
/// n-th job of the stream to a distinct-spec index whose JSON is
/// `specs[d]`. Also returns the service's summed peak RSS once
/// [`RSS_CYCLES`] cycles of jobs have completed (at the end, if fewer
/// did).
pub fn client_loops(
    service: &Service,
    clients: usize,
    seconds: f64,
    cycle: usize,
    specs: &[String],
    job: &(dyn Fn(usize) -> usize + Sync),
    tracer: &Tracer,
) -> (Vec<ServedJob>, Duration, f64) {
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let rss = OnceLock::new();
    let start = Instant::now();
    let claim = || loop {
        let n = next.load(Ordering::SeqCst);
        if n >= cycle && n.is_multiple_of(cycle) && start.elapsed().as_secs_f64() >= seconds {
            return None;
        }
        if next
            .compare_exchange(n, n + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            return Some(n);
        }
    };
    let mut jobs: Vec<ServedJob> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let client = Client::new(service.addr.clone());
                    let mut done = Vec::new();
                    while let Some(n) = claim() {
                        let d = job(n);
                        let t0 = Instant::now();
                        let (report, phases) = if tracer.enabled() {
                            match traced_run(&client, &specs[d], tracer, n as u64) {
                                Ok((report, phases)) => (Ok(report), Some(phases)),
                                Err(e) => (Err(e), None),
                            }
                        } else {
                            (client.run(&specs[d], CLIENT_POLL), None)
                        };
                        done.push(ServedJob {
                            n,
                            d,
                            wall: t0.elapsed(),
                            report,
                            phases,
                        });
                        if completed.fetch_add(1, Ordering::SeqCst) + 1 == RSS_CYCLES * cycle {
                            let _ = rss.set(service.peak_rss_mb());
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    jobs.sort_by_key(|j| j.n);
    let rss = rss.get().copied().unwrap_or_else(|| service.peak_rss_mb());
    (jobs, wall, rss)
}

/// The traced client: `Client::submit`, a fine-grained status poll, then
/// `Client::report`.
fn traced_run(
    client: &Client,
    spec: &str,
    tracer: &Tracer,
    n: u64,
) -> Result<(String, [f64; 4]), String> {
    let t0 = Instant::now();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let id = tracer.span("serve.submit", None, n, |_| (client.submit(spec), 0))?;
    let submit = ms(t0);
    let mut queue = None;
    loop {
        let status = client.status(id)?;
        if queue.is_none() && status.issued_cells > 0 {
            queue = Some(ms(t0));
        }
        match status.state {
            JobState::Done => break,
            JobState::Queued | JobState::Running => std::thread::sleep(FINE_POLL),
            other => return Err(format!("job {id} ended {other:?}: {:?}", status.error)),
        }
    }
    let service = ms(t0);
    let t_report = Instant::now();
    let report = tracer.span("serve.report", None, n, |_| (client.report(id), 0))?;
    let phases = [submit, queue.unwrap_or(service), service, ms(t_report)];
    Ok((report, phases))
}

/// `GET /fleet`, or the default (empty) status when it fails.
pub fn fleet_status(addr: &str) -> FleetStatus {
    Client::new(addr.to_string()).fleet().unwrap_or_default()
}
