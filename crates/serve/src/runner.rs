//! The runner side of the fleet protocol: the daemon's one worker loop.
//!
//! A runner registers with a daemon, then loops: poll for a lease (a
//! blocking poll: the daemon holds it open for up to `poll_ms` until a
//! unit becomes claimable), execute it (a grid cell via
//! [`cdcs_sim::runner::run_cell`] on the shipped `(config, cell)` — the
//! *same entry point* an in-process session worker uses, so the result is
//! bit-identical — or a whole analysis spec via `spec.run()`), heartbeat
//! while working, and post the result. Each runner keeps one heartbeat
//! thread, told when a lease starts and ends, so a lease costs the cell's
//! run time, not a heartbeat period or a thread start.
//! A heartbeat that finds the lease gone means it was revoked (the
//! daemon re-queued the unit): beating stops, and the daemon drops the
//! result as stale. A poll that finds the runner unknown means the daemon
//! expired it (or restarted): it re-registers and continues — runners are
//! cattle.
//!
//! The loop is generic over its [`Link`] to the daemon: a [`Runner`]
//! speaks HTTP (the `cdcs-runner` binary), and the daemon's own
//! `--workers` call its fleet in process, so local and remote work share
//! one loop and one executor.
//!
//! Execution is panic-contained: an unwinding cell, or an injected cell
//! fault that fires just before it, becomes that lease's `err` result,
//! never a dead runner. Transport failures back off with the client's
//! bounded [`RetryPolicy`] jitter.
//!
//! [`Runner::spawn`] runs the loop on a background thread with a stop
//! flag — the shape the fleet e2e suite uses to stand up a 10-runner
//! fleet in-process; the `cdcs-runner` binary calls [`Runner::run`]
//! directly and stops on daemon shutdown.

use crate::client::RetryPolicy;
use crate::http;
use crate::job::panic_message;
use crate::protocol::{LeaseGrant, LeaseResult, PollReply, RegisterReply, RunnerHello};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A fleet worker bound to one daemon over HTTP.
#[derive(Debug, Clone)]
pub struct Runner {
    /// `host:port` of the daemon.
    pub addr: String,
    /// Free-form name sent at registration (host, pid, ...).
    pub name: String,
    /// Backoff policy for transport failures.
    pub retry: RetryPolicy,
}

/// A spawned runner loop; [`RunnerHandle::stop`] deregisters and joins.
pub struct RunnerHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl RunnerHandle {
    /// Signals the loop to stop (it deregisters gracefully) and joins it.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }
}

impl Runner {
    /// A runner for the daemon at `addr` with default retries.
    pub fn new(addr: impl Into<String>, name: impl Into<String>) -> Runner {
        Runner {
            addr: addr.into(),
            name: name.into(),
            retry: RetryPolicy::default(),
        }
    }

    /// Starts the worker loop on a background thread.
    pub fn spawn(self) -> RunnerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || self.run(&flag));
        RunnerHandle { stop, thread }
    }

    /// Runs the worker loop until `stop` is set: register, then
    /// poll/execute/report, re-registering whenever the daemon forgets
    /// this runner. Returns after a graceful deregistration (or when the
    /// daemon stays unreachable through a whole backoff ladder *and*
    /// `stop` is set — an unreachable daemon is otherwise retried
    /// forever, because daemon restarts are survivable).
    pub fn run(&self, stop: &AtomicBool) {
        run_loop(self, &self.name, &self.retry, stop);
    }
}

/// How a runner loop reaches its daemon.
pub(crate) trait Link: Sync {
    /// Registers under `name`; `None` if the daemon is unreachable.
    fn register(&self, name: &str) -> Option<RegisterReply>;
    /// Asks for one lease, waiting up to `wait` for work.
    fn poll(&self, runner_id: u64, wait: Duration) -> Result<Option<LeaseGrant>, PollFailure>;
    /// Keeps a lease (and its runner) alive; `false` once the lease is
    /// gone.
    fn heartbeat(&self, lease_id: u64) -> bool;
    /// Posts a lease's result (a stale one is dropped by the daemon).
    fn result(&self, lease_id: u64, result: LeaseResult);
    /// Hands back anything the daemon still thinks this runner holds.
    fn deregister(&self, runner_id: u64);
}

/// Why a poll came back without an answer.
pub(crate) enum PollFailure {
    /// The daemon does not know this runner id: re-register.
    Forgotten,
    /// Transport or server trouble: back off and retry.
    Transport,
}

/// The worker loop (see the module docs), over either link.
pub(crate) fn run_loop(link: &impl Link, name: &str, retry: &RetryPolicy, stop: &AtomicBool) {
    // The heartbeat thread ends when `beats` drops with this scope.
    std::thread::scope(|scope| {
        let (beats, leases) = mpsc::channel();
        scope.spawn(move || heartbeats(link, &leases));
        let mut identity: Option<RegisterReply> = None;
        let mut failures = 0u32;
        while !stop.load(Ordering::SeqCst) {
            let Some(me) = identity.clone().or_else(|| {
                let registered = link.register(name);
                identity.clone_from(&registered);
                registered
            }) else {
                failures += 1;
                std::thread::sleep(retry.sleep_for(failures));
                continue;
            };
            let poll_every = Duration::from_millis(me.poll_ms.max(1));
            let asked = Instant::now();
            match link.poll(me.runner_id, poll_every) {
                Ok(Some(lease)) => {
                    failures = 0;
                    // A third of the TTL keeps two full misses inside the
                    // window.
                    let every = Duration::from_millis((me.lease_ttl_ms / 3).max(10));
                    let _ = beats.send(Some((lease.lease_id, every)));
                    let result = run_lease(&lease);
                    let _ = beats.send(None);
                    link.result(lease.lease_id, result);
                }
                Ok(None) => {
                    // The daemon waited out `poll_every` for work; one that
                    // answered sooner (it ignores `wait_ms`, or is shutting
                    // down) gets no more than one idle poll per interval —
                    // unless this runner is stopping, which must be prompt.
                    failures = 0;
                    if !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(poll_every.saturating_sub(asked.elapsed()));
                    }
                }
                Err(PollFailure::Forgotten) => identity = None,
                Err(PollFailure::Transport) => {
                    failures += 1;
                    std::thread::sleep(retry.sleep_for(failures));
                }
            }
        }
        if let Some(me) = identity {
            // Graceful exit. Best-effort — expiry would reclaim it anyway.
            link.deregister(me.runner_id);
        }
    });
}

/// A runner's heartbeat thread: beats every period for the lease it was
/// last told of (`Some((lease, period))`) until told the lease ended
/// (`None`) or the daemon no longer knows it; returns when the runner
/// loop drops its sender.
fn heartbeats(link: &impl Link, leases: &mpsc::Receiver<Option<(u64, Duration)>>) {
    let mut current = None;
    loop {
        current = match current {
            None => match leases.recv() {
                Ok(next) => next,
                Err(_) => return,
            },
            Some((lease, every)) => match leases.recv_timeout(every) {
                Ok(next) => next,
                Err(RecvTimeoutError::Timeout) => link.heartbeat(lease).then_some((lease, every)),
                Err(RecvTimeoutError::Disconnected) => return,
            },
        };
    }
}

/// The HTTP link: the fleet routes of [`crate::server`].
impl Link for Runner {
    fn register(&self, name: &str) -> Option<RegisterReply> {
        let hello = serde_json::to_string(&RunnerHello {
            name: name.to_string(),
        })
        .ok()?;
        let response =
            http::request(&self.addr, "POST", "/fleet/runners", &[], Some(&hello)).ok()?;
        if !(200..300).contains(&response.status) {
            return None;
        }
        serde_json::from_str(&response.body).ok()
    }

    fn poll(&self, runner_id: u64, wait: Duration) -> Result<Option<LeaseGrant>, PollFailure> {
        let path = format!(
            "/fleet/runners/{runner_id}/poll?wait_ms={}",
            wait.as_millis()
        );
        let response = http::request(&self.addr, "POST", &path, &[], Some("{}"))
            .map_err(|_| PollFailure::Transport)?;
        match response.status {
            s if (200..300).contains(&s) => {
                let reply: PollReply =
                    serde_json::from_str(&response.body).map_err(|_| PollFailure::Transport)?;
                Ok(reply.lease)
            }
            404 => Err(PollFailure::Forgotten),
            _ => Err(PollFailure::Transport),
        }
    }

    /// Only `410 Gone` means the lease is lost; a transport hiccup keeps
    /// working (expiry reclaims the lease if the daemon is really gone).
    fn heartbeat(&self, lease_id: u64) -> bool {
        let path = format!("/fleet/leases/{lease_id}/heartbeat");
        let response = http::request(&self.addr, "POST", &path, &[], Some("{}"));
        !response.is_ok_and(|r| r.status == 410)
    }

    /// Best-effort with bounded retries: a revoked lease answers 410
    /// (stale, drop it); a dead daemon re-queues by expiry.
    fn result(&self, lease_id: u64, result: LeaseResult) {
        let Ok(body) = serde_json::to_string(&result) else {
            return;
        };
        let path = format!("/fleet/leases/{lease_id}/result");
        for attempt in 1..=self.retry.max_attempts {
            match http::request(&self.addr, "POST", &path, &[], Some(&body)) {
                Ok(_) => return,
                Err(_) => std::thread::sleep(self.retry.sleep_for(attempt)),
            }
        }
    }

    fn deregister(&self, runner_id: u64) {
        let path = format!("/fleet/runners/{runner_id}");
        let _ = http::request(&self.addr, "DELETE", &path, &[], None);
    }
}

/// Executes a lease's payload, firing its injected fault first, with an
/// unwind reported as `cell {i} panicked: …` or `job panicked: …`.
fn run_lease(lease: &LeaseGrant) -> LeaseResult {
    let failed = |err: String| LeaseResult {
        err: Some(err),
        ..LeaseResult::default()
    };
    let run = || {
        if let (Some(config), Some(cell)) = (&lease.config, &lease.cell) {
            if let Some(fault) = lease.fault {
                fault.fire(lease.cell_index.unwrap_or_default());
            }
            match cdcs_sim::runner::run_cell(config, cell) {
                Ok(result) => LeaseResult {
                    ok: Some(result),
                    ..LeaseResult::default()
                },
                Err(err) => failed(err),
            }
        } else if let Some(spec) = &lease.spec {
            match spec.run().and_then(|report| {
                serde_json::to_string_pretty(&report)
                    .map_err(|e| format!("serializing report: {e}"))
            }) {
                Ok(json) => LeaseResult {
                    report_json: Some(json),
                    ..LeaseResult::default()
                },
                Err(err) => failed(err),
            }
        } else {
            failed("lease carried neither a cell nor a spec".into())
        }
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let msg = panic_message(payload.as_ref());
        failed(if lease.spec.is_some() {
            format!("job panicked: {msg}")
        } else {
            format!(
                "cell {} panicked: {msg}",
                lease.cell_index.unwrap_or_default()
            )
        })
    })
}
