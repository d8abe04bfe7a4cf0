//! The runner side of the fleet protocol: what `cdcs-runner` executes.
//!
//! A [`Runner`] registers with a daemon, then loops: poll for a lease
//! (a blocking poll: the daemon holds it open for up to `poll_ms` until a
//! unit becomes claimable), execute it (a grid cell via
//! [`cdcs_sim::runner::run_cell`] on the shipped `(config, cell)` — the
//! *same entry point* a local session worker uses, so the result is
//! bit-identical — or a whole analysis spec via `spec.run()`), heartbeat
//! while working, and post the result. The heartbeat thread stops the
//! moment the cell returns, so a lease costs the cell's run time, not a
//! heartbeat period.
//! A heartbeat answered `410 Gone` means the lease was revoked (the
//! daemon re-queued the unit): the runner abandons the work and polls
//! again. A `404` from poll means the daemon expired this runner (or
//! restarted): it re-registers and continues — runners are cattle.
//!
//! Execution is panic-contained: an unwinding cell becomes that lease's
//! `err` result, never a dead runner. Transport failures back off with
//! the client's bounded [`RetryPolicy`] jitter.
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
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A fleet worker bound to one daemon.
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
        let mut identity: Option<RegisterReply> = None;
        let mut failures = 0u32;
        while !stop.load(Ordering::SeqCst) {
            let Some(me) = identity.clone().or_else(|| {
                let registered = self.register();
                identity.clone_from(&registered);
                registered
            }) else {
                failures += 1;
                std::thread::sleep(self.retry.sleep_for(failures));
                continue;
            };
            let poll_every = Duration::from_millis(me.poll_ms.max(1));
            let asked = Instant::now();
            match self.poll(me.runner_id, poll_every) {
                Ok(Some(lease)) => {
                    failures = 0;
                    self.execute(&me, &lease);
                }
                Ok(None) => {
                    // The daemon waited out `poll_every` for work; one that
                    // answered sooner (it ignores `wait_ms`, or is shutting
                    // down) gets no more than one idle poll per interval.
                    failures = 0;
                    std::thread::sleep(poll_every.saturating_sub(asked.elapsed()));
                }
                Err(PollFailure::Forgotten) => identity = None,
                Err(PollFailure::Transport) => {
                    failures += 1;
                    std::thread::sleep(self.retry.sleep_for(failures));
                }
            }
        }
        if let Some(me) = identity {
            // Graceful exit: hand back anything the daemon still thinks
            // we hold. Best-effort — expiry would reclaim it anyway.
            let _ = http::request(
                &self.addr,
                "DELETE",
                &format!("/fleet/runners/{}", me.runner_id),
                &[],
                None,
            );
        }
    }

    fn register(&self) -> Option<RegisterReply> {
        let hello = serde_json::to_string(&RunnerHello {
            name: self.name.clone(),
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

    /// Executes one lease with a heartbeat thread alongside, then posts
    /// the result — unless a heartbeat learned the lease was revoked, in
    /// which case the work is abandoned (its unit is already re-queued).
    /// The heartbeat thread waits on a channel whose sender the cell's
    /// thread drops on return, so it ends at once instead of finishing
    /// its sleep.
    fn execute(&self, me: &RegisterReply, lease: &LeaseGrant) {
        // A third of the TTL keeps two full misses inside the window.
        let beat_every = Duration::from_millis((me.lease_ttl_ms / 3).max(10));
        let (running, cell_done) = mpsc::channel::<()>();
        let (result, lost) = std::thread::scope(|scope| {
            // Returns whether a heartbeat found the lease revoked.
            let beats = scope.spawn(move || {
                let path = format!("/fleet/leases/{}/heartbeat", lease.lease_id);
                while let Err(mpsc::RecvTimeoutError::Timeout) = cell_done.recv_timeout(beat_every)
                {
                    let response = http::request(&self.addr, "POST", &path, &[], Some("{}"));
                    if response.is_ok_and(|r| r.status == 410) {
                        return true;
                    }
                }
                false
            });
            let result = run_lease(lease);
            drop(running);
            (result, beats.join().unwrap_or(false))
        });
        if lost {
            return;
        }
        let Ok(body) = serde_json::to_string(&result) else {
            return;
        };
        let path = format!("/fleet/leases/{}/result", lease.lease_id);
        // Best-effort with bounded retries: a revoked lease answers 410
        // (stale, drop it); a dead daemon re-queues by expiry.
        for attempt in 1..=self.retry.max_attempts {
            match http::request(&self.addr, "POST", &path, &[], Some(&body)) {
                Ok(_) => return,
                Err(_) => std::thread::sleep(self.retry.sleep_for(attempt)),
            }
        }
    }
}

enum PollFailure {
    /// The daemon does not know this runner id: re-register.
    Forgotten,
    /// Transport or server trouble: back off and retry.
    Transport,
}

/// Executes a lease's payload, panic-contained.
fn run_lease(lease: &LeaseGrant) -> LeaseResult {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let (Some(config), Some(cell)) = (&lease.config, &lease.cell) {
            match cdcs_sim::runner::run_cell(config, cell) {
                Ok(result) => LeaseResult {
                    ok: Some(result),
                    ..LeaseResult::default()
                },
                Err(err) => LeaseResult {
                    err: Some(err),
                    ..LeaseResult::default()
                },
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
                Err(err) => LeaseResult {
                    err: Some(err),
                    ..LeaseResult::default()
                },
            }
        } else {
            LeaseResult {
                err: Some("lease carried neither a cell nor a spec".into()),
                ..LeaseResult::default()
            }
        }
    }));
    outcome.unwrap_or_else(|payload| LeaseResult {
        err: Some(format!(
            "cell panicked on runner: {}",
            panic_message(payload.as_ref())
        )),
        ..LeaseResult::default()
    })
}
