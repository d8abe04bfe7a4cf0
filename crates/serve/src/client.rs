//! Client-side bindings for the daemon's protocol (used by the `cdcs`
//! binary and the end-to-end tests).
//!
//! The client is built for a daemon that is allowed to degrade: every
//! call retries transient transport failures (refused/dropped/garbled
//! connections, truncated responses) with bounded exponential backoff
//! plus jitter, honors `Retry-After` on `429`/`503`, and
//! [`Client::run`] survives a daemon *restart* by resubmitting its spec
//! when the job id it was polling no longer exists.
//!
//! [`Client::run`] long-polls (`GET /jobs/<id>?wait_ms=`): the daemon
//! answers the moment the job finishes, so a job's latency is its run
//! time, not a multiple of the poll interval.

use crate::http;
use crate::protocol::{ErrorReply, FleetStatus, JobList, JobState, JobStatus, SubmitReply};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Bounded exponential backoff for transient failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base: Duration,
    /// Upper bound on a single backoff sleep.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// No retries: every transient failure surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The jittered sleep after `failures` consecutive failures
    /// (1-based) — the runner loop's backoff between reconnect attempts.
    pub fn sleep_for(&self, failures: u32) -> Duration {
        self.backoff(failures.saturating_sub(1))
    }

    /// The backoff before attempt `attempt + 1` (0-based), jittered to
    /// 50–100% of the exponential step so synchronized clients spread out.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        exp.mul_f64(0.5 + 0.5 * jitter_unit())
    }
}

/// A cheap source of jitter in `[0, 1)` — no RNG dependency; the clock's
/// sub-millisecond noise is plenty to de-synchronize retry storms.
fn jitter_unit() -> f64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    f64::from(nanos % 1024) / 1024.0
}

/// A handle to one daemon.
#[derive(Debug, Clone)]
pub struct Client {
    /// `host:port` of the daemon.
    pub addr: String,
    /// Tenant id sent as `X-Tenant` (the daemon's admission control
    /// charges this tenant's bucket).
    pub tenant: Option<String>,
    /// Per-job deadline sent as `X-Deadline-Ms` on submissions.
    pub deadline_ms: Option<u64>,
    /// Transient-failure retry policy.
    pub retry: RetryPolicy,
}

impl Client {
    /// A client for the daemon at `addr` (`host:port`), with default
    /// retries, no tenant, and no deadline.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            tenant: None,
            deadline_ms: None,
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the tenant id sent with every request.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Client {
        self.tenant = Some(tenant.into());
        self
    }

    /// Sets the per-job deadline attached to submissions.
    pub fn with_deadline_ms(mut self, ms: u64) -> Client {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Client {
        self.retry = retry;
        self
    }

    /// Submits a spec (raw [`cdcs_bench::exp::ExperimentSpec`] JSON) and
    /// returns the job id.
    ///
    /// # Errors
    ///
    /// Returns transport errors and server-side rejections.
    pub fn submit(&self, spec_json: &str) -> Result<u64, String> {
        let body = self.call("POST", "/jobs", Some(spec_json))?;
        let reply: SubmitReply =
            serde_json::from_str(&body).map_err(|e| format!("parsing submit reply: {e}"))?;
        Ok(reply.id)
    }

    /// One job's live status.
    ///
    /// # Errors
    ///
    /// Returns transport errors and server-side rejections.
    pub fn status(&self, id: u64) -> Result<JobStatus, String> {
        self.status_at(&format!("/jobs/{id}"))
    }

    fn status_at(&self, path: &str) -> Result<JobStatus, String> {
        let body = self.call("GET", path, None)?;
        serde_json::from_str(&body).map_err(|e| format!("parsing status: {e}"))
    }

    /// Every job's status.
    ///
    /// # Errors
    ///
    /// Returns transport errors and server-side rejections.
    pub fn list(&self) -> Result<Vec<JobStatus>, String> {
        let body = self.call("GET", "/jobs", None)?;
        let list: JobList =
            serde_json::from_str(&body).map_err(|e| format!("parsing job list: {e}"))?;
        Ok(list.jobs)
    }

    /// The finished report's JSON (byte-equal to the `out/` artifact).
    ///
    /// # Errors
    ///
    /// Returns transport errors, `409` while the job is unfinished, and
    /// other server-side rejections.
    pub fn report(&self, id: u64) -> Result<String, String> {
        self.call("GET", &format!("/jobs/{id}/report"), None)
    }

    /// The remote-runner fleet's live status (runners, outstanding
    /// leases, lifetime completed/requeued counts).
    ///
    /// # Errors
    ///
    /// Returns transport errors and server-side rejections.
    pub fn fleet(&self) -> Result<FleetStatus, String> {
        let body = self.call("GET", "/fleet", None)?;
        serde_json::from_str(&body).map_err(|e| format!("parsing fleet status: {e}"))
    }

    /// Cancels a job and returns its status.
    ///
    /// # Errors
    ///
    /// Returns transport errors and server-side rejections.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, String> {
        let body = self.call("DELETE", &format!("/jobs/{id}"), None)?;
        serde_json::from_str(&body).map_err(|e| format!("parsing status: {e}"))
    }

    /// Submits a spec, polls until it reaches a terminal state, and
    /// returns the report JSON. Each status request long-polls for up to
    /// `poll`; a non-terminal reply that comes back sooner (a daemon that
    /// ignores `wait_ms`) is followed by a sleep for the rest of `poll`, so
    /// such a daemon sees one request per `poll`. If the daemon restarts
    /// mid-run (the polled job id stops existing), the spec is
    /// resubmitted — bounded, and invisible to the caller beyond added
    /// latency.
    ///
    /// # Errors
    ///
    /// Returns transport errors and a description when the job ends
    /// cancelled, expired, or failed.
    pub fn run(&self, spec_json: &str, poll: Duration) -> Result<String, String> {
        let mut id = self.submit(spec_json)?;
        let mut resubmits_left = 3u32;
        loop {
            let asked = Instant::now();
            let status = match self.status_at(&format!("/jobs/{id}?wait_ms={}", poll.as_millis())) {
                Ok(status) => status,
                // `call` formats server-side rejections as "HTTP <code>:".
                // A 404 for a job we created means the daemon lost its
                // state (restart): resubmit rather than surface it.
                Err(e) if e.contains("HTTP 404:") && resubmits_left > 0 => {
                    resubmits_left -= 1;
                    id = self.submit(spec_json)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match status.state {
                JobState::Done => return self.report(id),
                JobState::Cancelled => return Err(format!("job {id} was cancelled")),
                JobState::DeadlineExceeded => {
                    return Err(format!("job {id} exceeded its deadline"))
                }
                JobState::Failed => {
                    return Err(format!(
                        "job {id} failed: {}",
                        status.error.unwrap_or_else(|| "unknown error".into())
                    ))
                }
                JobState::Queued | JobState::Running => {
                    std::thread::sleep(poll.saturating_sub(asked.elapsed()));
                }
            }
        }
    }

    fn call(&self, method: &str, path: &str, body: Option<&str>) -> Result<String, String> {
        let mut headers: Vec<(&str, String)> = Vec::new();
        if let Some(tenant) = &self.tenant {
            headers.push(("X-Tenant", tenant.clone()));
        }
        if method == "POST" {
            if let Some(ms) = self.deadline_ms {
                headers.push(("X-Deadline-Ms", ms.to_string()));
            }
        }
        let mut attempt = 0u32;
        loop {
            let transient = match http::request(&self.addr, method, path, &headers, body) {
                Ok(response) if (200..300).contains(&response.status) => return Ok(response.body),
                // Overload and shutdown windows are retryable; honor the
                // server's Retry-After hint when it gives one.
                Ok(response) if response.status == 429 || response.status == 503 => {
                    let hint = response
                        .header("retry-after")
                        .and_then(|v| v.parse::<f64>().ok())
                        .map(Duration::from_secs_f64);
                    let detail = error_detail(&response.body);
                    (
                        format!("{method} {path}: HTTP {}: {detail}", response.status),
                        hint,
                    )
                }
                Ok(response) => {
                    let detail = error_detail(&response.body);
                    return Err(format!(
                        "{method} {path}: HTTP {}: {detail}",
                        response.status
                    ));
                }
                // Transport-level failure (refused, reset, dropped,
                // garbled): transient by definition.
                Err(e) => (format!("{method} {path}: {e}"), None),
            };
            let (error, hint) = transient;
            attempt += 1;
            if attempt >= self.retry.max_attempts {
                return Err(format!("{error} (after {attempt} attempts)"));
            }
            std::thread::sleep(hint.unwrap_or_else(|| self.retry.backoff(attempt - 1)));
        }
    }
}

/// Prefers the server's structured error message when present.
fn error_detail(body: &str) -> String {
    serde_json::from_str::<ErrorReply>(body)
        .map(|e| e.error)
        .unwrap_or_else(|_| body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_within_bounds() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(1),
        };
        let mut prev_max = Duration::ZERO;
        for attempt in 0..8 {
            let sleep = policy.backoff(attempt);
            let unjittered = policy.base.saturating_mul(1u32 << attempt).min(policy.cap);
            assert!(sleep <= unjittered, "attempt {attempt}: {sleep:?}");
            assert!(
                sleep >= unjittered.mul_f64(0.5),
                "attempt {attempt}: {sleep:?} under half of {unjittered:?}"
            );
            assert!(unjittered >= prev_max, "monotone until the cap");
            prev_max = unjittered;
        }
        assert!(
            policy.backoff(30) <= policy.cap,
            "deep attempts stay capped without overflow"
        );
    }

    #[test]
    fn no_retry_policy_fails_on_first_transient_error() {
        // Nothing listens on this port (bound, never accepted-from
        // quickly enough? — simpler: a port from the reserved test range
        // with no listener at all).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener); // now refused
        let client = Client::new(addr).with_retry(RetryPolicy::none());
        let before = std::time::Instant::now();
        let err = client.status(0).expect_err("nothing listening");
        assert!(err.contains("after 1 attempts"), "{err}");
        assert!(
            before.elapsed() < Duration::from_secs(2),
            "no backoff slept"
        );
    }
}
