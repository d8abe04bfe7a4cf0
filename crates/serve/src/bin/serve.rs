//! The experiment daemon.
//!
//! ```sh
//! cdcs-serve --addr 127.0.0.1:7077 --workers 4 \
//!            --queue-cap 32 --tenant-burst 8 --tenant-rate 2 \
//!            --cell-timeout-ms 60000
//! ```
//!
//! Accepts `ExperimentSpec` JSON on `POST /jobs`, interleaves cells from
//! concurrent jobs fairly across its runners, and serves per-cell
//! progress and finished reports (see the `cdcs` client). `--workers N`
//! (default: the machine's thread count) starts N in-process runners
//! (`local-0`, …) that lease cells exactly as `cdcs-runner` processes do.
//!
//! Hardening knobs (all optional; omitted = permissive):
//!
//! * `--queue-cap N` — refuse submissions (`429` + `Retry-After`) while
//!   `N` jobs are queued or running;
//! * `--tenant-burst B --tenant-rate R` — per-tenant token bucket:
//!   each tenant (`X-Tenant` header) may burst `B` submissions and
//!   refills at `R` per second;
//! * `--cell-timeout-ms MS` — per-cell wall-clock watchdog: a cell
//!   leased longer, to a local or a remote runner, fails its job;
//! * `CDCS_FAULT` / `--fault SPEC` — deterministic fault injection
//!   (`panic_cell:3`, `slow_cell:1:500`, `drop_conn:2`, `garble_conn`,
//!   `lose_lease:2`), for the e2e suites and operational drills.
//!
//! Fleet knobs (see `cdcs-runner` for the worker side):
//!
//! * `--workers 0` — fleet-only mode: no in-process runner; every cell
//!   is leased to remote runners;
//! * `--lease-ttl-ms MS` — heartbeat window before a lease is revoked
//!   and its cell re-queued (default 5000);
//! * `--runner-ttl-ms MS` — silence window before a runner is expired
//!   and all its work re-queued (default 20000); polls, heartbeats and
//!   results all count as signs of life.

use cdcs_bench::arg_value;
use cdcs_serve::admission::TenantLimit;
use cdcs_serve::faults::FaultPlan;
use cdcs_serve::{JobServer, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn parsed<T: std::str::FromStr>(name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    match arg_value(name) {
        Some(value) => value
            .parse()
            .map(Some)
            .map_err(|e| format!("--{name} {value:?}: {e}")),
        None => Ok(None),
    }
}

fn main() -> Result<(), String> {
    let addr = arg_value("addr").unwrap_or_else(|| "127.0.0.1:7077".to_string());
    let workers = parsed("workers")?.unwrap_or_else(rayon::current_num_threads);
    let mut config = ServerConfig::new(addr, workers);
    config.queue_cap = parsed("queue-cap")?;
    config.cell_timeout = parsed::<u64>("cell-timeout-ms")?.map(Duration::from_millis);
    let burst: Option<f64> = parsed("tenant-burst")?;
    let rate: Option<f64> = parsed("tenant-rate")?;
    config.tenant_limit = match (burst, rate) {
        (None, None) => None,
        // One knob implies the other: default the burst to the rate (one
        // second of credit) and the rate to refilling the burst per minute.
        (burst, rate) => {
            let rate = rate.or(burst).unwrap_or(1.0);
            Some(TenantLimit {
                burst: burst.unwrap_or(rate).max(1.0),
                rate,
            })
        }
    };
    if let Some(ms) = parsed::<u64>("lease-ttl-ms")? {
        config.fleet.lease_ttl = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = parsed::<u64>("runner-ttl-ms")? {
        config.fleet.runner_ttl = Duration::from_millis(ms.max(1));
    }
    let faults = match arg_value("fault") {
        Some(spec) => FaultPlan::parse(&spec)?,
        None => FaultPlan::from_env()?,
    };
    if !faults.is_empty() {
        eprintln!("cdcs-serve: FAULT INJECTION ACTIVE");
    }
    config.faults = Arc::new(faults);

    let server = JobServer::start_with(config)?;
    eprintln!(
        "cdcs-serve listening on http://{} ({} worker{})",
        server.addr(),
        workers,
        if workers == 1 { "" } else { "s" }
    );
    server.join();
    Ok(())
}
