#![forbid(unsafe_code)]
//! `cdcs-serve`: a spec-serving experiment daemon.
//!
//! In process, a grid runs as one blocking `run_grid` wave. This crate
//! turns the machine into a long-running service in the shape the paper's
//! co-scheduling pitch implies (and elastic cache services like
//! CoT/DistCache motivate): a daemon that accepts typed
//! [`cdcs_bench::exp::ExperimentSpec`]s as JSON, schedules their cells
//! **fairly across every runner** (round-robin over concurrent jobs, one
//! cell per claim from each [`job`]'s own bookkeeping), reports per-cell
//! progress, supports cancellation, and serves finished
//! [`cdcs_bench::exp::ExperimentReport`]s byte-equal to the `out/`
//! artifacts the same specs produce in process.
//!
//! Every claimed unit is a [`fleet`] lease run by the one worker loop in
//! [`runner`]: in process for `--workers N`, over HTTP for `cdcs-runner`
//! processes. Nothing in the service waits on a fixed sleep: status
//! requests and runner polls *long-poll* (`?wait_ms=`), returning the
//! moment the job finishes or a unit becomes claimable, and a runner's
//! heartbeat thread stops the moment its cell returns.
//!
//! The daemon is hardened for multi-tenant traffic: [`admission`] bounds
//! overload (per-tenant token buckets + a queue-depth cap → `429` +
//! `Retry-After`), jobs carry optional wall-clock deadlines enforced at
//! claim time and by a watchdog (plus a per-cell watchdog over lease
//! ages), panics anywhere in job execution are
//! contained to the job that caused them, and [`faults`] can
//! deterministically inject cell panics, slow cells, lost leases, and
//! dropped/garbled connections to prove each degradation mode end to end.
//!
//! Three binaries ship with the crate:
//!
//! * `cdcs-serve` — the daemon (`--addr`, `--workers`, admission and
//!   watchdog knobs, fleet TTLs, `CDCS_FAULT`);
//! * `cdcs` — the client: `submit` / `status` / `report` / `cancel` /
//!   `run` / `fleet` subcommands speaking the JSON protocol in
//!   [`protocol`], with bounded exponential-backoff retry on transient
//!   failures;
//! * `cdcs-runner` — a remote fleet worker.
//!
//! Everything is dependency-free `std::net` HTTP/1.1 ([`http`]) over the
//! vendored `serde_json` — the workspace still builds fully offline.

pub mod admission;
pub mod client;
pub mod faults;
pub mod fleet;
pub mod http;
pub mod job;
pub mod lease;
pub mod protocol;
pub mod runner;
pub mod server;

pub use client::{Client, RetryPolicy};
pub use fleet::FleetConfig;
pub use runner::{Runner, RunnerHandle};
pub use server::{JobServer, ServerConfig};
