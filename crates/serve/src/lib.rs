#![forbid(unsafe_code)]
//! `cdcs-serve`: a spec-serving experiment daemon over streaming grid
//! sessions.
//!
//! The execution API used to be one blocking `run_grid` wave per process.
//! This crate turns the machine into a long-running service in the shape
//! the paper's co-scheduling pitch implies (and elastic cache services
//! like CoT/DistCache motivate): a daemon that accepts typed
//! [`cdcs_bench::exp::ExperimentSpec`]s as JSON, schedules their cells
//! **fairly across one shared worker pool** (round-robin over concurrent
//! jobs, each cell claimed from a [`cdcs_sim::GridSession`]), streams
//! per-cell progress, supports cancellation, and serves finished
//! [`cdcs_bench::exp::ExperimentReport`]s byte-equal to the `out/`
//! artifacts the same specs produce in process.
//!
//! The daemon is hardened for multi-tenant traffic: [`admission`] bounds
//! overload (per-tenant token buckets + a queue-depth cap → `429` +
//! `Retry-After`), jobs carry optional wall-clock deadlines enforced
//! through the session's cancellation machinery (plus a per-cell
//! watchdog), panics anywhere in job execution are contained to the job
//! that caused them, and [`faults`] can deterministically inject cell
//! panics, slow cells, and dropped/garbled connections to prove each
//! degradation mode end to end.
//!
//! Cells can also run on remote machines: [`fleet`] leases them to
//! `cdcs-runner` processes ([`runner`]) that poll over HTTP. Nothing in
//! the service waits on a fixed sleep: status requests and runner polls
//! *long-poll* (`?wait_ms=`), returning the moment the job finishes or a
//! unit becomes claimable, and a runner's heartbeat thread stops the
//! moment its cell returns.
//!
//! Three binaries ship with the crate:
//!
//! * `cdcs-serve` — the daemon (`--addr`, `--workers`, admission and
//!   watchdog knobs, fleet TTLs, `CDCS_FAULT`);
//! * `cdcs` — the client: `submit` / `status` / `report` / `cancel` /
//!   `run` / `fleet` subcommands speaking the JSON protocol in
//!   [`protocol`], with bounded exponential-backoff retry on transient
//!   failures;
//! * `cdcs-runner` — a fleet worker.
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
pub mod scheduler;
pub mod server;

pub use client::{Client, RetryPolicy};
pub use fleet::FleetConfig;
pub use runner::{Runner, RunnerHandle};
pub use server::{JobServer, ServerConfig};
