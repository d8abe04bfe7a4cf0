//! `cdcs-runner`: a fleet worker process.
//!
//! ```sh
//! cdcs-runner --addr 127.0.0.1:7077 --name rack3-17
//! ```
//!
//! Registers with the `cdcs-serve` daemon at `--addr`, then runs the
//! same loop as the daemon's own `--workers`, over HTTP: lease a unit of
//! work, execute it (bit-identical to in-process execution — same
//! `run_cell` entry point on the shipped `(config, cell)`, and any
//! injected cell fault fires here), heartbeat while working, post the
//! result. Survives daemon restarts by re-registering; a revoked lease
//! (missed heartbeats, injected `lose_lease` fault) is abandoned
//! mid-flight — the daemon has already re-queued the cell. Runs until
//! killed.

use cdcs_bench::arg_value;
use cdcs_serve::Runner;
use std::sync::atomic::AtomicBool;

fn main() {
    let addr = arg_value("addr").unwrap_or_else(|| "127.0.0.1:7077".to_string());
    let name = arg_value("name").unwrap_or_else(|| format!("runner-{}", std::process::id()));
    eprintln!("cdcs-runner {name}: joining fleet at http://{addr}");
    let never_stop = AtomicBool::new(false);
    Runner::new(addr, name).run(&never_stop);
}
