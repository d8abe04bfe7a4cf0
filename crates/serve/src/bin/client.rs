//! `cdcs`: the experiment-daemon client.
//!
//! ```sh
//! cdcs submit specs/quickstart.json            # -> job id
//! cdcs status 0                                # live per-cell progress
//! cdcs report 0 --out out/quickstart.json      # finished report (artifact bytes)
//! cdcs cancel 0
//! cdcs run specs/quickstart.json --small       # submit + poll + report
//! cdcs fleet --watch                           # live remote-runner fleet table
//! ```
//!
//! The server defaults to `127.0.0.1:7077`; override with `--server
//! host:port` or the `CDCS_SERVER` environment variable. `--small`
//! rebases a grid spec onto the 4×4 test chip and renames it
//! `<name>_small` — the same convention as the in-process binaries, so a
//! served report stays byte-comparable to `out/<name>_small.json`.
//!
//! Multi-tenant knobs: `--tenant NAME` (or `CDCS_TENANT`) identifies the
//! submitting tenant for the daemon's admission control; `--deadline-ms
//! N` attaches a wall-clock deadline to submitted jobs. Transient
//! failures (connection refused/dropped, `429` + `Retry-After`, daemon
//! restarts mid-`run`) are retried with bounded exponential backoff —
//! tune with `--retries N` (retries after the first attempt).
//!
//! `cdcs run` long-polls the job's status: `--poll-ms N` (default 200) is
//! the longest a single status request waits for the job to finish, so
//! the report arrives as soon as the job is done, not on a poll tick.

use cdcs_bench::arg_value_from;
use cdcs_bench::exp::{BaseConfig, ExperimentSpec};
use cdcs_serve::protocol::FleetStatus;
use cdcs_serve::{Client, RetryPolicy};
use std::time::Duration;

fn client(args: &[String]) -> Result<Client, String> {
    let addr = arg_value_from(args, "server")
        .or_else(|| std::env::var("CDCS_SERVER").ok())
        .unwrap_or_else(|| "127.0.0.1:7077".to_string());
    let mut client = Client::new(addr);
    if let Some(tenant) =
        arg_value_from(args, "tenant").or_else(|| std::env::var("CDCS_TENANT").ok())
    {
        client = client.with_tenant(tenant);
    }
    if let Some(raw) = arg_value_from(args, "deadline-ms") {
        let ms = raw
            .parse()
            .map_err(|e| format!("--deadline-ms {raw:?}: {e}"))?;
        client = client.with_deadline_ms(ms);
    }
    if let Some(raw) = arg_value_from(args, "retries") {
        let max_attempts: u32 = raw.parse().map_err(|e| format!("--retries {raw:?}: {e}"))?;
        client = client.with_retry(RetryPolicy {
            max_attempts: max_attempts.saturating_add(1),
            ..RetryPolicy::default()
        });
    }
    Ok(client)
}

/// Reads a spec file, applying the shared `--small` convention.
fn load_spec(args: &[String], path: &str) -> Result<String, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut spec: ExperimentSpec =
        serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    if args.iter().any(|a| a == "--small") {
        spec.set_base(BaseConfig::SmallTest);
        spec.name = format!("{}_small", spec.name);
    }
    serde_json::to_string(&spec).map_err(|e| format!("re-serializing spec: {e}"))
}

fn parse_id(arg: Option<&String>) -> Result<u64, String> {
    let raw = arg.ok_or("missing job id")?;
    raw.parse().map_err(|e| format!("job id {raw:?}: {e}"))
}

/// Prints `report` to stdout, or writes it to `--out FILE`.
fn emit_report(args: &[String], report: &str) -> Result<(), String> {
    match arg_value_from(args, "out") {
        Some(path) => {
            std::fs::write(&path, report).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("[report: {path}]");
            Ok(())
        }
        None => {
            println!("{report}");
            Ok(())
        }
    }
}

/// Renders one fleet snapshot as a runner table plus fleet totals.
fn print_fleet(fleet: &FleetStatus) {
    println!(
        "{:>4}  {:<20} {:>7} {:>10}",
        "id", "runner", "leases", "completed"
    );
    for r in &fleet.runners {
        println!(
            "{:>4}  {:<20} {:>7} {:>10}",
            r.id, r.name, r.active_leases, r.completed
        );
    }
    println!(
        "fleet: {} runner(s), {} active lease(s), {} completed, {} requeued",
        fleet.runners.len(),
        fleet.active_leases,
        fleet.completed,
        fleet.requeued
    );
}

fn usage() -> String {
    "usage: cdcs <submit SPEC.json | status ID | report ID | cancel ID | run SPEC.json | fleet> \
     [--server host:port] [--small] [--out FILE] [--poll-ms N] [--watch] \
     [--tenant NAME] [--deadline-ms N] [--retries N]"
        .to_string()
}

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().collect();
    let command = args.get(1).map(String::as_str).ok_or_else(usage)?;
    let client = client(&args)?;
    match command {
        "submit" => {
            let path = args.get(2).ok_or_else(usage)?;
            let spec = load_spec(&args, path)?;
            let id = client.submit(&spec)?;
            println!("{id}");
            Ok(())
        }
        "status" => {
            let status = client.status(parse_id(args.get(2))?)?;
            println!(
                "{}",
                serde_json::to_string_pretty(&status)
                    .map_err(|e| format!("serializing status: {e}"))?
            );
            Ok(())
        }
        "report" => {
            let report = client.report(parse_id(args.get(2))?)?;
            emit_report(&args, &report)
        }
        "cancel" => {
            let status = client.cancel(parse_id(args.get(2))?)?;
            println!(
                "{}",
                serde_json::to_string_pretty(&status)
                    .map_err(|e| format!("serializing status: {e}"))?
            );
            Ok(())
        }
        "run" => {
            let path = args.get(2).ok_or_else(usage)?;
            let spec = load_spec(&args, path)?;
            let poll = arg_value_from(&args, "poll-ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(200u64);
            let report = client.run(&spec, Duration::from_millis(poll))?;
            emit_report(&args, &report)
        }
        "fleet" => {
            let poll = arg_value_from(&args, "poll-ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1000u64);
            let watch = args.iter().any(|a| a == "--watch");
            loop {
                print_fleet(&client.fleet()?);
                if !watch {
                    return Ok(());
                }
                println!();
                std::thread::sleep(Duration::from_millis(poll));
            }
        }
        other => Err(format!("unknown subcommand {other:?}\n{}", usage())),
    }
}
