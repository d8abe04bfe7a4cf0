//! Deterministic fault injection for the daemon.
//!
//! A [`FaultPlan`] is parsed from a compact spec string (the `CDCS_FAULT`
//! environment variable, or `--fault` on `cdcs-serve`) and consulted at
//! the places the service can be hurt:
//!
//! * **cell faults** — decided when the fleet grants a matching cell's
//!   lease, they travel with the grant and fire on whichever runner
//!   executes it, inside the lease's panic boundary, just before the cell
//!   runs: `panic_cell` panics (failing *that cell*), `slow_cell` sleeps.
//! * **connection faults** — consulted by the HTTP front end before a
//!   connection is served: `drop_conn` closes the socket without a
//!   response, `garble_conn` writes bytes that are not HTTP.
//! * **lease faults** — consulted by the fleet at grant time:
//!   `lose_lease` dooms a matching cell's lease on grant — the cell is
//!   re-queued immediately and the lease is never entered in the table,
//!   so the runner's heartbeats and result land stale. This exercises
//!   the whole revoke-and-requeue path deterministically, without
//!   waiting out a heartbeat window.
//!
//! Every rule carries a *budget* (how many times it fires, default once)
//! so a harness run is deterministic and self-limiting: inject a panic
//! into one job's cell 3, then watch the daemon serve the next job
//! cleanly — the exact shape of the fault-injection e2e suite and the CI
//! smoke job.
//!
//! Grammar (comma-separated, whitespace ignored):
//!
//! ```text
//! panic_cell:<index>[:<count>]
//! slow_cell:<index>:<millis>[:<count>]
//! drop_conn[:<count>]
//! garble_conn[:<count>]
//! lose_lease:<index>[:<count>]
//! ```

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// What to do to a matching cell. Part of the lease wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellFault {
    /// Panic on the executing thread (the lease's panic boundary turns it
    /// into the cell's `Err` with the message preserved).
    Panic,
    /// Sleep this many milliseconds before running the cell.
    SlowMs(u64),
}

impl CellFault {
    /// Injects the fault into cell `index` on the calling thread. Call
    /// inside a panic boundary.
    pub fn fire(self, index: usize) {
        match self {
            CellFault::Panic => panic!("injected fault: panic_cell {index}"),
            CellFault::SlowMs(millis) => std::thread::sleep(Duration::from_millis(millis)),
        }
    }
}

/// What to do to a matching connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// Close the socket without writing a response.
    Drop,
    /// Write non-HTTP bytes, then close.
    Garble,
}

#[derive(Debug)]
struct CellRule {
    index: usize,
    fault: CellFault,
    budget: AtomicUsize,
}

#[derive(Debug)]
struct ConnRule {
    fault: ConnFault,
    budget: AtomicUsize,
}

#[derive(Debug)]
struct LeaseRule {
    index: usize,
    budget: AtomicUsize,
}

/// A parsed, budgeted set of faults to inject. Cheap to share; all state
/// is atomic budgets.
#[derive(Debug, Default)]
pub struct FaultPlan {
    cells: Vec<CellRule>,
    conns: Vec<ConnRule>,
    leases: Vec<LeaseRule>,
}

impl FaultPlan {
    /// Parses a fault spec string (see the module docs for the grammar).
    /// An empty string is an empty plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let mut parts = entry.split(':');
            let kind = parts.next().unwrap_or("");
            let mut num = |what: &str| -> Result<usize, String> {
                let raw = parts
                    .next()
                    .ok_or_else(|| format!("fault {entry:?}: missing {what}"))?;
                raw.parse()
                    .map_err(|e| format!("fault {entry:?}: bad {what} {raw:?}: {e}"))
            };
            match kind {
                "panic_cell" | "slow_cell" => {
                    let index = num("cell index")?;
                    let fault = if kind == "panic_cell" {
                        CellFault::Panic
                    } else {
                        CellFault::SlowMs(num("millis")? as u64)
                    };
                    let budget = parts.next().map_or(Ok(1), |raw| {
                        raw.parse()
                            .map_err(|e| format!("fault {entry:?}: bad count {raw:?}: {e}"))
                    })?;
                    plan.cells.push(CellRule {
                        index,
                        fault,
                        budget: AtomicUsize::new(budget),
                    });
                }
                "lose_lease" => {
                    let index = num("cell index")?;
                    let budget = parts.next().map_or(Ok(1), |raw| {
                        raw.parse()
                            .map_err(|e| format!("fault {entry:?}: bad count {raw:?}: {e}"))
                    })?;
                    plan.leases.push(LeaseRule {
                        index,
                        budget: AtomicUsize::new(budget),
                    });
                }
                "drop_conn" | "garble_conn" => {
                    let fault = if kind == "drop_conn" {
                        ConnFault::Drop
                    } else {
                        ConnFault::Garble
                    };
                    let budget = parts.next().map_or(Ok(1), |raw| {
                        raw.parse()
                            .map_err(|e| format!("fault {entry:?}: bad count {raw:?}: {e}"))
                    })?;
                    plan.conns.push(ConnRule {
                        fault,
                        budget: AtomicUsize::new(budget),
                    });
                }
                other => return Err(format!("unknown fault kind {other:?} in {entry:?}")),
            }
            if parts.next().is_some() {
                return Err(format!("fault {entry:?}: trailing fields"));
            }
        }
        Ok(plan)
    }

    /// The plan from the `CDCS_FAULT` environment variable (empty when
    /// unset).
    ///
    /// # Errors
    ///
    /// Propagates parse errors so a typoed injection spec fails loudly at
    /// daemon start instead of silently injecting nothing.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("CDCS_FAULT") {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::default()),
        }
    }

    /// Whether the plan has no rules at all.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.conns.is_empty() && self.leases.is_empty()
    }

    /// The fault for a grant of cell `index`: the first in-budget rule
    /// matching it, consuming one budget unit. The fleet ships it with
    /// the lease; the executor fires it ([`CellFault::fire`]).
    pub fn on_cell(&self, index: usize) -> Option<CellFault> {
        self.cells
            .iter()
            .find(|rule| rule.index == index && take_budget(&rule.budget))
            .map(|rule| rule.fault)
    }

    /// Whether an in-budget `lose_lease` rule matches a grant of cell
    /// `index` — consuming one budget unit if so. `true` means the fleet
    /// must doom this grant: re-queue the cell now and never enter the
    /// lease in the table.
    pub fn on_lease(&self, index: usize) -> bool {
        self.leases
            .iter()
            .any(|rule| rule.index == index && take_budget(&rule.budget))
    }

    /// Takes the next in-budget connection fault, if any.
    pub fn on_conn(&self) -> Option<ConnFault> {
        self.conns
            .iter()
            .find(|rule| take_budget(&rule.budget))
            .map(|rule| rule.fault)
    }
}

/// Decrements `budget` if positive; returns whether a unit was taken.
fn take_budget(budget: &AtomicUsize) -> bool {
    budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let plan =
            FaultPlan::parse("panic_cell:3, slow_cell:1:250:2, drop_conn:4, garble_conn").unwrap();
        assert_eq!(plan.cells.len(), 2);
        assert_eq!(plan.cells[0].index, 3);
        assert_eq!(plan.cells[0].fault, CellFault::Panic);
        assert_eq!(plan.cells[0].budget.load(Ordering::SeqCst), 1);
        assert_eq!(plan.cells[1].fault, CellFault::SlowMs(250));
        assert_eq!(plan.cells[1].budget.load(Ordering::SeqCst), 2);
        assert_eq!(plan.conns.len(), 2);
        assert_eq!(plan.conns[0].fault, ConnFault::Drop);
        assert_eq!(plan.conns[0].budget.load(Ordering::SeqCst), 4);
        assert_eq!(plan.conns[1].budget.load(Ordering::SeqCst), 1);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ,  ").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "panic_cell",
            "panic_cell:x",
            "slow_cell:1",
            "slow_cell:1:abc",
            "panic_cell:1:2:3",
            "lose_lease",
            "lose_lease:x",
            "lose_lease:1:2:3",
            "meteor_strike:7",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn lose_lease_fires_per_matching_grant_within_budget() {
        let plan = FaultPlan::parse("lose_lease:2:2").unwrap();
        assert!(!plan.is_empty());
        assert!(!plan.on_lease(0), "non-matching cell is untouched");
        assert!(plan.on_lease(2));
        assert!(plan.on_lease(2));
        assert!(!plan.on_lease(2), "budget exhausted");
        let single = FaultPlan::parse("lose_lease:5").unwrap();
        assert!(single.on_lease(5));
        assert!(!single.on_lease(5), "default budget is one");
    }

    #[test]
    fn budgets_are_consumed_exactly() {
        let plan = FaultPlan::parse("drop_conn:2").unwrap();
        assert_eq!(plan.on_conn(), Some(ConnFault::Drop));
        assert_eq!(plan.on_conn(), Some(ConnFault::Drop));
        assert_eq!(plan.on_conn(), None, "budget exhausted");
    }

    #[test]
    fn cell_panic_fires_once_with_the_injection_message() {
        let plan = FaultPlan::parse("panic_cell:3").unwrap();
        assert_eq!(plan.on_cell(2), None, "no match, no fault");
        let fault = plan.on_cell(3).expect("matching grant gets the fault");
        let err = std::panic::catch_unwind(|| fault.fire(3)).expect_err("injected panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "injected fault: panic_cell 3");
        assert_eq!(
            plan.on_cell(3),
            None,
            "budget spent: a second grant is clean"
        );
    }

    #[test]
    fn slow_cell_sleeps_without_failing() {
        let plan = FaultPlan::parse("slow_cell:0:1").unwrap();
        let fault = plan.on_cell(0).expect("matching grant gets the fault");
        let before = std::time::Instant::now();
        fault.fire(0);
        assert!(before.elapsed() >= Duration::from_millis(1));
        assert_eq!(plan.on_cell(0), None, "budget spent: no second sleep");
    }
}
