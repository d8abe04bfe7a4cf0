//! The pool under every grid wave: [`crate::runner::run_grid`] runs its
//! cells on scoped worker threads that claim cell indices from one
//! atomic counter, so a slow cell never leaves the other workers idle
//! behind a static partition.
//!
//! Determinism does not depend on the pool: every cell derives its RNG
//! state from `(config, cell)` alone — never from worker identity, claim
//! order or completion order — so the collected results are bit-identical
//! to serial execution (the engine-equivalence and golden-port suites pin
//! this through `run_grid`).

use crate::runner::{run_cell, GridCell};
use crate::{SimConfig, SimResult};
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies the nested-clamp rule for a grid executed by `pool_workers`
/// concurrent workers: when the config asks for intra-cell workers too,
/// the inner worker count is clamped so `pool × inner` never exceeds the
/// machine. Cell-level parallelism (the better-scaling axis) keeps
/// priority; a 1-worker pool keeps its full intra-cell fan-out. The clamp
/// cannot change any result — the pipeline is bit-identical for every
/// worker count.
pub fn clamp_intra_cell(config: &SimConfig, pool_workers: usize) -> SimConfig {
    let machine = rayon::current_num_threads();
    let mut cfg = config.clone();
    if cfg.intra_cell_threads > 1 {
        cfg.intra_cell_threads = cfg
            .intra_cell_threads
            .min((machine / pool_workers.max(1)).max(1));
    }
    cfg
}

/// Extracts a human-readable message from a panic payload (`&str` and
/// `String` panics; anything else is labelled as such).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs every cell under `config` on `workers` threads — on the calling
/// thread when `workers <= 1` — and returns one result per cell, in cell
/// order. Every cell runs, whatever an earlier one returned.
pub(crate) fn run_cells(
    config: &SimConfig,
    cells: &[GridCell],
    workers: usize,
) -> Vec<Result<SimResult, String>> {
    let run = |i: usize| catch_cell_panic(i, || run_cell(config, &cells[i]));
    if workers <= 1 {
        return (0..cells.len()).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<SimResult, String>>> =
        (0..cells.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let claimers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= cells.len() {
                            return done;
                        }
                        done.push((i, run(i)));
                    }
                })
            })
            .collect();
        for claimer in claimers {
            for (i, result) in claimer.join().expect("cell panics are caught per cell") {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("the counter hands out every index"))
        .collect()
}

/// Runs one cell body, converting an unwind into that cell's `Err`: a
/// panicking cell fails like a construction error instead of tearing down
/// the pool (and with it every other cell's result).
fn catch_cell_panic(
    index: usize,
    run: impl FnOnce() -> Result<SimResult, String>,
) -> Result<SimResult, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        Err(format!(
            "cell {index} panicked: {}",
            panic_message(payload.as_ref())
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::catch_cell_panic;

    // A panicking cell must become that cell's `Err`, never an unwound
    // worker: the scope would re-raise the panic and lose every other
    // cell's result. (Valid configs cannot currently panic mid-run —
    // `validate` rejects the known traps — so the conversion is pinned
    // here at the mechanism level.)
    #[test]
    fn panics_become_cell_errors_with_their_message() {
        let err = catch_cell_panic(7, || panic!("boom {}", 41 + 1)).expect_err("panic is Err");
        assert_eq!(err, "cell 7 panicked: boom 42");
        let err = catch_cell_panic(3, || panic!("static")).expect_err("panic is Err");
        assert_eq!(err, "cell 3 panicked: static");
    }

    #[test]
    fn non_panicking_results_pass_through_unchanged() {
        let err = catch_cell_panic(0, || Err("plain error".into())).expect_err("Err passes");
        assert_eq!(err, "plain error");
    }
}
