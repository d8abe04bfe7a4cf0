//! The grid pool: `run_grid` on a real multi-worker pool returns what the
//! serial reference returns — cell for cell, errors included. (Claim
//! order, requeue and cancellation of served cells belong to the daemon's
//! `Job`: see `crates/serve/tests/session.rs`.)

use cdcs_sim::runner::{run_grid, run_grid_serial, GridCell};
use cdcs_sim::{ConfigPatch, Scheme, SimConfig};
use cdcs_workload::{MixSpec, WorkloadMix};

fn mix(names: &[&str]) -> WorkloadMix {
    WorkloadMix::from_spec(&MixSpec::Named(
        names.iter().map(|s| s.to_string()).collect(),
    ))
    .expect("mix")
}

fn five_cells() -> Vec<GridCell> {
    let mixes = [mix(&["calculix", "milc"]), mix(&["bzip2", "omnet"])];
    let mut cells = Vec::new();
    for m in &mixes {
        for scheme in [Scheme::SNuca, Scheme::cdcs()] {
            cells.push(GridCell::new(scheme, m.clone()));
        }
    }
    cells.push(GridCell::new(Scheme::SNuca, mixes[0].clone()).with_seed(99));
    cells
}

/// Three workers even on a one-core machine: the claim counter and the
/// reassembly into cell order are what's under test.
fn three_workers() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(3)
        .build()
        .expect("pool")
}

#[test]
fn streamed_results_match_serial_reference() {
    let config = SimConfig::small_test();
    let cells = five_cells();
    let serial = run_grid_serial(&config, &cells).expect("serial grid");
    let pooled = three_workers()
        .install(|| run_grid(&config, &cells))
        .expect("pooled grid");
    assert_eq!(pooled.len(), cells.len());
    for (i, (p, s)) in pooled.iter().zip(&serial).enumerate() {
        assert_eq!(p, s, "cell {i} diverged from the serial reference");
    }
}

#[test]
fn empty_session_finishes_immediately() {
    let config = SimConfig::small_test();
    let empty = three_workers()
        .install(|| run_grid(&config, &[]))
        .expect("empty grid");
    assert!(empty.is_empty());
}

#[test]
fn construction_errors_stream_per_cell() {
    // Two bad cells among good ones: every cell runs, and the reported
    // error is the first in cell order, never the first to finish.
    let config = SimConfig::small_test();
    let mut cells = five_cells();
    cells[1] = cells[1]
        .clone()
        .with_patch(ConfigPatch::named("no-granularity").with_alloc_granularity(0));
    cells[3] = cells[3]
        .clone()
        .with_patch(ConfigPatch::named("no-measure").with_measure_epochs(0));
    let serial = run_grid_serial(&config, &cells).expect_err("cell 1 is invalid");
    let pooled = three_workers()
        .install(|| run_grid(&config, &cells))
        .expect_err("cell 1 is invalid");
    assert_eq!(pooled, serial);
    assert_eq!(pooled, "allocation granularity must be non-zero");
}
