//! Golden test: the batched, bank-grouped interval pipeline produces
//! **bit-identical** results to the one-access-at-a-time reference oracle
//! (`Simulation::with_reference_oracle`), for every worker count.
//!
//! The pipeline reorders *work* — each interval's stream draws are
//! generated as one batch per thread, accesses are routed and grouped by
//! home bank, distances come from precomputed tables — but must not reorder
//! *effects*: every bank, monitor and accumulator (LLC, memory model,
//! controller interleave, traffic counters) sees the exact access sequence
//! the oracle issues. `SimResult` derives `PartialEq` over every counter,
//! trace point and f64 accumulator, so equality here is exact, not
//! approximate.

use cdcs_sim::{MoveScheme, Scheme, SimConfig, SimResult, Simulation};
use cdcs_workload::{MixSpec, WorkloadMix};

fn mix(names: &[&str]) -> WorkloadMix {
    WorkloadMix::from_spec(&MixSpec::Named(
        names.iter().map(|s| s.to_string()).collect(),
    ))
    .expect("known app names")
}

/// A simulation of `names` under `config`, on the oracle when `reference`.
fn sim(config: &SimConfig, names: &[&str], reference: bool) -> Simulation {
    let sim = Simulation::new(config.clone(), mix(names)).expect("sim");
    if reference {
        sim.with_reference_oracle()
    } else {
        sim
    }
}

fn assert_paths_equal(config: &SimConfig, names: &[&str], what: &str) {
    let reference = sim(config, names, true).run();
    let pipeline = sim(config, names, false).run();
    assert_eq!(reference, pipeline, "pipeline diverged: {what}");
}

/// ≥3 schemes × 2 mixes, bit-for-bit. The mixes cover single-threaded
/// private-only streams and a multi-threaded app with a shared VC (so the
/// Global/ProcessShared generation paths and shared-VC monitor interleaving
/// are exercised too).
#[test]
fn batched_engine_matches_reference_across_schemes_and_mixes() {
    let mixes: [&[&str]; 2] = [
        &["calculix", "milc"],
        &["omnet", "xalancbmk", "bzip2", "ilbdc"],
    ];
    let schemes = [
        Scheme::SNuca,
        Scheme::rnuca(),
        Scheme::jigsaw_random(),
        Scheme::cdcs(),
    ];
    for names in mixes {
        for scheme in schemes {
            let mut config = SimConfig::small_test();
            config.scheme = scheme;
            assert_paths_equal(&config, names, &format!("{} / {names:?}", scheme.name()));
        }
    }
}

/// The movement machinery variants drive the shadow-window / detour code in
/// the bank shards and the reduce; pin those too.
#[test]
fn batched_engine_matches_reference_across_move_schemes() {
    for move_scheme in [
        MoveScheme::Instant,
        MoveScheme::BulkInvalidate,
        MoveScheme::DemandMove,
    ] {
        let mut config = SimConfig::small_test();
        config.scheme = Scheme::cdcs();
        config.move_scheme = move_scheme;
        // Apply every planned placement so reconfigurations (and their
        // demand moves / bulk pauses) actually happen in the window.
        config.reconfig_benefit_factor = 0.0;
        assert_paths_equal(
            &config,
            &["omnet", "milc", "calculix"],
            &format!("{move_scheme:?}"),
        );
    }
}

/// `run_trace` drives intervals without epoch logic (the Fig. 17 harness);
/// it must agree as well.
#[test]
fn batched_engine_matches_reference_on_traces() {
    let trace = |reference: bool| {
        let mut config = SimConfig::small_test();
        config.scheme = Scheme::cdcs();
        sim(&config, &["omnet", "milc"], reference).run_trace(4, 6)
    };
    assert_eq!(trace(true), trace(false), "run_trace diverged");
}

/// A config whose intervals are large enough (≥ the engine's in-thread
/// fall-back threshold, `SHARD_SEQ_THRESHOLD` accesses) that the pipeline
/// really spawns its fan-outs — otherwise multi-worker configs
/// would quietly drain on one worker and the test would prove less than
/// it claims. `assert_forces_fanout` keeps that premise honest.
fn sharded_config(scheme: Scheme) -> SimConfig {
    let mut config = SimConfig::small_test();
    config.scheme = scheme;
    // One long interval per epoch: even the 2-thread mix draws ~20 k+
    // accesses per interval, well past the fan-out threshold. Fewer epochs
    // keep the total work test-sized.
    config.epoch_cycles = 1_500_000;
    config.interval_cycles = 1_500_000;
    config.warmup_epochs = 1;
    config.measure_epochs = 2;
    config.intra_cell_threads = 0;
    config
}

/// Asserts that a run's *average* interval carried comfortably more than
/// the fan-out threshold, so the multi-worker pipeline was genuinely
/// exercised (the access counters accumulate over warm-up and measurement
/// alike, so total accesses / total intervals is the right average).
fn assert_forces_fanout(r: &SimResult, intervals: u64, what: &str) {
    let total: u64 = r.threads.iter().map(|t| t.accesses).sum();
    assert!(
        total / intervals >= 3 * cdcs_sim::SHARD_SEQ_THRESHOLD as u64 / 2,
        "{what}: {} accesses over {intervals} intervals no longer clears the \
         {}-access fan-out threshold with margin — grow the test's intervals",
        total,
        cdcs_sim::SHARD_SEQ_THRESHOLD
    );
}

fn with_workers(config: &SimConfig, intra_cell_threads: usize) -> SimConfig {
    let mut config = config.clone();
    config.intra_cell_threads = intra_cell_threads;
    config
}

/// Golden test for the pipeline's fan-outs: across all 4 schemes × both
/// mixes × both entry points (`run` and `run_trace`) × 1/2/4 workers,
/// results are **bit-identical** to the reference oracle. The partition of
/// work by home bank is fixed by the routes and the reduction replays the
/// oracle's drain order, so the worker count can only change wall clock —
/// this is the test that holds that claim.
#[test]
fn sharded_engine_matches_reference_across_schemes_mixes_and_threads() {
    let mixes: [&[&str]; 2] = [
        &["calculix", "milc"],
        &["omnet", "xalancbmk", "bzip2", "ilbdc"],
    ];
    let schemes = [
        Scheme::SNuca,
        Scheme::rnuca(),
        Scheme::jigsaw_random(),
        Scheme::cdcs(),
    ];
    for names in mixes {
        for scheme in schemes {
            let config = sharded_config(scheme);
            let oracle_run = sim(&config, names, true).run();
            let oracle_trace = sim(&config, names, true).run_trace(1, 3);
            // 3 epochs × 1 interval each under `sharded_config`.
            assert_forces_fanout(&oracle_run, 3, &format!("{} / {names:?}", scheme.name()));
            for threads in [1, 2, 4] {
                let config = with_workers(&config, threads);
                assert_eq!(
                    oracle_run,
                    sim(&config, names, false).run(),
                    "pipeline run diverged: {} / {names:?} / {threads} workers",
                    scheme.name()
                );
                assert_eq!(
                    oracle_trace,
                    sim(&config, names, false).run_trace(1, 3),
                    "pipeline run_trace diverged: {} / {names:?} / {threads} workers",
                    scheme.name()
                );
            }
        }
    }
}

/// Nested parallelism: `run_grid`'s cell-level fan-out with multi-worker
/// cells inside must stay byte-identical to fully serial execution (outer
/// pool of 1, cells drained in-thread). The outer pool clamps the inner
/// count on narrow machines; the clamp must not change results either.
#[test]
fn nested_grid_with_sharded_cells_matches_serial() {
    use cdcs_sim::runner::{run_grid, run_grid_serial, GridCell};

    // Same large-interval config, so the cells' inner fan-outs really
    // spawn (the grid overrides the scheme per cell).
    let mut config = sharded_config(Scheme::SNuca);
    let mut cells = Vec::new();
    for names in [
        &["calculix", "milc"][..],
        &["omnet", "xalancbmk", "bzip2", "ilbdc"][..],
    ] {
        for scheme in [Scheme::SNuca, Scheme::cdcs()] {
            cells.push(GridCell::new(scheme, mix(names)));
        }
    }
    // Serial baseline: no outer fan-out, every cell drained in-thread.
    let mut serial_cfg = config.clone();
    serial_cfg.intra_cell_threads = 0;
    let serial = run_grid_serial(&serial_cfg, &cells).expect("serial grid");
    // Outer pool of 4 workers, 2 pipeline workers inside every cell.
    config.intra_cell_threads = 2;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool");
    let nested = pool.install(|| run_grid(&config, &cells)).expect("grid");
    assert_eq!(nested.len(), serial.len());
    for (i, (n, s)) in nested.iter().zip(&serial).enumerate() {
        assert_eq!(n, s, "cell {i} diverged between nested-parallel and serial");
    }
}
