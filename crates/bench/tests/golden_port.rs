//! Golden port tests: the spec-API paths must be *numerically identical* to
//! the pre-redesign `run_mixes` / `run_trace` paths.
//!
//! Every simulation seeds from `(config, cell)` alone, so porting the
//! binaries onto `ExperimentSpec` cannot change a single bit of any result
//! — these tests pin that for the two paths the redesign touched most:
//! fig12 (factor-analysis sweep through one grid wave) and fig17 (trace
//! cells through the same wave).

use cdcs_bench::exp::{BaseConfig, SpecKind};
use cdcs_bench::{run_mixes, specs, st_mix};
use cdcs_core::policy::CdcsPlanner;
use cdcs_sim::{MoveScheme, Scheme, SimConfig, Simulation, ThreadSched};

#[test]
fn fig12_spec_path_matches_legacy_run_mixes_exactly() {
    let mixes = 2usize;
    let apps = 2usize;

    // New path: the fig12 spec rebased onto the small test chip.
    let mut spec = specs::fig12(mixes, &[apps]);
    spec.set_base(BaseConfig::SmallTest);
    let report = spec.run().unwrap();
    let grid = report.grid();

    // Legacy path: exactly what the pre-redesign fig12 binary ran.
    let config = SimConfig::small_test();
    let variants: Vec<Scheme> = vec![
        Scheme::jigsaw_random(),
        Scheme::Cdcs {
            planner: CdcsPlanner::with_features(true, false, false),
            sched: ThreadSched::Random,
        },
        Scheme::Cdcs {
            planner: CdcsPlanner::with_features(false, true, false),
            sched: ThreadSched::Random,
        },
        Scheme::Cdcs {
            planner: CdcsPlanner::with_features(false, false, true),
            sched: ThreadSched::Random,
        },
        Scheme::cdcs(),
    ];
    let all_mixes: Vec<_> = (0..mixes).map(|m| st_mix(apps, m)).collect();
    let legacy = run_mixes(&config, &all_mixes, &variants);

    assert_eq!(grid.groups.len(), legacy.len());
    for (group, outcome) in grid.groups.iter().zip(&legacy) {
        assert_eq!(group.rows.len(), outcome.runs.len());
        for (row, (name, ws, result)) in group.rows.iter().zip(&outcome.runs) {
            assert_eq!(&row.scheme, name);
            // Bit-exact weighted speedup and full result identity.
            assert_eq!(row.weighted_speedup.unwrap(), *ws, "{name} WS diverged");
            assert_eq!(grid.result(row), result, "{name} SimResult diverged");
        }
    }
}

#[test]
fn fig17_spec_path_matches_legacy_run_trace_exactly() {
    let apps = 2usize;
    let (pre, post) = (6usize, 4usize);

    let mut spec = specs::fig17(apps, pre, post);
    spec.set_base(BaseConfig::SmallTest);
    if let SpecKind::Grid(grid) = &mut spec.kind {
        // Pin the legacy comparison to an in-thread drain; results are
        // bit-identical for every worker count anyway (engine equivalence
        // tests), but the golden diff should not depend on that.
        grid.auto_intra_cell = false;
    }
    let report = spec.run().unwrap();
    let grid = report.grid();
    assert_eq!(grid.groups.len(), 3, "one group per move scheme");

    let mix = st_mix(apps, 0);
    for (group, mv) in grid.groups.iter().zip([
        MoveScheme::Instant,
        MoveScheme::DemandMove,
        MoveScheme::BulkInvalidate,
    ]) {
        assert_eq!(group.patch, mv.name());
        // Legacy path: exactly what the pre-redesign fig17 binary ran.
        let config = SimConfig {
            scheme: Scheme::cdcs(),
            move_scheme: mv,
            interval_cycles: 10_000,
            reconfig_benefit_factor: 0.0,
            ..SimConfig::small_test()
        };
        let legacy = Simulation::new(config, mix.clone())
            .unwrap()
            .run_trace(pre, post);
        let ported = grid.result(&group.rows[0]);
        assert_eq!(ported, &legacy, "{} trace diverged", mv.name());
        assert_eq!(ported.ipc_trace, legacy.ipc_trace);
    }
}
