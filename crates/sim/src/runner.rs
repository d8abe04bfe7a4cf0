//! Weighted-speedup methodology (§V) and scheme-comparison helpers.
//!
//! The paper reports weighted speedup over S-NUCA: each process's progress
//! rate is normalized to its *alone* rate, summed across the mix, and the
//! resulting throughput metric is divided by S-NUCA's. Our fixed-work
//! equivalent: every simulation measures the same wall-clock window with
//! stationary workloads, so per-window IPC is the progress rate (FIESTA's
//! sample balancing addresses non-stationarity that synthetic streams do
//! not have).

use crate::config::ConfigPatch;
use crate::session::{clamp_intra_cell, run_cells};
use crate::{Scheme, SimConfig, SimResult, Simulation};
use cdcs_workload::{AppProfile, WorkloadMix};
use serde::{Deserialize, Serialize};

/// How a grid cell drives the simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellRun {
    /// The standard warm-up + measurement window ([`Simulation::run`]).
    #[default]
    Steady,
    /// A Fig. 17-style reconfiguration trace ([`Simulation::run_trace`]):
    /// `pre_intervals` unmeasured intervals, then `post_intervals` measured
    /// ones straddling the mid-trace reconfiguration.
    Trace {
        /// Unmeasured warm-up intervals before the trace window.
        pre_intervals: usize,
        /// Measured intervals (reconfiguration in the middle).
        post_intervals: usize,
    },
}

/// One cell of an experiment grid: a scheme, a mix, and optional per-cell
/// overrides — a seed, a [`ConfigPatch`], and the run mode (deterministic
/// regardless of which worker runs the cell or in what order).
///
/// Wire-safe: a cell (with its config) is everything a remote fleet
/// runner needs to execute it, so the whole struct serializes, and every
/// field is `#[serde(default)]` so version-skewed peers parse leniently
/// (the golden-coupling lint pins this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    /// NUCA scheme to simulate.
    #[serde(default)]
    pub scheme: Scheme,
    /// Workload to run.
    #[serde(default)]
    pub mix: WorkloadMix,
    /// Overrides `config.seed` for this cell when set.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Config overrides applied before the scheme/seed for this cell,
    /// letting one grid wave span config axes (granularity, monitors,
    /// movement machinery, epoch length, ...).
    #[serde(default)]
    pub patch: Option<ConfigPatch>,
    /// Steady-state measurement or a reconfiguration trace.
    #[serde(default)]
    pub run: CellRun,
}

impl GridCell {
    /// A cell running `mix` under `scheme` with the sweep config's seed.
    pub fn new(scheme: Scheme, mix: WorkloadMix) -> Self {
        GridCell {
            scheme,
            mix,
            seed: None,
            patch: None,
            run: CellRun::Steady,
        }
    }

    /// Pins this cell to an explicit seed (for `scheme × mix × seed` fans).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Applies `patch` to this cell's config (for config-axis fans).
    #[must_use]
    pub fn with_patch(mut self, patch: ConfigPatch) -> Self {
        self.patch = Some(patch);
        self
    }

    /// Switches this cell to a reconfiguration trace run.
    #[must_use]
    pub fn with_run(mut self, run: CellRun) -> Self {
        self.run = run;
        self
    }
}

/// Runs one grid cell: `config` with the cell's patch, scheme, and seed
/// applied, driven in the cell's run mode.
///
/// Public because it is the fleet execution seam: a `cdcs-serve` runner
/// receives `(config, cell)` in a lease and must run it exactly as
/// [`run_grid`]'s pool would — same entry point, bit-identical result.
///
/// # Errors
///
/// Returns simulation construction errors.
pub fn run_cell(config: &SimConfig, cell: &GridCell) -> Result<SimResult, String> {
    let mut cfg = config.clone();
    if let Some(patch) = &cell.patch {
        patch.apply(&mut cfg);
    }
    cfg.scheme = cell.scheme;
    if let Some(seed) = cell.seed {
        cfg.seed = seed;
    }
    let sim = Simulation::new(cfg, cell.mix.clone())?;
    Ok(match cell.run {
        CellRun::Steady => sim.run(),
        CellRun::Trace {
            pre_intervals,
            post_intervals,
        } => sim.run_trace(pre_intervals, post_intervals),
    })
}

/// Runs every cell of an experiment grid across all cores.
///
/// Cells are claimed one at a time by a pool of scoped workers (simulation
/// cost varies widely between schemes and mixes, so static partitioning
/// would leave cores idle). Every cell derives its RNG state from
/// `(config, cell)` alone — never from worker identity or execution
/// order — so the results are identical to [`run_grid_serial`]
/// cell-for-cell, byte-for-byte (the equivalence tests assert this).
/// With one worker available (`RAYON_NUM_THREADS=1`, or a one-cell grid)
/// the cells run on the calling thread.
///
/// When `config.intra_cell_threads` asks for intra-cell workers too, the
/// inner worker count is clamped so that
/// `outer × inner` never exceeds the machine: wide grids keep cell-level
/// parallelism (the better-scaling axis) and shed inner workers; a 1-cell
/// "grid" keeps its full intra-cell fan-out (see [`clamp_intra_cell`]).
/// The clamp cannot change any result — the pipeline is bit-identical for
/// every worker count.
///
/// # Errors
///
/// Every cell runs to completion; the first error in *cell* order (a
/// construction error, or a panic caught as `cell {i} panicked: …`) is
/// returned.
pub fn run_grid(config: &SimConfig, cells: &[GridCell]) -> Result<Vec<SimResult>, String> {
    let outer = rayon::current_num_threads().min(cells.len().max(1));
    run_cells(&clamp_intra_cell(config, outer), cells, outer)
        .into_iter()
        .collect()
}

/// Serial reference for [`run_grid`]: same cells, same order, one core,
/// with no pool clamp applied to `config.intra_cell_threads`.
///
/// # Errors
///
/// Returns the first cell's error, if any.
pub fn run_grid_serial(config: &SimConfig, cells: &[GridCell]) -> Result<Vec<SimResult>, String> {
    run_cells(config, cells, 1).into_iter().collect()
}

/// Runs one process alone on the chip under S-NUCA and returns its
/// performance (sum of thread IPCs — the alone-IPC denominator of weighted
/// speedup).
///
/// # Errors
///
/// Propagates simulation construction errors.
pub fn alone_perf(config: &SimConfig, app: &AppProfile) -> Result<f64, String> {
    let mut cfg = config.clone();
    cfg.scheme = Scheme::SNuca;
    let mix = WorkloadMix::new(vec![app.clone()], cfg.seed);
    let result = Simulation::new(cfg, mix)?.run();
    Ok(result.process_perf()[0])
}

/// Alone performance for every process of a mix (cached by name — identical
/// profiles share one alone run). The unique apps' alone runs fan out over
/// [`run_grid`], so an n-app mix costs one parallel wave instead of n
/// serial simulations; values are identical to running [`alone_perf`] per
/// process.
///
/// # Errors
///
/// Propagates simulation construction errors.
pub fn alone_perf_for_mix(config: &SimConfig, mix: &WorkloadMix) -> Result<Vec<f64>, String> {
    // Unique apps in first-appearance order.
    let mut names: Vec<&str> = Vec::new();
    let mut unique: Vec<&AppProfile> = Vec::new();
    for app in mix.processes() {
        if !names.contains(&app.name.as_str()) {
            names.push(&app.name);
            unique.push(app);
        }
    }
    let cells: Vec<GridCell> = unique
        .iter()
        .map(|app| {
            GridCell::new(
                Scheme::SNuca,
                WorkloadMix::new(vec![(*app).clone()], config.seed),
            )
        })
        .collect();
    let results = run_grid(config, &cells)?;
    let perf: Vec<f64> = results.iter().map(|r| r.process_perf()[0]).collect();
    Ok(mix
        .processes()
        .iter()
        .map(|app| {
            let i = names
                .iter()
                .position(|&n| n == app.name)
                .expect("app seen above");
            perf[i]
        })
        .collect())
}

/// Raw weighted speedup of a result against per-process alone performance:
/// `Σ_p perf_p / alone_p` (not yet normalized to S-NUCA).
///
/// # Panics
///
/// Panics if `alone` length mismatches the result's process count or any
/// alone perf is non-positive.
pub fn raw_weighted_speedup(result: &SimResult, alone: &[f64]) -> f64 {
    let perf = result.process_perf();
    assert_eq!(perf.len(), alone.len(), "one alone perf per process");
    perf.iter()
        .zip(alone)
        .map(|(&p, &a)| {
            assert!(a > 0.0, "alone perf must be positive");
            p / a
        })
        .sum()
}

/// Weighted speedup of `result` over `baseline` (the paper's y-axis:
/// "weighted speedup vs S-NUCA").
pub fn weighted_speedup_vs(result: &SimResult, baseline: &SimResult, alone: &[f64]) -> f64 {
    raw_weighted_speedup(result, alone) / raw_weighted_speedup(baseline, alone)
}

/// Runs `mix` under `scheme`, reusing `config` for everything else.
///
/// # Errors
///
/// Propagates simulation construction errors.
pub fn run_scheme(
    config: &SimConfig,
    mix: &WorkloadMix,
    scheme: Scheme,
) -> Result<SimResult, String> {
    let mut cfg = config.clone();
    cfg.scheme = scheme;
    Ok(Simulation::new(cfg, mix.clone())?.run())
}

/// Geometric mean.
///
/// # Panics
///
/// Panics on an empty slice or non-positive entries.
pub fn gmean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "gmean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "gmean needs positive values");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdcs_workload::MixSpec;

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_zero() {
        gmean(&[1.0, 0.0]);
    }

    #[test]
    fn weighted_speedup_of_baseline_is_one() {
        let config = SimConfig::small_test();
        let mix = WorkloadMix::from_spec(&MixSpec::Named(vec!["calculix".into(), "milc".into()]))
            .unwrap();
        let alone = alone_perf_for_mix(&config, &mix).unwrap();
        let snuca = run_scheme(&config, &mix, Scheme::SNuca).unwrap();
        let ws = weighted_speedup_vs(&snuca, &snuca, &alone);
        assert!((ws - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alone_cache_reuses_runs() {
        let config = SimConfig::small_test();
        let mix = WorkloadMix::from_spec(&MixSpec::Named(vec![
            "milc".into(),
            "milc".into(),
            "milc".into(),
        ]))
        .unwrap();
        let alone = alone_perf_for_mix(&config, &mix).unwrap();
        assert_eq!(alone.len(), 3);
        assert_eq!(alone[0], alone[1]);
        assert_eq!(alone[1], alone[2]);
    }

    #[test]
    fn alone_perf_is_positive() {
        let config = SimConfig::small_test();
        let app = cdcs_workload::spec::by_name("calculix").unwrap();
        let p = alone_perf(&config, app).unwrap();
        assert!(p > 0.1, "alone perf {p}");
    }

    #[test]
    fn grid_matches_serial_cell_for_cell() {
        let config = SimConfig::small_test();
        let mixes = [
            WorkloadMix::from_spec(&MixSpec::Named(vec!["calculix".into(), "milc".into()]))
                .unwrap(),
            WorkloadMix::from_spec(&MixSpec::Named(vec!["bzip2".into(), "omnet".into()])).unwrap(),
        ];
        let mut cells = Vec::new();
        for mix in &mixes {
            for scheme in [Scheme::SNuca, Scheme::cdcs()] {
                cells.push(GridCell::new(scheme, mix.clone()));
            }
        }
        cells.push(GridCell::new(Scheme::SNuca, mixes[0].clone()).with_seed(99));
        // Force the multi-worker path even on single-core runners so the
        // fan-out machinery (not just its serial fallback) is what's
        // tested; the pool scopes the count to this closure, not the
        // process.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        let parallel = pool.install(|| run_grid(&config, &cells)).unwrap();
        let serial = run_grid_serial(&config, &cells).unwrap();
        assert_eq!(parallel.len(), cells.len());
        for (i, (p, s)) in parallel.iter().zip(&serial).enumerate() {
            assert_eq!(p, s, "cell {i} diverged between parallel and serial");
        }
        // The seed override must actually change the cell's stream.
        assert_ne!(
            parallel[0].system.instructions,
            parallel[4].system.instructions
        );
    }

    #[test]
    fn parallel_alone_perf_matches_per_process_runs() {
        let config = SimConfig::small_test();
        let mix = WorkloadMix::from_spec(&MixSpec::Named(vec![
            "calculix".into(),
            "milc".into(),
            "calculix".into(),
        ]))
        .unwrap();
        let fast = alone_perf_for_mix(&config, &mix).unwrap();
        let slow: Vec<f64> = mix
            .processes()
            .iter()
            .map(|app| alone_perf(&config, app).unwrap())
            .collect();
        assert_eq!(fast, slow);
    }

    #[test]
    fn patched_cells_match_patched_configs() {
        let config = SimConfig::small_test();
        let mix = WorkloadMix::from_spec(&MixSpec::Named(vec!["calculix".into(), "milc".into()]))
            .unwrap();
        let patch = ConfigPatch::named("coarse").with_alloc_granularity(config.bank_lines);
        let cells = [
            GridCell::new(Scheme::cdcs(), mix.clone()),
            GridCell::new(Scheme::cdcs(), mix.clone()).with_patch(patch.clone()),
        ];
        let results = run_grid(&config, &cells).unwrap();
        // The patched cell equals running the mutated config directly...
        let mut coarse_cfg = config.clone();
        patch.apply(&mut coarse_cfg);
        let direct = run_scheme(&coarse_cfg, &mix, Scheme::cdcs()).unwrap();
        assert_eq!(results[1], direct);
        // ...and differs from the unpatched cell (the knob is load-bearing).
        assert_ne!(results[0], results[1]);
    }

    #[test]
    fn trace_cells_match_run_trace() {
        let mut config = SimConfig::small_test();
        config.reconfig_benefit_factor = 0.0;
        let mix =
            WorkloadMix::from_spec(&MixSpec::Named(vec!["omnet".into(), "milc".into()])).unwrap();
        let cell = GridCell::new(Scheme::cdcs(), mix.clone()).with_run(CellRun::Trace {
            pre_intervals: 10,
            post_intervals: 5,
        });
        let via_grid = run_grid(&config, std::slice::from_ref(&cell)).unwrap();
        let mut cfg = config.clone();
        cfg.scheme = Scheme::cdcs();
        let direct = Simulation::new(cfg, mix).unwrap().run_trace(10, 5);
        assert_eq!(via_grid[0], direct);
        assert_eq!(via_grid[0].ipc_trace.len(), 5);
    }

    #[test]
    fn grid_propagates_construction_errors() {
        let mut config = SimConfig::small_test();
        config.bank_lines = 0; // invalid
        let mix = WorkloadMix::from_spec(&MixSpec::Named(vec!["milc".into()])).unwrap();
        assert!(run_grid(&config, &[GridCell::new(Scheme::SNuca, mix)]).is_err());
    }
}
