//! In-process jobs: `ExperimentSpec::run` plus the verified artifact write,
//! exactly the path a figure binary takes — or, traced, the same job split
//! into its steps with a span around each layer call.

use crate::trace::Tracer;
use cdcs_bench::artifact;
use cdcs_bench::exp::{ExperimentReport, ExperimentSpec, ReportData, SpecKind};
use cdcs_mesh::Topology as _;
use cdcs_sim::runner::{CellRun, GridCell};
use cdcs_sim::{SimConfig, SimResult, Simulation};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished job.
pub struct JobRun {
    pub report: ExperimentReport,
    /// The artifact's bytes (what `out/<name>.json` and a served report
    /// hold).
    pub bytes: String,
    /// From the call until the verified artifact is on disk.
    pub wall: Duration,
}

/// Runs `spec` and writes its verified artifact into `dir`. When `tracer`
/// is enabled the job runs step by step under spans tagged `job`.
pub fn run_job(
    spec: &ExperimentSpec,
    dir: &Path,
    tracer: &Tracer,
    job: u64,
) -> Result<JobRun, String> {
    let start = Instant::now();
    let report = if tracer.enabled() {
        run_steps(spec, tracer, job)?
    } else {
        spec.run()?
    };
    let path = tracer.span("bench.artifact", None, job, |_| {
        (artifact::write(&report, dir), 0)
    })?;
    let wall = start.elapsed();
    let bytes =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(JobRun {
        report,
        bytes,
        wall,
    })
}

/// The traced job: `expand`, then every cell's `Simulation::new` + run on
/// the same number of pool workers `run_grid` uses, then `assemble`.
fn run_steps(spec: &ExperimentSpec, tracer: &Tracer, job: u64) -> Result<ExperimentReport, String> {
    let SpecKind::Grid(grid) = &spec.kind else {
        return tracer.span("bench.analysis", None, job, |_| (spec.run(), 0));
    };
    let expanded = tracer.span("bench.expand", None, job, |_| (grid.expand(), 0))?;
    let (config, cells, assembly) = expanded.into_parts();
    let workers = rayon::current_num_threads().min(cells.len()).max(1);
    let config = cdcs_sim::session::clamp_intra_cell(&config, workers);
    let results = tracer.span("sim.grid", None, job, |grid_span| {
        (
            run_cells(&config, &cells, workers, tracer, grid_span, job),
            workers as u64,
        )
    })?;
    let report = tracer.span("bench.assemble", None, job, |_| {
        (assembly.assemble(results), 0)
    });
    Ok(ExperimentReport {
        spec: spec.clone(),
        data: ReportData::Grid(report),
    })
}

/// Claims cells from a shared counter on `workers` threads (the session's
/// scheduling shape) and returns their results in cell order.
fn run_cells(
    config: &SimConfig,
    cells: &[GridCell],
    workers: usize,
    tracer: &Tracer,
    parent: Option<usize>,
    job: u64,
) -> Result<Vec<SimResult>, String> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<SimResult, String>>>> =
        Mutex::new((0..cells.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(cell) = cells.get(i) else { break };
                let result = tracer.span("sim.cell", parent, job, |cell_span| {
                    (run_cell(config, cell, tracer, cell_span, job), i as u64)
                });
                slots.lock().expect("a cell worker panicked")[i] = Some(result);
            });
        }
    });
    slots
        .into_inner()
        .expect("a cell worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every cell claimed"))
        .collect()
}

/// `cdcs_sim::runner::run_cell`, split into its construction and run calls.
fn run_cell(
    config: &SimConfig,
    cell: &GridCell,
    tracer: &Tracer,
    parent: Option<usize>,
    job: u64,
) -> Result<SimResult, String> {
    let mut cfg = config.clone();
    if let Some(patch) = &cell.patch {
        patch.apply(&mut cfg);
    }
    cfg.scheme = cell.scheme;
    if let Some(seed) = cell.seed {
        cfg.seed = seed;
    }
    let tiles = cfg.mesh.num_tiles() as u64;
    let partitioned = cfg.scheme.partitioned();
    let sim = tracer.span("sim.new", parent, job, |_| {
        (Simulation::new(cfg, cell.mix.clone()), tiles)
    })?;
    let name = if partitioned {
        "sim.run.part"
    } else {
        "sim.run.unpart"
    };
    Ok(tracer.span(name, parent, job, |_| {
        let result = match cell.run {
            CellRun::Steady => sim.run(),
            CellRun::Trace {
                pre_intervals,
                post_intervals,
            } => sim.run_trace(pre_intervals, post_intervals),
        };
        let accesses = result.threads.iter().map(|t| t.accesses).sum();
        (result, accesses)
    }))
}
