//! End-to-end simulation-engine benchmarks: the bank-grouped interval
//! pipeline (in-thread and with 2 workers) and the one-access-at-a-time
//! reference oracle, on the same small S-NUCA / CDCS cells the experiment
//! binaries sweep thousands of times — plus a 1-cell case-study run where
//! intra-cell workers are the only available parallelism.
//!
//! The `simulation/*` rows continue the series recorded in the repo-root
//! trajectory files: they previously lived in the `llc` bench (committed as
//! `BENCH_llc.json`) and now feed `BENCH_sim.json` via `scripts/bench.sh`.
//! Keep the construction inside `iter` — the baselines were measured that
//! way, so the rows stay comparable across commits. `simulation/*` runs
//! the pipeline in-thread, `simulation_sharded/*` the same small cells on
//! 2 workers, and `scripts/check_bench_regression.sh` bounds both groups'
//! ratio to `simulation_reference/*`. `simulation_case_study/*` records
//! the in-thread-vs-workers wall clock on one big cell (the intra-cell win
//! the fan-out exists for); it is informational, not gated — absolute
//! medians are machine-dependent.

use cdcs_sim::{Scheme, SimConfig, Simulation};
use cdcs_workload::{EventScript, MixSpec, WorkloadMix};
use criterion::{criterion_group, criterion_main, Criterion};

fn run_cell(scheme: Scheme, reference: bool, intra_cell_threads: usize) -> cdcs_sim::SimResult {
    let mut config = SimConfig::small_test();
    config.scheme = scheme;
    config.warmup_epochs = 1;
    config.measure_epochs = 1;
    config.intra_cell_threads = intra_cell_threads;
    let mix = WorkloadMix::from_spec(&MixSpec::Named(vec!["calculix".into(), "milc".into()]))
        .expect("mix");
    let sim = Simulation::new(config, mix).expect("sim");
    if reference {
        sim.with_reference_oracle().run()
    } else {
        sim.run()
    }
}

/// One §II-B case-study cell (36 tiles, 36 threads), shortened to one
/// warm-up + one measured epoch so the bench stays CI-sized.
fn run_case_study_cell(intra_cell_threads: usize) -> cdcs_sim::SimResult {
    let mut config = SimConfig::case_study();
    config.scheme = Scheme::cdcs();
    config.warmup_epochs = 1;
    config.measure_epochs = 1;
    config.intra_cell_threads = intra_cell_threads;
    let mix = WorkloadMix::from_spec(&MixSpec::CaseStudy).expect("mix");
    Simulation::new(config, mix).expect("sim").run()
}

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    for scheme in [Scheme::SNuca, Scheme::cdcs()] {
        group.bench_function(scheme.name(), |b| b.iter(|| run_cell(scheme, false, 0)));
    }
    group.finish();
}

fn bench_sharded(c: &mut Criterion) {
    // The pipeline on the same small cells with 2 workers. Small cells sit
    // below the fan-out threshold, so this drains in-thread too; the row
    // exists so the ratio to the reference is gated like the in-thread one.
    let mut group = c.benchmark_group("simulation_sharded");
    group.sample_size(10);
    for scheme in [Scheme::SNuca, Scheme::cdcs()] {
        group.bench_function(scheme.name(), |b| b.iter(|| run_cell(scheme, false, 2)));
    }
    group.finish();
}

fn bench_reference(c: &mut Criterion) {
    // The definitional per-access oracle, kept for the equivalence golden
    // test: benchmarked so the pipeline's advantage stays visible in the
    // trajectory file.
    let mut group = c.benchmark_group("simulation_reference");
    group.sample_size(10);
    for scheme in [Scheme::SNuca, Scheme::cdcs()] {
        group.bench_function(scheme.name(), |b| b.iter(|| run_cell(scheme, true, 0)));
    }
    group.finish();
}

/// Event scripts on the same small CDCS cell: `steady` is an empty script —
/// the very cell `simulation/CDCS` runs, which
/// `scripts/check_bench_regression.sh` bounds it against — and `bursty`
/// runs a seeded generated script so event application itself stays on
/// the trajectory.
fn run_event_cell(events: EventScript) -> cdcs_sim::SimResult {
    let mut config = SimConfig::small_test();
    config.scheme = Scheme::cdcs();
    config.warmup_epochs = 1;
    config.measure_epochs = 1;
    config.events = events;
    let mix = WorkloadMix::from_spec(&MixSpec::Named(vec!["calculix".into(), "milc".into()]))
        .expect("mix");
    Simulation::new(config, mix).expect("sim").run()
}

fn bench_event(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_event");
    group.sample_size(10);
    group.bench_function("steady", |b| {
        b.iter(|| run_event_cell(EventScript::steady()))
    });
    // Two epochs of the small config = 1M cycles of horizon; seed fixed so
    // the script (and thus the row) is identical on every machine.
    let bursty = EventScript::generate(7, 1_000_000, 2);
    group.bench_function("bursty", |b| b.iter(|| run_event_cell(bursty.clone())));
    group.finish();
}

fn bench_case_study(c: &mut Criterion) {
    // Where workers pay: one big cell — the pipeline with the default
    // worker count (0) and with 1 worker (both in-thread, no spawns: the
    // best configuration on single-core boxes), and with 4 workers.
    let mut group = c.benchmark_group("simulation_case_study");
    group.sample_size(10);
    group.bench_function("CDCS-serial", |b| b.iter(|| run_case_study_cell(0)));
    group.bench_function("CDCS-sharded1", |b| b.iter(|| run_case_study_cell(1)));
    group.bench_function("CDCS-sharded4", |b| b.iter(|| run_case_study_cell(4)));
    group.finish();
}

criterion_group!(
    benches,
    bench_sim,
    bench_sharded,
    bench_reference,
    bench_event,
    bench_case_study
);
criterion_main!(benches);
