//! One [`ExperimentSpec`] constructor per figure/table binary and example.
//!
//! Binaries stay thin: parse CLI knobs, call the constructor here, run the
//! spec, format the report, persist the artifact. The CI smoke test
//! (`tests/spec_smoke.rs`) runs every constructor end-to-end on the small
//! test chip, so the full spec surface is exercised even when the binaries
//! themselves only build.

use crate::analysis::{
    LatencyCapacitySpec, MissCurvesSpec, PlacementAlternativesSpec, PlannerRuntimeSpec,
};
use crate::exp::{BaseConfig, ExperimentSpec, GridSpec, MixEntry, SpecKind};
use cdcs_core::policy::CdcsPlanner;
use cdcs_sim::runner::CellRun;
use cdcs_sim::{ConfigPatch, MonitorKind, MoveScheme, Scheme, ThreadSched};
use cdcs_workload::{EventScript, MixSpec, TimedEvent, WorkloadEvent};

/// The paper's five schemes in figure order.
pub fn all_schemes() -> Vec<Scheme> {
    vec![
        Scheme::SNuca,
        Scheme::rnuca(),
        Scheme::jigsaw_clustered(),
        Scheme::jigsaw_random(),
        Scheme::cdcs(),
    ]
}

/// `mixes` random single-threaded mixes of `apps` apps each.
fn st_mixes(mixes: usize, apps: usize) -> Vec<MixEntry> {
    (0..mixes)
        .map(|m| {
            MixEntry::auto(MixSpec::RandomSingleThreaded {
                count: apps,
                mix_seed: m as u64,
            })
        })
        .collect()
}

/// `mixes` random multi-threaded mixes of `apps` 8-thread apps each.
fn mt_mixes(mixes: usize, apps: usize) -> Vec<MixEntry> {
    (0..mixes)
        .map(|m| {
            MixEntry::auto(MixSpec::RandomMultiThreaded {
                count: apps,
                mix_seed: m as u64,
            })
        })
        .collect()
}

/// Fig. 11: every scheme over `mixes` fully-committed `apps`-app mixes —
/// weighted speedups, latencies, traffic, and energy.
pub fn fig11(mixes: usize, apps: usize) -> ExperimentSpec {
    ExperimentSpec::grid(
        "fig11",
        GridSpec::new(BaseConfig::Target, all_schemes(), st_mixes(mixes, apps)),
    )
}

/// Fig. 12: factor analysis — Jigsaw+R, +L, +T, +D, and full CDCS, over a
/// mix set per apps count in `apps_points`.
pub fn fig12(mixes: usize, apps_points: &[usize]) -> ExperimentSpec {
    let variants = vec![
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
    let mixes = apps_points
        .iter()
        .flat_map(|&apps| st_mixes(mixes, apps))
        .collect();
    ExperimentSpec::grid("fig12", GridSpec::new(BaseConfig::Target, variants, mixes))
}

/// Fig. 13: under-committed systems — every scheme over mixes of each size
/// in `apps_points`.
pub fn fig13(mixes: usize, apps_points: &[usize]) -> ExperimentSpec {
    let mixes = apps_points
        .iter()
        .flat_map(|&apps| st_mixes(mixes, apps))
        .collect();
    ExperimentSpec::grid(
        "fig13",
        GridSpec::new(BaseConfig::Target, all_schemes(), mixes),
    )
}

/// Fig. 14: 4-app mixes (capacity plentiful, latency-aware allocation
/// matters) — weighted speedups and traffic.
pub fn fig14(mixes: usize) -> ExperimentSpec {
    ExperimentSpec::grid(
        "fig14",
        GridSpec::new(BaseConfig::Target, all_schemes(), st_mixes(mixes, 4)),
    )
}

/// Fig. 15: multi-threaded mixes of `apps` 8-thread apps (the paper runs
/// eight: 64 threads).
pub fn fig15(mixes: usize, apps: usize) -> ExperimentSpec {
    ExperimentSpec::grid(
        "fig15",
        GridSpec::new(BaseConfig::Target, all_schemes(), mt_mixes(mixes, apps)),
    )
}

/// Fig. 16: under-committed multi-threaded mixes (`apps` 8-thread apps on
/// 64 cores; the paper runs four: 32 threads).
pub fn fig16(mixes: usize, apps: usize) -> ExperimentSpec {
    ExperimentSpec::grid(
        "fig16",
        GridSpec::new(BaseConfig::Target, all_schemes(), mt_mixes(mixes, apps)),
    )
}

/// Fig. 17: aggregate-IPC trace across one reconfiguration under each
/// line-movement scheme (one trace cell per scheme, single wave).
pub fn fig17(apps: usize, pre_intervals: usize, post_intervals: usize) -> ExperimentSpec {
    let patches = [
        MoveScheme::Instant,
        MoveScheme::DemandMove,
        MoveScheme::BulkInvalidate,
    ]
    .into_iter()
    .map(|mv| {
        ConfigPatch::named(mv.name())
            .with_move_scheme(mv)
            .with_interval_cycles(10_000)
            // Force the mid-trace apply.
            .with_reconfig_benefit_factor(0.0)
    })
    .collect();
    let mut grid = GridSpec::new(
        BaseConfig::Target,
        vec![Scheme::cdcs()],
        vec![MixEntry::auto(MixSpec::RandomSingleThreaded {
            count: apps,
            mix_seed: 0,
        })],
    );
    grid.patches = patches;
    grid.run = CellRun::Trace {
        pre_intervals,
        post_intervals,
    };
    grid.weighted_speedup = false;
    // One big cell per move scheme: bank-sharded intra-cell parallelism is
    // the only way this experiment uses >1 core (results bit-identical).
    grid.auto_intra_cell = true;
    ExperimentSpec::grid("fig17", grid)
}

/// Fig. 18: CDCS weighted speedup vs reconfiguration period under each
/// line-movement scheme (periods × movers as the patch axis — one wave).
pub fn fig18(mixes: usize, apps: usize, periods: &[u64]) -> ExperimentSpec {
    let patches = periods
        .iter()
        .flat_map(|&period| {
            [
                MoveScheme::BulkInvalidate,
                MoveScheme::DemandMove,
                MoveScheme::Instant,
            ]
            .into_iter()
            .map(move |mv| {
                ConfigPatch::named(format!("{}@{period}", mv.name()))
                    .with_move_scheme(mv)
                    .with_epoch_cycles(period)
            })
        })
        .collect();
    let mut grid = GridSpec::new(
        BaseConfig::Target,
        vec![Scheme::cdcs()],
        st_mixes(mixes, apps),
    );
    grid.patches = patches;
    ExperimentSpec::grid("fig18", grid)
}

/// Table 1 / Fig. 1: the §II-B case study — four schemes vs S-NUCA on the
/// 36-tile chip.
pub fn table1() -> ExperimentSpec {
    ExperimentSpec::grid(
        "table1",
        GridSpec::new(
            BaseConfig::CaseStudy,
            all_schemes(),
            vec![MixEntry::auto(MixSpec::CaseStudy)],
        ),
    )
}

/// §VI-C bank-granularity ablation: CDCS with 64 KB vs whole-bank
/// allocation granularity.
pub fn coarse_grain(mixes: usize, apps: usize) -> ExperimentSpec {
    let mut grid = GridSpec::new(
        BaseConfig::Target,
        vec![Scheme::cdcs()],
        st_mixes(mixes, apps),
    );
    grid.patches = vec![
        ConfigPatch::named("fine (64KB)").with_alloc_granularity(1024),
        ConfigPatch::named("coarse (full banks)").with_alloc_granularity(8192),
    ];
    ExperimentSpec::grid("coarse_grain", grid)
}

/// §VI-C monitor ablation: CDCS under GMONs and UMONs of several
/// resolutions.
pub fn gmon_ablation(mixes: usize, apps: usize) -> ExperimentSpec {
    let kinds = [
        ("GMON-64w", MonitorKind::Gmon { ways: 64 }),
        ("UMON-64w", MonitorKind::Umon { ways: 64 }),
        ("UMON-256w", MonitorKind::Umon { ways: 256 }),
        ("UMON-1024w", MonitorKind::Umon { ways: 1024 }),
    ];
    let mut grid = GridSpec::new(
        BaseConfig::Target,
        vec![Scheme::cdcs()],
        st_mixes(mixes, apps),
    );
    grid.patches = kinds
        .into_iter()
        .map(|(label, kind)| ConfigPatch::named(label).with_monitor_kind(kind))
        .collect();
    ExperimentSpec::grid("gmon_ablation", grid)
}

/// Fig. 2: exact vs GMON-measured miss curves of omnet, milc, and ilbdc.
pub fn fig2(accesses: usize) -> ExperimentSpec {
    ExperimentSpec {
        name: "fig2".into(),
        kind: SpecKind::MissCurves(MissCurvesSpec {
            apps: vec!["omnet".into(), "milc".into(), "ilbdc".into()],
            accesses,
            mb_steps: 16,
            mb_per_step: 0.25,
        }),
    }
}

/// Fig. 5: the analytic latency-vs-capacity sweet spot.
pub fn fig5() -> ExperimentSpec {
    ExperimentSpec {
        name: "fig5".into(),
        kind: SpecKind::LatencyCapacity(LatencyCapacitySpec {
            side: 8,
            mem_latency: 150.0,
            // An omnet-flavoured miss curve: cliff at 2.5 MB.
            curve: vec![
                (0.0, 100.0),
                (38_000.0, 85.0),
                (41_000.0, 5.0),
                (60_000.0, 3.0),
            ],
            accesses: 100.0,
            steps: 32,
            lines_per_step: 2048.0,
        }),
    }
}

/// Table 3: planner-step runtimes at 16/16, 16/64, and 64/64
/// threads/cores.
pub fn table3(repeats: usize) -> ExperimentSpec {
    ExperimentSpec {
        name: "table3".into(),
        kind: SpecKind::PlannerRuntime(PlannerRuntimeSpec {
            configs: vec![(16, 4), (16, 8), (64, 8)],
            repeats,
        }),
    }
}

/// §VI-C placement-alternative ablation (exhaustive / SA / bisection).
pub fn placement_ablation(
    small_seeds: usize,
    large_seeds: usize,
    sa_rounds: usize,
) -> ExperimentSpec {
    ExperimentSpec {
        name: "placement_ablation".into(),
        kind: SpecKind::PlacementAlternatives(PlacementAlternativesSpec {
            small_seeds: (0..small_seeds as u64).collect(),
            small_size: (4, 3),
            large_seeds: (0..large_seeds as u64).collect(),
            large_size: (36, 6),
            sa_rounds,
        }),
    }
}

/// `examples/quickstart`: a four-app mix under S-NUCA and CDCS.
pub fn quickstart() -> ExperimentSpec {
    ExperimentSpec::grid(
        "quickstart",
        GridSpec::new(
            BaseConfig::Target,
            vec![Scheme::SNuca, Scheme::cdcs()],
            vec![MixEntry::auto(MixSpec::Named(vec![
                "omnet".into(),
                "milc".into(),
                "xalancbmk".into(),
                "calculix".into(),
            ]))],
        ),
    )
}

/// `examples/case_study`: the §II-B case study with per-app speedups.
pub fn case_study() -> ExperimentSpec {
    let mut grid = GridSpec::new(
        BaseConfig::CaseStudy,
        all_schemes(),
        vec![MixEntry::auto(MixSpec::CaseStudy)],
    );
    // The headline cells run one at a time on a wide chip; bank-sharding
    // each cell puts otherwise-idle cores to work (bit-identical results).
    grid.auto_intra_cell = true;
    ExperimentSpec::grid("case_study", grid)
}

/// `examples/multithreaded_mix`: one private-heavy plus three shared-heavy
/// multi-threaded apps.
pub fn multithreaded_mix() -> ExperimentSpec {
    ExperimentSpec::grid(
        "multithreaded_mix",
        GridSpec::new(
            BaseConfig::Target,
            vec![
                Scheme::jigsaw_clustered(),
                Scheme::jigsaw_random(),
                Scheme::cdcs(),
            ],
            vec![MixEntry::auto(MixSpec::Named(vec![
                "mgrid".into(),
                "md".into(),
                "ilbdc".into(),
                "nab".into(),
            ]))],
        ),
    )
}

/// `examples/under_committed`: four apps on the 64-core chip.
pub fn under_committed() -> ExperimentSpec {
    ExperimentSpec::grid(
        "under_committed",
        GridSpec::new(
            BaseConfig::Target,
            vec![Scheme::SNuca, Scheme::jigsaw_random(), Scheme::cdcs()],
            vec![MixEntry::auto(MixSpec::RandomSingleThreaded {
                count: 4,
                mix_seed: 7,
            })],
        ),
    )
}

/// `bin/mega_mesh`: the ISSUE 7 mega-mesh scaling scenario — S-NUCA and
/// CDCS on a 256-tile chip (1024 via `--tiles 1024`), flat planning vs the
/// hierarchical planner with incremental warm starts.
///
/// Region side 2 keeps the hierarchical cells multi-region at *every* scale
/// this spec runs at — including the 4×4 chip the `--small` CI smoke
/// rebases onto (4 regions there, 64 at 256 tiles, 256 at 1024) — so the
/// smoke gate genuinely exercises region assignment, per-region solves and
/// the warm-start path, not the one-region flat delegation.
pub fn mega_mesh(mixes: usize, apps: usize) -> ExperimentSpec {
    let mut grid = GridSpec::new(
        BaseConfig::Mega256,
        vec![Scheme::SNuca, Scheme::cdcs()],
        st_mixes(mixes, apps),
    );
    grid.patches = vec![
        ConfigPatch::named("flat"),
        ConfigPatch::named("hier-r2")
            .with_hier_region_side(2)
            .with_hier_change_threshold(0.02),
    ];
    // Mega cells are enormous; bank-shard each one across the idle cores.
    grid.auto_intra_cell = true;
    ExperimentSpec::grid("mega_mesh", grid)
}

/// `bin/dynamic_mix`: an event script end to end — a two-app base
/// mix whose script arrives a third app, bursts, idles, and departs,
/// under S-NUCA and CDCS.
///
/// Epochs and event times are pinned in the patch so the committed spec,
/// the CI `--small` smoke, and a full run all execute the *same* scenario
/// (3 × 150k-cycle epochs; every event fires inside the run window —
/// a rebased-but-unpinned smoke would end before the first event).
pub fn dynamic_mix() -> ExperimentSpec {
    let script = EventScript {
        events: vec![
            TimedEvent {
                at_cycle: 60_000,
                event: WorkloadEvent::Arrival {
                    app: "omnet".into(),
                },
            },
            TimedEvent {
                at_cycle: 120_000,
                event: WorkloadEvent::RateBurst {
                    process: 1,
                    scale: 3.0,
                    duration: 90_000,
                },
            },
            TimedEvent {
                at_cycle: 210_000,
                event: WorkloadEvent::IdleGap {
                    process: 0,
                    duration: 45_000,
                },
            },
            TimedEvent {
                at_cycle: 300_000,
                event: WorkloadEvent::Departure { process: 1 },
            },
        ],
    };
    let mut grid = GridSpec::new(
        BaseConfig::SmallTest,
        vec![Scheme::SNuca, Scheme::cdcs()],
        vec![MixEntry::auto(MixSpec::Named(vec![
            "calculix".into(),
            "milc".into(),
        ]))],
    );
    // Alone/baseline cells would run the same patch on one-process rosters
    // the script's indices don't fit; the dynamic scenario reports raw
    // per-thread results instead.
    grid.weighted_speedup = false;
    grid.patches = vec![ConfigPatch::named("dynamic")
        .with_events(script)
        .with_epoch_cycles(150_000)
        .with_interval_cycles(15_000)
        .with_warmup_epochs(1)
        .with_measure_epochs(2)];
    ExperimentSpec::grid("dynamic_mix", grid)
}

/// `bin/trace_replay`: trace replay — the committed
/// `specs/traces/calculix_milc` recording run through S-NUCA and CDCS.
///
/// The fixture is recorded by `crates/sim/tests/events.rs`
/// (`CDCS_WRITE_TRACES=1`) under this exact pinned config with S-NUCA, so
/// the S-NUCA replay cell reproduces the recording run bit-exactly; the
/// CDCS cell replays the same logs under a different organization (the
/// record-mode cushion absorbs its different draw count).
pub fn trace_replay() -> ExperimentSpec {
    let mut grid = GridSpec::new(
        BaseConfig::SmallTest,
        vec![Scheme::SNuca, Scheme::cdcs()],
        vec![MixEntry::auto(MixSpec::Named(vec![
            "calculix".into(),
            "milc".into(),
        ]))],
    );
    // Alone runs replay the same two-thread trace; weighted speedup over
    // them would be meaningless.
    grid.weighted_speedup = false;
    grid.patches = vec![ConfigPatch::named("replay")
        .with_trace_replay("specs/traces/calculix_milc/index.json")
        .with_epoch_cycles(60_000)
        .with_interval_cycles(15_000)
        .with_warmup_epochs(1)
        .with_measure_epochs(1)];
    ExperimentSpec::grid("trace_replay", grid)
}

/// Every spec constructor at smoke-test scale, for the CI end-to-end gate.
/// Grid specs are rebased onto the small test chip by the caller.
pub fn all_smoke_specs() -> Vec<ExperimentSpec> {
    vec![
        fig11(1, 2),
        fig12(1, &[2]),
        fig13(1, &[1, 2]),
        fig14(1),
        fig15(1, 1),
        fig16(1, 1),
        fig17(2, 4, 3),
        fig18(1, 2, &[500_000]),
        table1(),
        coarse_grain(1, 2),
        gmon_ablation(1, 2),
        fig2(5_000),
        fig5(),
        table3(1),
        placement_ablation(1, 1, 40),
        quickstart(),
        case_study(),
        multithreaded_mix(),
        under_committed(),
        mega_mesh(1, 2),
        dynamic_mix(),
        trace_replay(),
    ]
}
