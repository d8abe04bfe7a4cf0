//! Golden tests for event scripts and trace record/replay.
//!
//! Two bit-exactness pins:
//!
//! 1. **Record → replay** — a run recorded with `trace_record` and
//!    replayed from the trace alone (`trace_replay`, same config)
//!    reproduces the original [`SimResult`] bit-exactly: the cursor yields
//!    the recorded draws in order, so every downstream structure sees the
//!    identical access sequence.
//! 2. **Dynamic determinism** — a full scenario (arrival + burst + idle +
//!    departure) is a pure function of the spec: two runs serialize to the
//!    same bytes.
//!
//! The rest pin what each [`WorkloadEvent`] does to the run.
//!
//! The `CDCS_WRITE_TRACES=1` test at the bottom regenerates the committed
//! `specs/traces/calculix_milc` fixture that `specs::trace_replay()` (and
//! the CI dynamic smoke) replays.

use cdcs_sim::{Scheme, SimConfig, SimResult, Simulation};
use cdcs_workload::{EventScript, MixSpec, TimedEvent, WorkloadEvent, WorkloadMix};

fn mix(names: &[&str]) -> WorkloadMix {
    WorkloadMix::from_spec(&MixSpec::Named(
        names.iter().map(|s| s.to_string()).collect(),
    ))
    .expect("known app names")
}

fn run(config: SimConfig, names: &[&str]) -> SimResult {
    Simulation::new(config, mix(names)).expect("sim").run()
}

/// The committed trace fixture's recording config: `SimConfig::small_test`
/// shortened to the epochs `specs::trace_replay()` pins in its patch.
fn fixture_config() -> SimConfig {
    let mut config = SimConfig::small_test();
    config.epoch_cycles = 60_000;
    config.interval_cycles = 15_000;
    config.warmup_epochs = 1;
    config.measure_epochs = 1;
    config.scheme = Scheme::SNuca;
    config
}

const FIXTURE_DIR: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../specs/traces/calculix_milc"
);

#[test]
fn record_then_replay_reproduces_the_run_bit_exactly() {
    let dir = std::env::temp_dir().join(format!("cdcs-trace-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    for scheme in [Scheme::SNuca, Scheme::cdcs()] {
        let mut record = SimConfig::small_test();
        record.scheme = scheme;
        record.warmup_epochs = 1;
        record.measure_epochs = 2;
        record.trace_record = dir.to_string_lossy().into_owned();
        let mut replay = record.clone();
        replay.trace_record = String::new();
        replay.trace_replay = dir.join("index.json").to_string_lossy().into_owned();

        // Recording is a passive tap: the run itself is unchanged.
        let recorded = run(record, &["calculix", "milc"]);
        // The replay takes its mix from the trace index; the mix argument
        // here is deliberately different to prove it is ignored.
        let replayed = Simulation::new(replay, mix(&["omnet"]))
            .expect("replay sim")
            .run();
        assert_eq!(
            recorded,
            replayed,
            "replay from the trace alone diverged: {}",
            scheme.name()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn dynamic_script() -> EventScript {
    EventScript {
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
    }
}

fn dynamic_config(scheme: Scheme) -> SimConfig {
    let mut config = SimConfig::small_test();
    config.scheme = scheme;
    config.events = dynamic_script();
    config.epoch_cycles = 150_000;
    config.interval_cycles = 15_000;
    config.warmup_epochs = 1;
    config.measure_epochs = 2;
    config
}

#[test]
fn dynamic_scenario_is_deterministic_from_the_spec_alone() {
    for scheme in [Scheme::SNuca, Scheme::cdcs()] {
        let a = run(dynamic_config(scheme), &["calculix", "milc"]);
        let b = run(dynamic_config(scheme), &["calculix", "milc"]);
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "two runs of the same scenario differ (byte-level)");
    }
}

#[test]
fn arrivals_extend_the_roster_and_start_inactive() {
    let result = run(dynamic_config(Scheme::cdcs()), &["calculix", "milc"]);
    // Base mix has 2 single-threaded processes; the scripted omnet arrival
    // is a third roster slot.
    assert_eq!(result.threads.len(), 3);
    let arrived = &result.threads[2];
    assert_eq!(arrived.app, "omnet");
    // Arrival at 60k, warmup ends at 150k: the thread is live for the whole
    // measured window and retires instructions.
    assert!(arrived.instructions > 0.0, "arrived thread never ran");
}

#[test]
fn departure_stops_a_thread_for_good() {
    // Depart process 1 during warmup: it must retire nothing measured.
    let mut config = SimConfig::small_test();
    config.scheme = Scheme::cdcs();
    config.warmup_epochs = 1;
    config.measure_epochs = 2;
    config.events = EventScript {
        events: vec![TimedEvent {
            at_cycle: 0,
            event: WorkloadEvent::Departure { process: 1 },
        }],
    };
    let result = run(config, &["calculix", "milc"]);
    let departed = &result.threads[1];
    assert_eq!(departed.instructions, 0.0);
    assert_eq!(departed.cycles, 0.0);
    assert!(result.threads[0].instructions > 0.0);
}

#[test]
fn idle_gaps_cost_cycles_not_instructions() {
    let steady = {
        let mut config = SimConfig::small_test();
        config.scheme = Scheme::SNuca;
        run(config, &["calculix", "milc"])
    };
    let idled = {
        let mut config = SimConfig::small_test();
        config.scheme = Scheme::SNuca;
        // Idle process 0 for two full measured epochs' worth of cycles.
        config.events = EventScript {
            events: vec![TimedEvent {
                at_cycle: 0,
                event: WorkloadEvent::IdleGap {
                    process: 0,
                    duration: u64::MAX / 2,
                },
            }],
        };
        run(config, &["calculix", "milc"])
    };
    let (s0, i0) = (&steady.threads[0], &idled.threads[0]);
    assert_eq!(s0.cycles, i0.cycles, "idle gaps still accrue cycles");
    assert_eq!(i0.instructions, 0.0, "idle threads retire nothing");
    assert!(s0.instructions > 0.0);
}

#[test]
fn rate_bursts_raise_a_processes_access_rate() {
    let burst = {
        let mut config = SimConfig::small_test();
        config.scheme = Scheme::SNuca;
        config.events = EventScript {
            events: vec![TimedEvent {
                at_cycle: 0,
                event: WorkloadEvent::RateBurst {
                    process: 0,
                    scale: 4.0,
                    duration: u64::MAX / 2,
                },
            }],
        };
        run(config, &["calculix", "milc"])
    };
    let steady = {
        let mut config = SimConfig::small_test();
        config.scheme = Scheme::SNuca;
        run(config, &["calculix", "milc"])
    };
    assert!(
        burst.threads[0].accesses > steady.threads[0].accesses,
        "a 4x burst must draw more accesses ({} vs {})",
        burst.threads[0].accesses,
        steady.threads[0].accesses
    );
    // The co-runner is untouched by the other process's burst budget.
    assert_eq!(burst.threads[1].app, steady.threads[1].app);
}

#[test]
fn phase_changes_scale_apki_permanently() {
    let phase = {
        let mut config = SimConfig::small_test();
        config.scheme = Scheme::SNuca;
        config.events = EventScript {
            events: vec![TimedEvent {
                at_cycle: 0,
                event: WorkloadEvent::PhaseChange {
                    process: 0,
                    apki_scale: 3.0,
                },
            }],
        };
        run(config, &["calculix", "milc"])
    };
    let steady = {
        let mut config = SimConfig::small_test();
        config.scheme = Scheme::SNuca;
        run(config, &["calculix", "milc"])
    };
    assert!(phase.threads[0].accesses > steady.threads[0].accesses);
}

/// Maintenance hook, not a check: `CDCS_WRITE_TRACES=1 cargo test -p
/// cdcs-sim --test events` rewrites the committed replay fixture from the
/// pinned recording config (the next test then verifies the result).
#[test]
fn regenerate_committed_trace_fixture_when_asked() {
    if std::env::var("CDCS_WRITE_TRACES").is_err() {
        return;
    }
    std::fs::remove_dir_all(FIXTURE_DIR).ok();
    let mut config = fixture_config();
    config.trace_record = FIXTURE_DIR.to_string();
    run(config, &["calculix", "milc"]);
}

#[test]
fn committed_trace_fixture_matches_its_recording_config() {
    let mut record = fixture_config();
    let dir = std::env::temp_dir().join(format!("cdcs-trace-fixture-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    record.trace_record = dir.to_string_lossy().into_owned();
    let recorded = run(record, &["calculix", "milc"]);

    // The committed fixture replays to the exact same result (so the
    // fixture is in lockstep with the recording config above — regenerate
    // with `CDCS_WRITE_TRACES=1`).
    let mut replay = fixture_config();
    replay.trace_replay = format!("{FIXTURE_DIR}/index.json");
    let replayed = Simulation::new(replay, mix(&["calculix", "milc"]))
        .expect("committed fixture loads")
        .run();
    assert_eq!(
        recorded, replayed,
        "specs/traces/calculix_milc drifted from its recording config"
    );
    std::fs::remove_dir_all(&dir).ok();
}
