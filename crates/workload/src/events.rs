//! Timestamped workload events: dynamic scenarios over a base mix.
//!
//! A mix on its own is stationary — processes run at a fixed rate from
//! cycle 0 to the end of the run. The event layer removes that
//! restriction: an [`EventScript`] is a list of [`TimedEvent`]s that the
//! simulator's run loop (`SimConfig::events` in `cdcs-sim`) applies at
//! interval boundaries — apps arrive, burst, idle, change phase, and
//! depart mid-run, and partitioned schemes track them through the ordinary
//! reconfiguration path.
//!
//! Everything is deterministic: a script is plain serializable data, and the
//! seeded [`EventScript::generate`] derives a random scenario from its seed
//! alone, so two runs of the same `(config, mix, script)` triple are
//! byte-identical.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One dynamic-workload event. Process indices refer to the *roster*: the
/// base mix's processes in order, followed by one process per
/// [`WorkloadEvent::Arrival`] in time-sorted order (the order
/// [`EventScript::sorted`] yields them, i.e. the order they activate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadEvent {
    /// Permanently scales a process's access intensity (a program-phase
    /// transition: the working set stays, the rate changes).
    PhaseChange {
        /// Roster index of the affected process.
        process: usize,
        /// Multiplier applied to the process's APKI (> 0, finite).
        apki_scale: f64,
    },
    /// Temporarily scales a process's access rate for `duration` cycles,
    /// then restores it.
    RateBurst {
        /// Roster index of the affected process.
        process: usize,
        /// Rate multiplier while the burst lasts (> 0, finite).
        scale: f64,
        /// Burst length in cycles.
        duration: u64,
    },
    /// The process issues no accesses and retires no instructions for
    /// `duration` cycles (blocked on I/O, a barrier, a sleep).
    IdleGap {
        /// Roster index of the affected process.
        process: usize,
        /// Gap length in cycles.
        duration: u64,
    },
    /// A new process (one roster slot, appended in time-sorted order)
    /// starts running. Its threads, VCs, and monitors exist from construction —
    /// cores and virtual caches are provisioned for the full roster — but
    /// it issues nothing until this event fires.
    Arrival {
        /// Suite profile name (`cdcs_workload::spec::by_name`).
        app: String,
    },
    /// The process stops issuing accesses for the rest of the run.
    Departure {
        /// Roster index of the departing process.
        process: usize,
    },
}

impl Default for WorkloadEvent {
    /// A zero-length idle gap on process 0 — a no-op, the lenient-parse
    /// fallback for `#[serde(default)]` fields.
    fn default() -> Self {
        WorkloadEvent::IdleGap {
            process: 0,
            duration: 0,
        }
    }
}

/// A [`WorkloadEvent`] pinned to an absolute cycle. The engine applies it
/// at the first interval boundary at or after `at_cycle`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Absolute cycle the event becomes due.
    #[serde(default)]
    pub at_cycle: u64,
    /// What happens.
    #[serde(default)]
    pub event: WorkloadEvent,
}

/// A dynamic scenario: timestamped events over a base mix. An empty script
/// is the steady-state workload: every gate of the run loop stays a no-op.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventScript {
    /// The events, in any order; the run loop applies them sorted by
    /// `at_cycle` (ties keep script order).
    #[serde(default)]
    pub events: Vec<TimedEvent>,
}

impl EventScript {
    /// The steady-rate script: no events.
    pub fn steady() -> Self {
        EventScript::default()
    }

    /// Whether the script changes anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The arrival app names, in raw script order. Roster slots are
    /// assigned in *time-sorted* order (see [`Self::sorted`]); this is a
    /// listing helper, not the slot assignment.
    pub fn arrivals(&self) -> impl Iterator<Item = &str> {
        self.events.iter().filter_map(|e| match &e.event {
            WorkloadEvent::Arrival { app } => Some(app.as_str()),
            _ => None,
        })
    }

    /// The events sorted by due cycle, ties in script order (the order the
    /// engine applies them).
    pub fn sorted(&self) -> Vec<TimedEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at_cycle);
        events
    }

    /// Validates the script against a roster of `processes` processes
    /// (base mix + arrivals).
    ///
    /// # Errors
    ///
    /// Returns a message for out-of-range process indices or degenerate
    /// scales.
    pub fn validate(&self, processes: usize) -> Result<(), String> {
        let scale_ok = |s: f64| s > 0.0 && s.is_finite();
        for (i, e) in self.events.iter().enumerate() {
            let process = match &e.event {
                WorkloadEvent::PhaseChange {
                    process,
                    apki_scale,
                } => {
                    if !scale_ok(*apki_scale) {
                        return Err(format!("event {i}: apki_scale must be positive and finite"));
                    }
                    *process
                }
                WorkloadEvent::RateBurst { process, scale, .. } => {
                    if !scale_ok(*scale) {
                        return Err(format!(
                            "event {i}: burst scale must be positive and finite"
                        ));
                    }
                    *process
                }
                WorkloadEvent::IdleGap { process, .. } | WorkloadEvent::Departure { process } => {
                    *process
                }
                WorkloadEvent::Arrival { .. } => continue,
            };
            if process >= processes {
                return Err(format!(
                    "event {i}: process {process} out of range (roster has {processes})"
                ));
            }
        }
        Ok(())
    }

    /// Generates a seeded random scenario over `processes` base processes
    /// within `horizon` cycles: each process gets one to three
    /// burst/idle/phase events at random times. Deterministic in
    /// `(seed, horizon, processes)`.
    pub fn generate(seed: u64, horizon: u64, processes: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x4456_4e54_5f45_5645); // "EV_ENT"
        let horizon = horizon.max(16);
        let mut events = Vec::new();
        for process in 0..processes {
            let n = rng.gen_range(1..=3usize);
            for _ in 0..n {
                let at_cycle = rng.gen_range(0..horizon);
                let event = match rng.gen_range(0..3u32) {
                    0 => WorkloadEvent::RateBurst {
                        process,
                        scale: rng.gen_range(0.5..4.0),
                        duration: rng.gen_range(horizon / 16..horizon / 4).max(1),
                    },
                    1 => WorkloadEvent::IdleGap {
                        process,
                        duration: rng.gen_range(horizon / 16..horizon / 8).max(1),
                    },
                    _ => WorkloadEvent::PhaseChange {
                        process,
                        apki_scale: rng.gen_range(0.5..2.0),
                    },
                };
                events.push(TimedEvent { at_cycle, event });
            }
        }
        EventScript { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_script_is_empty() {
        assert!(EventScript::steady().is_empty());
        assert_eq!(EventScript::steady(), EventScript::default());
    }

    #[test]
    fn sorted_is_stable_on_ties() {
        let script = EventScript {
            events: vec![
                TimedEvent {
                    at_cycle: 100,
                    event: WorkloadEvent::Departure { process: 1 },
                },
                TimedEvent {
                    at_cycle: 50,
                    event: WorkloadEvent::IdleGap {
                        process: 0,
                        duration: 10,
                    },
                },
                TimedEvent {
                    at_cycle: 100,
                    event: WorkloadEvent::Departure { process: 0 },
                },
            ],
        };
        let sorted = script.sorted();
        assert_eq!(sorted[0].at_cycle, 50);
        assert_eq!(
            sorted[1].event,
            WorkloadEvent::Departure { process: 1 },
            "ties keep script order"
        );
        assert_eq!(sorted[2].event, WorkloadEvent::Departure { process: 0 });
    }

    #[test]
    fn arrivals_list_in_script_order() {
        let script = EventScript {
            events: vec![
                TimedEvent {
                    at_cycle: 9,
                    event: WorkloadEvent::Arrival { app: "b".into() },
                },
                TimedEvent {
                    at_cycle: 3,
                    event: WorkloadEvent::Arrival { app: "a".into() },
                },
            ],
        };
        // Raw script order — a listing helper; roster slots use sorted order.
        let apps: Vec<&str> = script.arrivals().collect();
        assert_eq!(apps, ["b", "a"]);
    }

    #[test]
    fn validate_checks_indices_and_scales() {
        let script = EventScript {
            events: vec![TimedEvent {
                at_cycle: 0,
                event: WorkloadEvent::Departure { process: 2 },
            }],
        };
        assert!(script.validate(3).is_ok());
        assert!(script.validate(2).unwrap_err().contains("out of range"));
        let script = EventScript {
            events: vec![TimedEvent {
                at_cycle: 0,
                event: WorkloadEvent::RateBurst {
                    process: 0,
                    scale: 0.0,
                    duration: 5,
                },
            }],
        };
        assert!(script.validate(1).unwrap_err().contains("positive"));
        let script = EventScript {
            events: vec![TimedEvent {
                at_cycle: 0,
                event: WorkloadEvent::PhaseChange {
                    process: 0,
                    apki_scale: f64::NAN,
                },
            }],
        };
        assert!(script.validate(1).is_err());
    }

    #[test]
    fn generator_is_deterministic_and_in_range() {
        let a = EventScript::generate(7, 1_000_000, 3);
        let b = EventScript::generate(7, 1_000_000, 3);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.validate(3).is_ok());
        for e in &a.events {
            assert!(e.at_cycle < 1_000_000);
        }
        let c = EventScript::generate(8, 1_000_000, 3);
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn scripts_round_trip_through_json() {
        let script = EventScript::generate(3, 500_000, 2);
        let json = serde_json::to_string(&script).unwrap();
        let back: EventScript = serde_json::from_str(&json).unwrap();
        assert_eq!(back, script);
        // Lenient parse: an empty document is the steady script.
        let empty: EventScript = serde_json::from_str("{}").unwrap();
        assert!(empty.is_empty());
    }
}
