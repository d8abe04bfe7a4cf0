#![forbid(unsafe_code)]
//! Trace-driven tiled-CMP NUCA simulator for the CDCS reproduction.
//!
//! This crate is the evaluation substrate standing in for the paper's
//! zsim-based execution-driven setup (see `DESIGN.md` §1): a 64-tile CMP
//! (Table 2) simulated at LLC-access granularity with an interval-based core
//! model.
//!
//! * [`SimConfig`] — the modeled system (Table 2 defaults, time-scaled).
//! * [`Scheme`] — which NUCA organization runs: S-NUCA, R-NUCA, Jigsaw+C,
//!   Jigsaw+R, or CDCS (with feature toggles), plus the line-movement
//!   machinery used at reconfigurations ([`MoveScheme`]: instant moves, bulk
//!   invalidations, or demand moves + background invalidations, §IV-H).
//! * [`Simulation`] — the engine: synthetic per-thread access streams drive
//!   partitioned LLC banks through the VTB mapping; per-interval AMAT feeds
//!   back into per-thread IPC; planners reconfigure at epoch boundaries
//!   from GMON-measured miss curves.
//! * [`SimResult`] / [`metrics`] — per-thread and system-level outputs:
//!   IPC, AMAT decomposition (on-chip vs off-chip), traffic breakdown,
//!   energy breakdown — everything the paper's figures plot.
//! * [`runner`] — weighted-speedup methodology helpers: alone-IPC
//!   calibration runs and scheme comparisons normalized to S-NUCA.
//! * [`session`] — the pool under every grid wave: scoped workers claim
//!   cell indices from one atomic counter (the `cdcs-serve` daemon leases
//!   the same cells one by one instead, through [`runner::run_cell`]).
//!
//! # Example: one small mix under two schemes
//!
//! ```
//! use cdcs_sim::{Scheme, SimConfig, Simulation};
//! use cdcs_workload::{MixSpec, WorkloadMix};
//!
//! let mut config = SimConfig::small_test(); // 4x4 chip, short epochs
//! let mix = WorkloadMix::from_spec(&MixSpec::Named(vec![
//!     "omnet".into(), "milc".into(),
//! ])).unwrap();
//! config.scheme = Scheme::SNuca;
//! let snuca = Simulation::new(config.clone(), mix.clone()).unwrap().run();
//! config.scheme = Scheme::cdcs();
//! let cdcs = Simulation::new(config, mix).unwrap().run();
//! // Both simulations ran the same per-thread accounting.
//! assert_eq!(snuca.threads.len(), cdcs.threads.len());
//! ```

mod config;
mod energy;
mod engine;
mod llc;
mod memory;
pub mod metrics;
pub mod runner;
mod scheme;
pub mod session;

pub use config::{ConfigPatch, MonitorKind, SimConfig};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use engine::{SimResult, Simulation, SHARD_SEQ_THRESHOLD};
pub use memory::MemoryModel;
pub use metrics::{SystemMetrics, ThreadMetrics};
pub use scheme::{MoveScheme, Scheme, ThreadSched};
