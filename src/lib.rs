#![forbid(unsafe_code)]
//! # CDCS — Computation and Data Co-Scheduling for Distributed Caches
//!
//! A from-scratch Rust reproduction of [Beckmann, Tsai & Sanchez, *"Scaling
//! Distributed Cache Hierarchies through Computation and Data
//! Co-Scheduling"*, HPCA 2015]: the CDCS algorithms, every substrate they
//! run on, the baselines they are compared against, and a harness that
//! regenerates every table and figure in the paper's evaluation.
//!
//! This crate is a facade that re-exports the workspace:
//!
//! * [`mesh`] (`cdcs-mesh`) — the tiled-CMP fabric: mesh topology, NoC
//!   timing, traffic accounting, memory-controller placement.
//! * [`cache`] (`cdcs-cache`) — partitioned LLC banks, miss curves, and the
//!   paper's geometric monitors (GMONs) plus conventional UMONs.
//! * [`workload`] (`cdcs-workload`) — synthetic SPEC-CPU2006-like and
//!   SPEC-OMP2012-like application models and workload mixes.
//! * [`core`] (`cdcs-core`) — the contribution: latency-aware capacity
//!   allocation, optimistic contention-aware data placement, thread
//!   placement, trade-based refinement, and the S-NUCA/R-NUCA/Jigsaw
//!   baselines.
//! * [`sim`] (`cdcs-sim`) — the trace-driven 64-tile CMP simulator with
//!   incremental reconfiguration (demand moves, background invalidations,
//!   bulk invalidations).
//! * [`bench`] (`cdcs-bench`) — the declarative experiment API: typed
//!   [`bench::exp::ExperimentSpec`]s (schemes × mixes × seeds × config
//!   patches) expanded into one parallel grid wave, with structured
//!   [`bench::exp::ExperimentReport`]s persisted as verified JSON
//!   artifacts under `out/`.
//! * [`serve`] (`cdcs-serve`) — the spec-serving experiment daemon,
//!   client and fleet runner: specs in as JSON over HTTP, cells leased
//!   one at a time to local and remote runners, fairly across concurrent
//!   jobs, reports out byte-equal to the `out/` artifacts.
//!
//! # Quickstart
//!
//! ```
//! use cdcs::sim::{Scheme, SimConfig, Simulation};
//! use cdcs::workload::{MixSpec, WorkloadMix};
//!
//! // A small chip and a two-app mix; compare S-NUCA against CDCS.
//! let mix = WorkloadMix::from_spec(&MixSpec::Named(vec![
//!     "omnet".into(), "milc".into(),
//! ])).unwrap();
//! let mut config = SimConfig::small_test();
//! config.scheme = Scheme::SNuca;
//! let snuca = Simulation::new(config.clone(), mix.clone()).unwrap().run();
//! config.scheme = Scheme::cdcs();
//! let cdcs = Simulation::new(config, mix).unwrap().run();
//! let perf = |r: &cdcs::sim::SimResult| r.threads.iter().map(|t| t.ipc()).sum::<f64>();
//! assert!(perf(&cdcs) > 0.0 && perf(&snuca) > 0.0);
//! ```
//!
//! See `README.md` ("Running experiments") for the experiment harness (one
//! binary per paper figure) and `DESIGN.md` for the reproduction
//! methodology.
//!
//! [Beckmann, Tsai & Sanchez, *"Scaling Distributed Cache Hierarchies
//! through Computation and Data Co-Scheduling"*, HPCA 2015]:
//!     https://people.csail.mit.edu/sanchez/papers/2015.cdcs.hpca.pdf

pub use cdcs_bench as bench;
pub use cdcs_cache as cache;
pub use cdcs_core as core;
pub use cdcs_mesh as mesh;
pub use cdcs_serve as serve;
pub use cdcs_sim as sim;
pub use cdcs_workload as workload;
