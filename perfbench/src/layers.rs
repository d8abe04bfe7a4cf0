//! Standalone layer probes for the traced mode.
//!
//! Each probe times one layer's public API on the workload's own inputs —
//! its chip configuration and the apps of its first mix. They time a
//! layer's code, not that layer's share inside a simulation run.

use crate::stats::median;
use cdcs_cache::monitor::{Gmon, GmonConfig, Monitor};
use cdcs_cache::{Line, LruPool, MissCurve};
use cdcs_core::policy::CdcsPlanner;
use cdcs_core::{
    Placement, PlacementProblem, PlanScratch, SystemParams, ThreadInfo, VcInfo, VcKind,
};
use cdcs_mesh::{DistanceTables, MemCtrlPlacement, Mesh, PortDistanceTables, TileId};
use cdcs_sim::SimConfig;
use cdcs_workload::{AccessStream, AppProfile, StreamTarget, WorkloadMix};
use std::hint::black_box;
use std::time::Instant;

/// Accesses replayed per probe repetition.
const ACCESSES: usize = 200_000;
/// Repetitions per probe; the median is reported.
const REPEATS: usize = 5;

/// Probe results, each the median over [`REPEATS`].
pub struct Probes {
    pub plan_ms_64t: f64,
    pub plan_ms_16t: f64,
    pub pool_ns: f64,
    pub monitor_ns: f64,
    pub draw_ns: f64,
    pub tables_ms: f64,
}

fn timed_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs every probe for a workload running `mix` on `config`'s chip.
pub fn run(config: &SimConfig, mix: &WorkloadMix) -> Probes {
    let lines = draw_lines(mix, ACCESSES);
    let draw_ns = median(
        (0..REPEATS)
            .map(|_| {
                timed_ms(|| {
                    black_box(draw_lines(mix, ACCESSES));
                }) * 1e6
                    / ACCESSES as f64
            })
            .collect(),
    );
    let pool_ns = median(
        (0..REPEATS)
            .map(|_| {
                let mut pool = LruPool::new(config.bank_lines as usize);
                timed_ms(|| {
                    for &line in &lines {
                        black_box(pool.access_insert(line));
                    }
                }) * 1e6
                    / ACCESSES as f64
            })
            .collect(),
    );
    let monitor_ns = median(
        (0..REPEATS)
            .map(|_| {
                let mut gmon = Gmon::new(GmonConfig::covering(
                    config.monitor_sets,
                    64,
                    config.monitor_sample_period,
                    config.total_lines(),
                ));
                timed_ms(|| {
                    for &line in &lines {
                        gmon.record(line);
                    }
                }) * 1e6
                    / ACCESSES as f64
            })
            .collect(),
    );
    let tables_ms = median(
        (0..REPEATS * 4)
            .map(|_| {
                let ports = MemCtrlPlacement::edges(&config.mesh, config.mem_controllers);
                timed_ms(|| {
                    black_box(DistanceTables::new(&config.mesh, config.noc));
                    black_box(PortDistanceTables::new(
                        &config.mesh,
                        config.noc,
                        ports.ports(),
                    ));
                })
            })
            .collect(),
    );
    Probes {
        plan_ms_64t: plan_ms(mix, 8, config.bank_lines),
        plan_ms_16t: plan_ms(mix, 4, config.bank_lines),
        pool_ns,
        monitor_ns,
        draw_ns,
        tables_ms,
    }
}

/// Draws `n` accesses round-robin over every thread of `mix`, as the
/// engine's streams would, and hashes each into a line address (private
/// lines per thread, shared lines per process).
fn draw_lines(mix: &WorkloadMix, n: usize) -> Vec<Line> {
    let mut streams: Vec<(usize, usize, AccessStream)> = Vec::new();
    for (p, app) in mix.processes().iter().enumerate() {
        for t in 0..app.threads {
            streams.push((
                p,
                t,
                AccessStream::for_thread(app, t, mix.stream_seed(p, t)),
            ));
        }
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let k = i % streams.len();
        let (p, t, stream) = &mut streams[k];
        let (target, offset) = stream.next_access();
        let owner = match target {
            StreamTarget::ThreadPrivate => (*p as u64) << 40 | (*t as u64) << 32,
            StreamTarget::ProcessShared => (*p as u64) << 40 | 0xFFFF_u64 << 24,
            StreamTarget::Global => 0xFFFF_u64 << 40,
        };
        out.push(Line(owner ^ offset));
    }
    out
}

/// `CdcsPlanner::plan_into` on a `side × side` chip with one private VC
/// per thread, threads drawn from `mix`'s apps (cycled to fill the chip),
/// each VC's miss curve falling off at its app's private footprint.
fn plan_ms(mix: &WorkloadMix, side: u16, bank_lines: u64) -> f64 {
    let threads = usize::from(side) * usize::from(side);
    let apps: Vec<&AppProfile> = mix.processes().iter().collect();
    let params = SystemParams::default_for_mesh(Mesh::square(side), bank_lines);
    let vcs = (0..threads)
        .map(|i| {
            let app = apps[i % apps.len()];
            let rate = 1000.0 * app.apki;
            let footprint = app.private_footprint_lines() as f64;
            VcInfo::new(
                i as u32,
                VcKind::thread_private(i as u32),
                MissCurve::new(vec![(0.0, rate), (footprint.max(1.0), rate * 0.02)]),
            )
        })
        .collect();
    let infos = (0..threads)
        .map(|i| {
            ThreadInfo::new(
                i as u32,
                vec![(i as u32, 1000.0 * apps[i % apps.len()].apki)],
            )
        })
        .collect();
    let problem = PlacementProblem::new(params, vcs, infos).expect("placement problem");
    let cores: Vec<TileId> = (0..threads as u16).map(TileId).collect();
    let planner = CdcsPlanner::default();
    let mut scratch = PlanScratch::new();
    let mut out = Placement::default();
    // One warm-up plan sizes the scratch buffers, as in steady state.
    planner.plan_into(&problem, &cores, &mut scratch, &mut out);
    median(
        (0..REPEATS)
            .map(|_| timed_ms(|| planner.plan_into(&problem, &cores, &mut scratch, &mut out)))
            .collect(),
    )
}
