//! The interval-based simulation engine.
//!
//! Time advances in fixed intervals. Each interval, every thread's current
//! IPC estimate sets its instruction and LLC-access budget; accesses from
//! all threads are interleaved round-robin into the LLC (so capacity inside
//! shared structures is contended realistically); the measured average
//! memory access time then updates each thread's IPC for the next interval.
//! This is the classic interval-simulation approach (Sniper-style), which
//! reproduces the feedback the paper's results hinge on: placement →
//! latency → IPC → access rate → bandwidth pressure.
//!
//! At every epoch boundary, partitioned schemes (Jigsaw, CDCS) read their
//! GMONs, build a [`PlacementProblem`], run their planner, and apply the new
//! placement through the §IV-H movement machinery.

use crate::config::SimConfig;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::llc::{lookup_result, Llc, LookupResult, Route};
use crate::memory::MemoryModel;
use crate::metrics::{SystemMetrics, ThreadMetrics};
use crate::scheme::{MoveScheme, Scheme, ThreadSched};
use cdcs_cache::monitor::{Gmon, GmonConfig, Monitor, Umon, UmonConfig};

use cdcs_cache::{BankId, Line, MissCurve};
use cdcs_core::policy::{
    clustered_cores, random_cores, CdcsPlanner, HierarchicalPlanner, JigsawPlanner, RNucaPolicy,
};
use cdcs_core::{
    Placement, PlacementProblem, PlanScratch, SystemParams, ThreadInfo, VcInfo, VcKind,
};
use cdcs_mesh::{
    DistanceTables, MemCtrlPlacement, PortDistanceTables, TileId, Topology, TrafficClass,
};
use cdcs_workload::trace::{write_trace, TraceRecord};
use cdcs_workload::{
    AccessStream, StreamTarget, ThreadSource, TimedEvent, TraceSource, WorkloadEvent, WorkloadMix,
};
use rayon::prelude::*;

/// Per-thread simulation state.
#[derive(Debug)]
struct ThreadState {
    process: usize,
    apki: f64,
    ipc0: f64,
    mlp: f64,
    source: ThreadSource,
    vc_private: u32,
    vc_shared: Option<u32>,
    /// Current IPC estimate (updated each interval).
    ipc: f64,
    /// Fractional access budget carried between intervals.
    carry: f64,
    /// Whether the thread currently runs. Threads of scripted-arrival
    /// processes start inactive; a departure clears it for good. Inactive
    /// threads retire nothing and issue nothing — always `true` without an
    /// event script.
    active: bool,
    /// First cycle the thread may issue again after an
    /// [`WorkloadEvent::IdleGap`] (0 = not idle). Cycles still pass for an
    /// idle thread; instructions do not.
    idle_until: u64,
    /// Access-rate multiplier from an active [`WorkloadEvent::RateBurst`]
    /// (1.0 = steady). Multiplies the effective APKI in the budget and
    /// IPC-feedback formulas; at exactly 1.0 both are bit-identical to the
    /// unscaled computation (IEEE multiplication by 1.0 is exact).
    rate_scale: f64,
    /// Interval accumulators.
    iv_accesses: u64,
    iv_latency: f64,
    /// Epoch access counts per VC class: (private, shared).
    ep_private: f64,
    ep_shared: f64,
    metrics: ThreadMetrics,
}

/// Result of a simulation run.
///
/// `PartialEq` compares every counter and trace point exactly — the
/// parallel-runner equivalence tests assert cell-for-cell identity between
/// [`crate::runner::run_grid`] and serial execution with it, and the
/// experiment-artifact tests assert exact JSON round-trips.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimResult {
    /// Scheme display name.
    pub scheme: String,
    /// Per-thread metrics over the measured window.
    pub threads: Vec<ThreadMetrics>,
    /// Chip-level metrics over the measured window.
    pub system: SystemMetrics,
    /// Energy breakdown over the measured window.
    pub energy: EnergyBreakdown,
    /// Aggregate-IPC trace: one `(end_cycle, aggregate_ipc)` point per
    /// interval of the measured window (used by the Fig. 17 harness).
    pub ipc_trace: Vec<(u64, f64)>,
}

impl SimResult {
    /// Per-process performance: the sum of thread IPCs of each process.
    /// (For multi-threaded apps this aggregate progress rate stands in for
    /// the paper's heartbeat-based ROI progress; see `DESIGN.md` §1.)
    pub fn process_perf(&self) -> Vec<f64> {
        let n = self
            .threads
            .iter()
            .map(|t| t.process)
            .max()
            .map_or(0, |m| m + 1);
        let mut perf = vec![0.0; n];
        for t in &self.threads {
            perf[t.process] += t.ipc();
        }
        perf
    }

    /// Average on-chip (L2↔LLC network) cycles per LLC access across
    /// threads, access-weighted (Fig. 11b's metric).
    pub fn mean_on_chip_latency(&self) -> f64 {
        let (num, den) = self
            .threads
            .iter()
            .fold((0.0, 0u64), |(n, d), t| (n + t.net_cycles, d + t.accesses));
        if den > 0 {
            num / den as f64
        } else {
            0.0
        }
    }

    /// Average off-chip cycles per LLC access (Fig. 11c's metric).
    pub fn mean_off_chip_latency(&self) -> f64 {
        let (num, den) = self
            .threads
            .iter()
            .fold((0.0, 0u64), |(n, d), t| (n + t.mem_cycles, d + t.accesses));
        if den > 0 {
            num / den as f64
        } else {
            0.0
        }
    }
}

/// Reusable per-interval access buffers of the interval pipeline: every
/// thread's interval accesses are generated up front into these flat
/// vectors (grouped by thread, `offsets` delimiting each thread's run),
/// then drained in the same round-robin order the one-at-a-time reference
/// path issues them. Buffers grow to the largest interval seen and are
/// reused for the rest of the simulation.
#[derive(Debug, Default)]
struct AccessBatch {
    /// Per-thread access budgets for the current interval.
    budgets: Vec<u64>,
    /// One packed word per access: the line address (`vc << 40 | offset`,
    /// which also encodes the target VC in bits 40..62) plus the stream
    /// class in bits 62..63. One load per access in the drain loop.
    acc: Vec<u64>,
    /// `offsets[ti]..offsets[ti + 1]` delimit thread `ti`'s accesses.
    offsets: Vec<usize>,
    /// Per-thread drain cursor for the round-robin interleave.
    cursor: Vec<usize>,
    /// Threads with budget left in the current drain segment (id order).
    active: Vec<u32>,
}

/// Mask selecting the line address out of a packed [`AccessBatch`] word.
const ACC_LINE_MASK: u64 = (1 << 62) - 1;

/// Packed-word bit marking a process-shared access (bit 62); bit 63 marks a
/// global access. Offsets stay far below 2^40 and VC ids far below 2^22, so
/// the line address never touches these bits.
const ACC_SHARED: u64 = 1 << 62;
const ACC_GLOBAL: u64 = 1 << 63;

/// Decodes a packed access word into `(vc, target, line)`.
#[inline]
fn unpack_access(acc: u64) -> (u32, StreamTarget, Line) {
    let target = if acc & (ACC_SHARED | ACC_GLOBAL) == 0 {
        StreamTarget::ThreadPrivate
    } else if acc & ACC_SHARED != 0 {
        StreamTarget::ProcessShared
    } else {
        StreamTarget::Global
    };
    let line = acc & ACC_LINE_MASK;
    ((line >> 40) as u32, target, Line(line))
}

/// Interval size (in accesses) below which the pipeline drains on one
/// in-thread worker instead of spawning the fan-out: a scoped worker costs
/// tens of microseconds to start, so a small interval is processed faster
/// than it can be fanned out. Wall-clock policy only — results are
/// bit-identical for every worker count. Public so the equivalence tests
/// can assert their intervals are big enough to force genuine multi-worker
/// fan-outs.
pub const SHARD_SEQ_THRESHOLD: usize = 8192;

/// Packed [`Route`] word for the interval pipeline: bits `0..15` the home
/// bank, bit 15 the bypass flag, bits `16..32` the shadow-window old bank
/// plus one (0 = none). Bank ids are tile ids, far below 2^15.
const ROUTE_BYPASS: u32 = 1 << 15;
const ROUTE_BANK_MASK: u32 = ROUTE_BYPASS - 1;

#[inline]
fn pack_route(r: Route) -> u32 {
    if r.bypass {
        return ROUTE_BYPASS;
    }
    let old = r.old_bank.map_or(0, |b| u32::from(b.0) + 1);
    u32::from(r.bank.0) | (old << 16)
}

#[inline]
fn unpack_route(w: u32) -> Route {
    Route {
        bank: BankId((w & ROUTE_BANK_MASK) as u16),
        bypass: w & ROUTE_BYPASS != 0,
        old_bank: match w >> 16 {
            0 => None,
            b => Some(BankId((b - 1) as u16)),
        },
    }
}

/// Reusable buffers of the bank-grouped interval pipeline, the engine every
/// cell runs. One interval runs in four phases:
///
/// 1. **Generate + route (parallel over threads).** Each thread's accesses
///    are drawn into its disjoint window of the flat batch buffer (budgets
///    determine the windows up front), its private-VC monitor records
///    replayed, and every access routed to its home bank through the pure
///    [`Llc::route`] — per-thread streams are independent RNGs and a
///    private monitor belongs to exactly one thread, so this fan-out
///    reproduces the oracle's draws byte for byte.
/// 2. **Plan (sequential).** The round-robin drain order is materialized
///    into `order`, each non-bypass access is appended to its home bank's
///    `lists` entry (so every bank sees its accesses in drain order), and
///    shared/global monitor records are replayed in drain order (monitor
///    state is disjoint from LLC state; per-monitor record order is what
///    matters, and it is preserved).
/// 3. **Bank shards (parallel over banks).** Each [`crate::llc::LlcShard`]
///    performs its bank's lookups-and-fills — the expensive hash/LRU state
///    transitions — emitting one outcome byte per access into `outs`. The
///    partition of work by bank is fixed by the routes, so the outcome
///    streams are identical for *any* worker count, including one.
/// 4. **Reduce (sequential, index-ordered).** The drain order is walked
///    once more; each access pops the next outcome byte off its bank's
///    queue and flows through [`Simulation::apply_access_result`] — the
///    same accumulation code, in the same order, with the same values as
///    the per-access reference oracle ([`Simulation::issue_access`]). Every
///    f64 addition happens here, so results are bit-identical for every
///    worker count by construction.
#[derive(Debug, Default)]
struct ShardScratch {
    /// Drain order: `(thread << 40) | acc-index` per access.
    order: Vec<u64>,
    /// Packed route per access, aligned with `AccessBatch::acc`.
    routes: Vec<u32>,
    /// Per-bank access lists (indices into `acc`), in drain order.
    lists: Vec<Vec<u32>>,
    /// Per-bank outcome queues, parallel to `lists`.
    outs: Vec<Vec<u8>>,
    /// Per-bank reduce cursors into `outs`.
    cursors: Vec<usize>,
}

/// The round-robin drain-order walker: calls `each(thread, acc index)` for
/// every access of an interval in the exact order the reference oracle
/// issues them. Between two thread exhaustions the set of active threads is
/// fixed, so whole rounds run over the active list with no per-access
/// budget checks.
fn drain_round_robin(
    offsets: &[usize],
    cursor: &mut Vec<usize>,
    active: &mut Vec<u32>,
    mut each: impl FnMut(usize, usize),
) {
    let num_threads = offsets.len() - 1;
    cursor.clear();
    cursor.extend_from_slice(&offsets[..num_threads]);
    loop {
        // Segment setup: active threads (id order — the round-robin visit
        // order) and the shortest remaining budget among them.
        active.clear();
        let mut min_rem = usize::MAX;
        for ti in 0..num_threads {
            let rem = offsets[ti + 1] - cursor[ti];
            if rem > 0 {
                active.push(ti as u32);
                min_rem = min_rem.min(rem);
            }
        }
        if active.is_empty() {
            break;
        }
        for _ in 0..min_rem {
            for &ti in active.iter() {
                let ti = ti as usize;
                let c = cursor[ti];
                cursor[ti] = c + 1;
                each(ti, c);
            }
        }
    }
}

/// One thread's slice of phase-1 work: its state, its private monitor (when
/// monitors are live), and its disjoint windows of the access and route
/// buffers.
struct GenTask<'a> {
    core: TileId,
    global_vc: u32,
    thread: &'a mut ThreadState,
    monitor: Option<&'a mut AnyMonitor>,
    acc: &'a mut [u64],
    routes: &'a mut [u32],
}

impl GenTask<'_> {
    fn run(&mut self, llc: &Llc, mesh: &cdcs_mesh::Mesh) {
        let t = &mut *self.thread;
        if t.source.is_private_only() {
            // Bulk draw: the same offsets (and epoch counts) as one
            // `next_access` per slot.
            let base = (t.vc_private as u64) << 40;
            t.source.fill_private_offsets_slice(self.acc);
            for a in self.acc.iter_mut() {
                // Disjoint address spaces per VC.
                *a |= base;
            }
            t.ep_private += self.acc.len() as f64;
        } else {
            for slot in self.acc.iter_mut() {
                let (target, offset) = t.source.next_access();
                let (vc, class_bits) = match target {
                    StreamTarget::ThreadPrivate => {
                        t.ep_private += 1.0;
                        (t.vc_private, 0)
                    }
                    StreamTarget::ProcessShared => {
                        t.ep_shared += 1.0;
                        (
                            t.vc_shared.expect("shared access without shared VC"),
                            ACC_SHARED,
                        )
                    }
                    StreamTarget::Global => (self.global_vc, ACC_GLOBAL),
                };
                // Disjoint address spaces per VC.
                *slot = class_bits | ((vc as u64) << 40) | offset;
            }
        }
        // Private-monitor pre-pass: this thread's private VC only ever
        // receives accesses from this thread, in this order.
        if let Some(mon) = self.monitor.as_deref_mut() {
            for &a in self.acc.iter() {
                if a & (ACC_SHARED | ACC_GLOBAL) == 0 {
                    mon.record(Line(a & ACC_LINE_MASK));
                }
            }
        }
        // Route every access through the pure mapping lookup.
        for (slot, &a) in self.routes.iter_mut().zip(self.acc.iter()) {
            let (vc, target, line) = unpack_access(a);
            *slot = pack_route(llc.route(vc, target, self.core, mesh, line));
        }
    }
}

/// One bank's phase-3 work: its LLC shard, its access list, and its outcome
/// queue.
struct ShardTask<'a> {
    shard: crate::llc::LlcShard<'a>,
    list: &'a [u32],
    out: &'a mut Vec<u8>,
    acc: &'a [u64],
    routes: &'a [u32],
}

impl ShardTask<'_> {
    fn run(&mut self) {
        self.out.clear();
        for &idx in self.list {
            let a = self.acc[idx as usize];
            let line = a & ACC_LINE_MASK;
            let vc = (line >> 40) as u32;
            let check_old = self.routes[idx as usize] >> 16 != 0;
            self.out
                .push(self.shard.access_routed(vc, Line(line), check_old));
        }
    }
}

/// A concrete monitor, dispatched by match instead of vtable: the `record`
/// call sits on the per-access path of every partitioned-scheme simulation,
/// and the enum lets its sampling fast path inline into the engine.
#[derive(Debug, Clone)]
enum AnyMonitor {
    Gmon(Gmon),
    Umon(Umon),
}

impl AnyMonitor {
    #[inline]
    fn record(&mut self, line: Line) {
        match self {
            AnyMonitor::Gmon(m) => m.record(line),
            AnyMonitor::Umon(m) => m.record(line),
        }
    }

    fn miss_curve(&self) -> MissCurve {
        match self {
            AnyMonitor::Gmon(m) => m.miss_curve(),
            AnyMonitor::Umon(m) => m.miss_curve(),
        }
    }

    fn age(&mut self) {
        match self {
            AnyMonitor::Gmon(m) => m.age(),
            AnyMonitor::Umon(m) => m.age(),
        }
    }
}

/// Per-interval constants of the access path, read once from the config
/// instead of once per access.
struct HotState {
    bank_lat: f64,
    line_flits: u64,
    ctrl_flits: u64,
    /// Memory-controller port count (for the interleaved port pick).
    ports: u64,
    measuring: bool,
}

/// The next interleaved memory-controller port (pipeline path): the same
/// `access № mod port-count` sequence as `mc.port_for(mc_counter)`,
/// maintained as a wrapping cursor instead of a per-access division.
#[inline]
fn next_port(cursor: &mut u64, ports: u64) -> usize {
    let port = *cursor;
    *cursor += 1;
    if *cursor == ports {
        *cursor = 0;
    }
    port as usize
}

/// The simulator.
pub struct Simulation {
    config: SimConfig,
    threads: Vec<ThreadState>,
    vc_kinds: Vec<VcKind>,
    cores: Vec<TileId>,
    llc: Llc,
    memory: MemoryModel,
    monitors: Vec<AnyMonitor>,
    mc: MemCtrlPlacement,
    mc_counter: u64,
    /// Pipeline port cursor: equals `mc_counter % ports` without the
    /// per-access division (the reference oracle keeps the counter form).
    mc_port: u64,
    avg_mc_round_trip: f64,
    /// Precomputed `tile × tile` hop / round-trip tables (built once here,
    /// next to the memory-controller mean-hops table): the pipeline's reduce
    /// replaces `mesh.hops` + `noc.round_trip_latency` with two loads.
    tile_tables: DistanceTables,
    /// Precomputed `tile × mc-port` hop / round-trip tables for the miss and
    /// writeback paths.
    mc_tables: PortDistanceTables,
    /// Planner-facing parameters with the round-trip table prebuilt;
    /// `mem_latency` is patched per epoch in [`Self::planner_params`].
    base_params: SystemParams,
    /// Reusable planner buffers (cost matrix, spiral orders, …) shared
    /// across epoch reconfigurations.
    scratch: PlanScratch,
    /// Pooled planner output buffer: each reconfiguration plans into this
    /// and swaps it with `last_placement`, so steady-state epochs emit
    /// placements without allocating the `vc × bank` matrix.
    plan_buf: Placement,
    /// Reusable per-interval access buffers.
    batch: AccessBatch,
    /// Reusable pipeline buffers.
    shard: ShardScratch,
    /// Worker pool for the intra-cell fan-outs, pinned to
    /// `SimConfig::intra_cell_threads` workers so a simulation nested in
    /// `run_grid`'s outer pool uses exactly its configured share of cores.
    shard_pool: rayon::ThreadPool,
    /// One-worker pool for intervals below [`SHARD_SEQ_THRESHOLD`]: the
    /// same sharded pipeline, drained in-thread with zero spawns (worker
    /// count never changes results, only wall clock).
    shard_seq_pool: rayon::ThreadPool,
    /// Drain every interval through the per-access reference oracle
    /// ([`Self::issue_access`]) instead of the pipeline; set only by
    /// [`Self::with_reference_oracle`].
    reference_oracle: bool,
    /// Whether monitor samples can still influence a decision. Monitor
    /// state is read in exactly one place — `build_problem` at a
    /// reconfiguration — so once the last reconfiguration of a run has
    /// happened (the final epoch, or the post-reconfiguration half of a
    /// trace), recording into the GMONs is dead work and is skipped.
    /// `SimResult` carries no monitor state, so results are identical.
    monitors_live: bool,
    cycle: u64,
    traffic: cdcs_mesh::TrafficStats,
    system: SystemMetrics,
    measuring: bool,
    ipc_trace: Vec<(u64, f64)>,
    pending_pause: u64,
    last_placement: Option<Placement>,
    /// Processes in the base mix; roster slots `>= base_processes` belong
    /// to scripted arrivals and start inactive.
    base_processes: usize,
    /// The full roster mix, kept only when `trace_record` is set so
    /// [`Self::finish`] can write it into the trace index.
    record_mix: Option<WorkloadMix>,
}

impl Simulation {
    /// Builds a simulation of `mix` under `config`.
    ///
    /// # Errors
    ///
    /// Returns a message if the config is invalid or the mix has more
    /// threads than the chip has cores.
    pub fn new(config: SimConfig, mix: WorkloadMix) -> Result<Self, String> {
        config.validate()?;
        // Trace replay substitutes the recorded mix (and, below, the
        // recorded streams) for the cell's own.
        let replay = if config.trace_replay.is_empty() {
            None
        } else {
            Some(TraceSource::load(&config.trace_replay)?)
        };
        let mut mix = match &replay {
            Some(src) => src.mix().clone(),
            None => mix,
        };
        // The roster is fixed at construction — scripted arrivals occupy
        // process slots after the base mix (in time order, the order the
        // run loop activates them), so cores, VCs, and monitors exist from
        // cycle 0 and no mid-run re-layout is needed.
        let base_processes = mix.processes().len();
        for e in config.events.sorted() {
            if let WorkloadEvent::Arrival { app } = &e.event {
                let profile = cdcs_workload::spec::by_name(app)
                    .ok_or_else(|| format!("unknown arrival app {app}"))?;
                mix.push_process(profile.clone());
            }
        }
        config.events.validate(mix.processes().len())?;
        let total_threads = mix.total_threads();
        if total_threads > config.mesh.num_tiles() {
            return Err(format!(
                "{total_threads} threads exceed {} cores",
                config.mesh.num_tiles()
            ));
        }
        if total_threads == 0 {
            return Err("mix has no threads".into());
        }

        // VC layout: one private VC per thread (ids 0..T), one shared VC per
        // multi-threaded process, one global VC last. (Single-threaded
        // processes' per-process VCs are provably empty in our workload
        // model and are omitted; the paper's runtime would create them but
        // they hold no data in steady state.)
        let mut vc_kinds: Vec<VcKind> = Vec::new();
        let mut threads: Vec<ThreadState> = Vec::new();
        for (p, app) in mix.processes().iter().enumerate() {
            for tip in 0..app.threads {
                let global_tid = threads.len() as u32;
                vc_kinds.push(VcKind::thread_private(global_tid));
                let mut source = match &replay {
                    Some(src) => ThreadSource::replay(src.cursor(global_tid as usize)),
                    None => ThreadSource::synthetic(AccessStream::for_thread(
                        app,
                        tip,
                        mix.stream_seed(p, tip),
                    )),
                };
                if !config.trace_record.is_empty() {
                    source.enable_tap();
                }
                threads.push(ThreadState {
                    process: p,
                    apki: app.apki,
                    ipc0: app.ipc0,
                    mlp: app.mlp,
                    source,
                    vc_private: global_tid,
                    vc_shared: None, // patched below
                    ipc: app.ipc0 * 0.5,
                    carry: 0.0,
                    active: p < base_processes,
                    idle_until: 0,
                    rate_scale: 1.0,
                    iv_accesses: 0,
                    iv_latency: 0.0,
                    ep_private: 0.0,
                    ep_shared: 0.0,
                    metrics: ThreadMetrics {
                        app: app.name.clone(),
                        process: p,
                        thread: tip,
                        ..Default::default()
                    },
                });
            }
        }
        for (p, app) in mix.processes().iter().enumerate() {
            if app.shared_pattern.is_some() {
                let vc = vc_kinds.len() as u32;
                vc_kinds.push(VcKind::process_shared(p as u32));
                for t in threads.iter_mut().filter(|t| t.process == p) {
                    t.vc_shared = Some(vc);
                }
            }
        }
        vc_kinds.push(VcKind::Global);
        let num_vcs = vc_kinds.len();

        // Initial thread pinning.
        let sched = match config.scheme {
            Scheme::SNuca => ThreadSched::Random,
            Scheme::RNuca { sched } | Scheme::Jigsaw { sched } | Scheme::Cdcs { sched, .. } => {
                sched
            }
        };
        let cores = match sched {
            ThreadSched::Clustered => clustered_cores(total_threads, &config.mesh),
            ThreadSched::Random => random_cores(total_threads, &config.mesh, config.seed ^ 0x5eed),
        };

        let llc = match config.scheme {
            Scheme::SNuca => Llc::unpartitioned(config.num_banks(), config.bank_lines, None),
            Scheme::RNuca { .. } => Llc::unpartitioned(
                config.num_banks(),
                config.bank_lines,
                Some(RNucaPolicy::default()),
            ),
            Scheme::Jigsaw { .. } | Scheme::Cdcs { .. } => {
                Llc::partitioned(config.num_banks(), config.bank_lines, num_vcs)
            }
        };

        // Monitors: GMONs sized to cover the whole LLC (§IV-G), one per VC.
        // Every VC gets the same geometry, so the sizing computation (the
        // γ bisection for GMONs) runs once and the per-VC monitors are
        // stamped from the prototype.
        let monitors: Vec<AnyMonitor> = if config.scheme.partitioned() {
            let prototype = match config.monitor_kind {
                crate::config::MonitorKind::Gmon { ways } => {
                    AnyMonitor::Gmon(Gmon::new(GmonConfig::covering(
                        config.monitor_sets,
                        ways,
                        config.monitor_sample_period,
                        config.total_lines(),
                    )))
                }
                crate::config::MonitorKind::Umon { ways } => {
                    // Uniform ways sized to cover the LLC.
                    let per_way = config.total_lines().div_ceil(ways as u64);
                    let period = per_way.div_ceil(config.monitor_sets as u64).max(1) as u32;
                    AnyMonitor::Umon(Umon::new(UmonConfig {
                        sets: config.monitor_sets,
                        ways,
                        sample_period: period,
                    }))
                }
            };
            vec![prototype; num_vcs]
        } else {
            Vec::new()
        };

        let mc = MemCtrlPlacement::edges(&config.mesh, config.mem_controllers);
        let tiles = config.mesh.tiles();
        let avg_mc_hops: f64 = tiles
            .iter()
            .map(|&t| mc.mean_hops_from(&config.mesh, t))
            .sum::<f64>()
            / tiles.len() as f64;
        let avg_mc_round_trip =
            f64::from(config.noc.round_trip_latency(avg_mc_hops.round() as u32));

        let record_mix = if config.trace_record.is_empty() {
            None
        } else {
            // An unwritable record directory is a construction error, not
            // a panic in `finish` after the whole run.
            std::fs::create_dir_all(&config.trace_record)
                .map_err(|e| format!("trace_record {}: {e}", config.trace_record))?;
            Some(mix.clone())
        };
        let memory = MemoryModel::new(config.mem_zero_load, config.total_mem_bandwidth());
        let base_params = SystemParams::new(
            config.mesh,
            config.bank_lines,
            config.noc,
            config.mem_zero_load + avg_mc_round_trip,
            f64::from(config.bank_latency),
        );
        // Hop / round-trip tables for the pipeline's reduce, built once
        // alongside the mean-hops table above.
        let tile_tables = DistanceTables::new(&config.mesh, config.noc);
        let mc_tables = PortDistanceTables::new(&config.mesh, config.noc, mc.ports());
        // Pinned pools (just scoped worker counts in the vendored rayon)
        // for the pipeline's fan-outs; at 0 or 1 workers both drain
        // in-thread.
        let shard_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(config.intra_cell_threads.max(1))
            .build()
            .expect("shard pool");
        let shard_seq_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("shard seq pool");

        let mut sim = Simulation {
            config,
            threads,
            vc_kinds,
            cores,
            llc,
            memory,
            monitors,
            mc,
            mc_counter: 0,
            mc_port: 0,
            avg_mc_round_trip,
            tile_tables,
            mc_tables,
            base_params,
            scratch: PlanScratch::new(),
            plan_buf: Placement::default(),
            batch: AccessBatch::default(),
            shard: ShardScratch::default(),
            shard_pool,
            shard_seq_pool,
            reference_oracle: false,
            monitors_live: true,
            cycle: 0,
            traffic: cdcs_mesh::TrafficStats::new(),
            system: SystemMetrics::default(),
            measuring: false,
            ipc_trace: Vec::new(),
            pending_pause: 0,
            last_placement: None,
            base_processes,
            record_mix,
        };
        if sim.config.scheme.partitioned() {
            sim.bootstrap_placement();
        }
        Ok(sim)
    }

    /// Drains every interval through the one-access-at-a-time reference
    /// oracle instead of the interval pipeline. Results are bit-identical;
    /// the oracle is the definitional spec of the access path, kept for the
    /// engine-equivalence tests and the `simulation_reference/*` bench
    /// rows. No config can select it.
    #[doc(hidden)]
    #[must_use]
    pub fn with_reference_oracle(mut self) -> Self {
        self.reference_oracle = true;
        self
    }

    /// System parameters as seen by the planners. Only the memory latency
    /// changes between epochs (bandwidth feedback), so the precomputed
    /// round-trip table inside `base_params` is cloned rather than rebuilt.
    fn planner_params(&self) -> SystemParams {
        let mut params = self.base_params.clone();
        params.mem_latency = self.memory.current_latency() + self.avg_mc_round_trip;
        params
    }

    /// Epoch-0 placement before any curves exist: an equal split, greedily
    /// placed near each VC's accessors.
    fn bootstrap_placement(&mut self) {
        let problem = self.build_problem(true);
        let num_vcs = self.vc_kinds.len();
        let per_vc = (self.config.total_lines() / num_vcs as u64) / self.config.alloc_granularity
            * self.config.alloc_granularity;
        let sizes = vec![per_vc; num_vcs];
        let placement = cdcs_core::place::greedy_place_with(
            &problem,
            &sizes,
            &self.cores,
            self.config.alloc_granularity,
            &mut self.scratch,
        );
        self.llc
            .reconfigure(&placement, MoveScheme::Instant, self.cycle, 0);
        self.last_placement = Some(placement);
    }

    /// Builds the epoch's [`PlacementProblem`] from monitors and measured
    /// access rates. With `bootstrap`, uses flat unit curves and unit rates.
    fn build_problem(&self, bootstrap: bool) -> PlacementProblem {
        let vcs: Vec<VcInfo> = self
            .vc_kinds
            .iter()
            .enumerate()
            .map(|(d, &kind)| {
                let curve = if bootstrap {
                    MissCurve::flat(1.0)
                } else {
                    self.monitors[d].miss_curve()
                };
                VcInfo::new(d as u32, kind, curve)
            })
            .collect();
        let threads: Vec<ThreadInfo> = self
            .threads
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut acc: Vec<(u32, f64)> = Vec::with_capacity(2);
                if bootstrap {
                    acc.push((t.vc_private, 1.0));
                    if let Some(s) = t.vc_shared {
                        acc.push((s, 1.0));
                    }
                } else {
                    if t.ep_private > 0.0 {
                        acc.push((t.vc_private, t.ep_private));
                    }
                    if let (Some(s), true) = (t.vc_shared, t.ep_shared > 0.0) {
                        acc.push((s, t.ep_shared));
                    }
                }
                ThreadInfo::new(i as u32, acc)
            })
            .collect();
        PlacementProblem::new(self.planner_params(), vcs, threads)
            .expect("engine builds a consistent problem")
    }

    /// Runs an epoch-boundary reconfiguration for partitioned schemes.
    ///
    /// The planner writes into the pooled `plan_buf`, which on application
    /// is swapped with `last_placement` — steady-state epochs neither
    /// allocate the output matrix nor clone it into `last_placement`.
    fn reconfigure(&mut self) {
        let problem = self.build_problem(false);
        let mut placement = std::mem::take(&mut self.plan_buf);
        match &self.config.scheme {
            Scheme::Jigsaw { .. } => JigsawPlanner {
                granularity: self.config.alloc_granularity,
                chunk: self.config.alloc_granularity,
            }
            .plan_into(&problem, &self.cores, &mut self.scratch, &mut placement),
            Scheme::Cdcs { planner, .. } => {
                let planner = CdcsPlanner {
                    granularity: self.config.alloc_granularity,
                    chunk: self.config.alloc_granularity,
                    ..*planner
                };
                if self.config.hier_region_side > 0 {
                    // Mega-mesh path: region-decomposed planning, with
                    // incremental warm starts off the applied placement when
                    // the threshold allows. CDCS-only — the Jigsaw variants
                    // model prior work and always plan flat.
                    let hier = HierarchicalPlanner {
                        inner: planner,
                        region_side: self.config.hier_region_side,
                        change_threshold: self.config.hier_change_threshold,
                    };
                    hier.plan_into(
                        &problem,
                        self.last_placement.as_ref(),
                        &self.cores,
                        &mut self.scratch,
                        &mut placement,
                    );
                } else {
                    planner.plan_into(&problem, &self.cores, &mut self.scratch, &mut placement);
                }
            }
            _ => unreachable!("only partitioned schemes reconfigure"),
        };
        debug_assert!(placement.check_feasible(&problem).is_ok());
        // Cost-benefit gate: apply the new placement only if its predicted
        // latency gain (per epoch, from the measured curves) exceeds the
        // refill cost of the lines it displaces. Growth costs nothing (new
        // lines fill on demand either way); shrink/rearrangement does.
        if let (Some(last), true) = (
            &self.last_placement,
            self.config.reconfig_benefit_factor > 0.0,
        ) {
            // Displaced lines: per-bank capacity shrink, scaled by how full
            // the VC actually is (shrinking empty capacity displaces
            // nothing).
            let relocated: f64 = (0..placement.num_vcs())
                .map(|d| {
                    let shrink: u64 = placement
                        .vc_row(d)
                        .iter()
                        .zip(last.vc_row(d))
                        .map(|(&lines, &old_lines)| old_lines.saturating_sub(lines))
                        .sum();
                    let old_total: u64 = last.vc_row(d).iter().sum();
                    if old_total == 0 {
                        return 0.0;
                    }
                    let occupancy = self.llc.vc_occupancy(d as u32) as f64 / old_total as f64;
                    shrink as f64 * occupancy.min(1.0)
                })
                .sum();
            let new_cost = cdcs_core::cost::total_latency(&problem, &placement);
            // The current placement costed under the current cores (which
            // are where its threads actually run).
            let old_cost = cdcs_core::cost::total_latency_with_cores(&problem, last, &self.cores);
            let move_cost =
                self.config.reconfig_benefit_factor * relocated * problem.params.mem_latency;
            if new_cost + move_cost >= old_cost {
                // Not worth it: keep the current placement and return the
                // buffer to the pool.
                self.plan_buf = placement;
                for m in &mut self.monitors {
                    m.age();
                }
                for t in &mut self.threads {
                    t.ep_private = 0.0;
                    t.ep_shared = 0.0;
                }
                return;
            }
        }
        self.cores.clear();
        self.cores.extend_from_slice(&placement.thread_cores);
        let pause = self.llc.reconfigure(
            &placement,
            self.config.move_scheme,
            self.cycle,
            self.config.bulk_pause_cycles,
        );
        self.pending_pause += pause;
        for m in &mut self.monitors {
            m.age();
        }
        for t in &mut self.threads {
            t.ep_private = 0.0;
            t.ep_shared = 0.0;
        }
        if self.measuring {
            self.system.reconfigurations += 1;
            self.system.pause_cycles += pause;
        }
        // The displaced previous placement becomes the next epoch's pooled
        // plan buffer.
        if let Some(old) = self.last_placement.replace(placement) {
            self.plan_buf = old;
        }
    }

    /// Issues one access for thread `ti`; returns its latency in cycles.
    ///
    /// This is the *reference* access path ([`Self::with_reference_oracle`]):
    /// it draws the access from the stream and resolves every distance
    /// through `mesh.hops` / `noc.round_trip_latency` inline. The interval
    /// pipeline must produce bit-identical results —
    /// `crates/sim/tests/engine_equivalence.rs` holds the two against each
    /// other.
    fn issue_access(&mut self, ti: usize) -> f64 {
        let core = self.cores[ti];
        let (target, offset) = self.threads[ti].source.next_access();
        let vc = match target {
            StreamTarget::ThreadPrivate => {
                self.threads[ti].ep_private += 1.0;
                self.threads[ti].vc_private
            }
            StreamTarget::ProcessShared => {
                self.threads[ti].ep_shared += 1.0;
                self.threads[ti]
                    .vc_shared
                    .expect("shared access without shared VC")
            }
            StreamTarget::Global => (self.vc_kinds.len() - 1) as u32,
        };
        // Disjoint address spaces per VC.
        let line = Line(((vc as u64) << 40) | offset);

        if !self.monitors.is_empty() && self.monitors_live {
            self.monitors[vc as usize].record(line);
        }

        let result = self.llc.access(vc, target, core, &self.config.mesh, line);
        let noc = &self.config.noc;
        let mesh = &self.config.mesh;
        let bank_lat = f64::from(self.config.bank_latency);
        let line_flits = noc.data_flits(64);
        let ctrl_flits = noc.control_flits();
        let mut latency = 0.0;
        let m = &mut self.threads[ti].metrics;
        m.accesses += 1;

        if result.bypass {
            // Zero-allocation VC: straight to memory from the core tile.
            let port = self.mc.port_for(self.mc_counter);
            self.mc_counter += 1;
            let hops = mesh.hops(core, port);
            let mem = self.memory.access() + f64::from(noc.round_trip_latency(hops));
            latency += mem;
            m.mem_cycles += mem;
            m.misses += 1;
            self.traffic
                .record(TrafficClass::LlcToMem, ctrl_flits, hops);
            self.traffic
                .record(TrafficClass::LlcToMem, line_flits, hops);
            if self.measuring {
                self.system.dram_accesses += 1;
            }
            self.threads[ti].iv_accesses += 1;
            self.threads[ti].iv_latency += latency;
            return latency;
        }

        let bank_tile = TileId(result.bank.0);
        let hops = mesh.hops(core, bank_tile);
        let to_bank = f64::from(noc.round_trip_latency(hops));
        latency += bank_lat + to_bank;
        m.bank_cycles += bank_lat;
        m.net_cycles += to_bank;
        self.traffic.record(TrafficClass::L2ToLlc, ctrl_flits, hops);
        self.traffic.record(TrafficClass::L2ToLlc, line_flits, hops);

        // Two-level lookup during the shadow window (Fig. 10): the new bank
        // forwards to the old bank.
        if let Some(old) = result.old_bank_checked {
            let old_tile = TileId(old.0);
            let detour_hops = mesh.hops(bank_tile, old_tile);
            let detour = bank_lat + f64::from(noc.round_trip_latency(detour_hops));
            latency += detour;
            m.bank_cycles += bank_lat;
            m.net_cycles += f64::from(noc.round_trip_latency(detour_hops));
            self.traffic
                .record(TrafficClass::Other, ctrl_flits, detour_hops);
            if result.demand_moved {
                // The line and its coherence state travel back (Fig. 10a).
                self.traffic
                    .record(TrafficClass::Other, line_flits, detour_hops);
                if self.measuring {
                    self.system.demand_moves += 1;
                }
            }
        }

        if result.hit {
            m.hits += 1;
        } else {
            let port = self.mc.port_for(self.mc_counter);
            self.mc_counter += 1;
            let mem_hops = mesh.hops(bank_tile, port);
            let mem = self.memory.access() + f64::from(noc.round_trip_latency(mem_hops));
            latency += mem;
            m.mem_cycles += mem;
            m.misses += 1;
            self.traffic
                .record(TrafficClass::LlcToMem, ctrl_flits, mem_hops);
            self.traffic
                .record(TrafficClass::LlcToMem, line_flits, mem_hops);
            if self.measuring {
                self.system.dram_accesses += 1;
            }
        }
        if result.evicted {
            // Writeback to the line's controller (no silent drops, Table 2).
            let port = self.mc.port_for(self.mc_counter);
            self.mc_counter += 1;
            let wb_hops = mesh.hops(bank_tile, port);
            self.traffic
                .record(TrafficClass::LlcToMem, line_flits, wb_hops);
            if self.measuring {
                self.system.dram_accesses += 1;
            }
        }

        self.threads[ti].iv_accesses += 1;
        self.threads[ti].iv_latency += latency;
        latency
    }

    /// Applies one resolved LLC lookup to every accumulator: latency,
    /// per-thread metrics, traffic, memory-controller interleave, system
    /// counters. This is the *only* place the pipeline adds f64s per
    /// access, and its reduction calls it in the exact drain order the
    /// reference oracle issues accesses — which is what makes the results
    /// bit-identical regardless of worker count.
    fn apply_access_result(&mut self, ti: usize, result: LookupResult, hot: &HotState) {
        let core = self.cores[ti];
        let mut latency = 0.0;
        let m = &mut self.threads[ti].metrics;
        m.accesses += 1;

        if result.bypass {
            // Zero-allocation VC: straight to memory from the core tile.
            let port = next_port(&mut self.mc_port, hot.ports);
            let hops = self.mc_tables.hops(core, port);
            let mem = self.memory.access() + self.mc_tables.round_trip(core, port);
            latency += mem;
            m.mem_cycles += mem;
            m.misses += 1;
            self.traffic
                .record_pair(TrafficClass::LlcToMem, hot.ctrl_flits, hot.line_flits, hops);
            if hot.measuring {
                self.system.dram_accesses += 1;
            }
            self.threads[ti].iv_accesses += 1;
            self.threads[ti].iv_latency += latency;
            return;
        }

        let bank_tile = TileId(result.bank.0);
        let hops = self.tile_tables.hops(core, bank_tile);
        let to_bank = self.tile_tables.round_trip(core, bank_tile);
        latency += hot.bank_lat + to_bank;
        m.bank_cycles += hot.bank_lat;
        m.net_cycles += to_bank;
        self.traffic
            .record_pair(TrafficClass::L2ToLlc, hot.ctrl_flits, hot.line_flits, hops);

        // Two-level lookup during the shadow window (Fig. 10): the new bank
        // forwards to the old bank.
        if let Some(old) = result.old_bank_checked {
            let old_tile = TileId(old.0);
            let detour_hops = self.tile_tables.hops(bank_tile, old_tile);
            let detour_rt = self.tile_tables.round_trip(bank_tile, old_tile);
            latency += hot.bank_lat + detour_rt;
            m.bank_cycles += hot.bank_lat;
            m.net_cycles += detour_rt;
            self.traffic
                .record(TrafficClass::Other, hot.ctrl_flits, detour_hops);
            if result.demand_moved {
                // The line and its coherence state travel back (Fig. 10a).
                self.traffic
                    .record(TrafficClass::Other, hot.line_flits, detour_hops);
                if hot.measuring {
                    self.system.demand_moves += 1;
                }
            }
        }

        if result.hit {
            m.hits += 1;
        } else {
            let port = next_port(&mut self.mc_port, hot.ports);
            let mem_hops = self.mc_tables.hops(bank_tile, port);
            let mem = self.memory.access() + self.mc_tables.round_trip(bank_tile, port);
            latency += mem;
            m.mem_cycles += mem;
            m.misses += 1;
            self.traffic.record_pair(
                TrafficClass::LlcToMem,
                hot.ctrl_flits,
                hot.line_flits,
                mem_hops,
            );
            if hot.measuring {
                self.system.dram_accesses += 1;
            }
        }
        if result.evicted {
            // Writeback to the line's controller (no silent drops, Table 2).
            let port = next_port(&mut self.mc_port, hot.ports);
            let wb_hops = self.mc_tables.hops(bank_tile, port);
            self.traffic
                .record(TrafficClass::LlcToMem, hot.line_flits, wb_hops);
            if hot.measuring {
                self.system.dram_accesses += 1;
            }
        }

        self.threads[ti].iv_accesses += 1;
        self.threads[ti].iv_latency += latency;
    }

    /// The interval pipeline (see [`ShardScratch`] for its four phases).
    /// Must produce results bit-identical to the reference oracle for every
    /// worker count — `crates/sim/tests/engine_equivalence.rs` holds them
    /// together across schemes, mixes, entry points and 1/2/4 workers.
    fn run_pipeline(&mut self, batch: &mut AccessBatch, sh: &mut ShardScratch) {
        let num_threads = self.threads.len();
        let global_vc = (self.vc_kinds.len() - 1) as u32;
        let num_banks = self.config.num_banks();

        // Every budgeted draw yields exactly one access, so the per-thread
        // windows of the flat buffers are known before generation runs.
        batch.offsets.clear();
        batch.offsets.push(0);
        let mut total = 0usize;
        for &b in &batch.budgets {
            total += b as usize;
            batch.offsets.push(total);
        }
        batch.acc.clear();
        batch.acc.resize(total, 0);
        sh.routes.clear();
        sh.routes.resize(total, 0);

        let monitors_on = !self.monitors.is_empty() && self.monitors_live;

        // Below the threshold an interval cannot amortize thread spawns
        // (the vendored rayon scopes fresh workers per fan-out, ~tens of
        // µs each), so it drains on one in-thread worker. Pure wall-clock
        // policy — worker count never changes results.
        let pool = if total >= SHARD_SEQ_THRESHOLD {
            &self.shard_pool
        } else {
            &self.shard_seq_pool
        };

        // Phase 1 (parallel over threads): generate, record private
        // monitors, route.
        {
            let llc = &self.llc;
            let mesh = &self.config.mesh;
            let mut tasks: Vec<GenTask<'_>> = Vec::with_capacity(num_threads);
            {
                let mut acc_rest: &mut [u64] = &mut batch.acc;
                let mut routes_rest: &mut [u32] = &mut sh.routes;
                // Private VC ids equal thread ids (the engine numbers them
                // 0..T in construction order), so the first `num_threads`
                // monitors are exactly the private ones, in thread order.
                let mut mons: Vec<Option<&mut AnyMonitor>> = if monitors_on {
                    self.monitors[..num_threads].iter_mut().map(Some).collect()
                } else {
                    (0..num_threads).map(|_| None).collect()
                };
                let mut mon_iter = mons.drain(..);
                for (ti, thread) in self.threads.iter_mut().enumerate() {
                    let n = batch.offsets[ti + 1] - batch.offsets[ti];
                    let (acc, rest) = acc_rest.split_at_mut(n);
                    acc_rest = rest;
                    let (routes, rest) = routes_rest.split_at_mut(n);
                    routes_rest = rest;
                    tasks.push(GenTask {
                        core: self.cores[ti],
                        global_vc,
                        thread,
                        monitor: mon_iter.next().expect("one slot per thread"),
                        acc,
                        routes,
                    });
                }
            }
            pool.install(|| tasks.par_iter_mut().for_each(|task| task.run(llc, mesh)));
        }

        // Phase 2 (sequential): materialize the round-robin drain order,
        // partition it by home bank, and replay shared/global monitor
        // records in drain order.
        sh.order.clear();
        if sh.lists.len() != num_banks {
            sh.lists.resize_with(num_banks, Vec::new);
            sh.outs.resize_with(num_banks, Vec::new);
        }
        for l in &mut sh.lists {
            l.clear();
        }
        {
            let AccessBatch {
                acc,
                offsets,
                cursor,
                active,
                ..
            } = &mut *batch;
            let ShardScratch {
                order,
                routes,
                lists,
                ..
            } = &mut *sh;
            let monitors = &mut self.monitors;
            drain_round_robin(offsets, cursor, active, |ti, c| {
                order.push(((ti as u64) << 40) | c as u64);
                let r = routes[c];
                if r & ROUTE_BYPASS == 0 {
                    lists[(r & ROUTE_BANK_MASK) as usize].push(c as u32);
                }
                if monitors_on {
                    let a = acc[c];
                    if a & (ACC_SHARED | ACC_GLOBAL) != 0 {
                        let line = a & ACC_LINE_MASK;
                        monitors[(line >> 40) as usize].record(Line(line));
                    }
                }
            });
        }

        // Phase 3 (parallel over banks): the stateful lookups. Work is
        // partitioned by home bank regardless of worker count, so the
        // outcome queues are identical on 1 worker and on N.
        let demand_total: u64;
        {
            let acc: &[u64] = &batch.acc;
            let routes: &[u32] = &sh.routes;
            let shards = self.llc.bank_shards();
            debug_assert_eq!(shards.len(), num_banks);
            let mut tasks: Vec<ShardTask<'_>> = shards
                .into_iter()
                .zip(sh.lists.iter())
                .zip(sh.outs.iter_mut())
                .map(|((shard, list), out)| ShardTask {
                    shard,
                    list,
                    out,
                    acc,
                    routes,
                })
                .collect();
            pool.install(|| tasks.par_iter_mut().for_each(|task| task.run()));
            // Fixed, bank-ordered merge of the integer partial sums.
            demand_total = tasks.iter().map(|t| t.shard.demand_moves).sum();
        }
        self.llc.add_demand_moves(demand_total);

        // Phase 4 (sequential reduce): replay the drain order through the
        // shared accumulation code, consuming each bank's outcome queue.
        let hot = HotState {
            bank_lat: f64::from(self.config.bank_latency),
            line_flits: self.config.noc.data_flits(64),
            ctrl_flits: self.config.noc.control_flits(),
            ports: self.mc_tables.num_ports() as u64,
            measuring: self.measuring,
        };
        sh.cursors.clear();
        sh.cursors.resize(num_banks, 0);
        const IDX_MASK: u64 = (1 << 40) - 1;
        for &packed in &sh.order {
            let ti = (packed >> 40) as usize;
            let idx = (packed & IDX_MASK) as usize;
            let route = unpack_route(sh.routes[idx]);
            let result = if route.bypass {
                lookup_result(route, 0)
            } else {
                let b = route.bank.index();
                let out = sh.outs[b][sh.cursors[b]];
                sh.cursors[b] += 1;
                lookup_result(route, out)
            };
            self.apply_access_result(ti, result, &hot);
        }
        debug_assert!(sh.cursors.iter().zip(&sh.outs).all(|(&c, o)| c == o.len()));
    }

    /// Simulates one interval; returns the aggregate instructions retired.
    fn run_interval(&mut self) -> f64 {
        let interval = self.config.interval_cycles;
        let cycle_now = self.cycle;
        let mut batch = std::mem::take(&mut self.batch);
        // Budgets from current IPC estimates.
        batch.budgets.clear();
        let mut instr_total = 0.0;
        for t in &mut self.threads {
            // Event-script gates. Without a script `active` is always
            // true, `idle_until` 0, and `rate_scale` 1.0, so the steady
            // path below computes bit-identical budgets (IEEE `x * 1.0 == x`
            // bitwise for finite x).
            if !t.active {
                // Not yet arrived, or departed: the core is off — no
                // cycles, no instructions, no accesses.
                batch.budgets.push(0);
                continue;
            }
            if cycle_now < t.idle_until {
                // Idle gap: cycles pass, instructions don't.
                batch.budgets.push(0);
                if self.measuring {
                    t.metrics.cycles += interval as f64;
                }
                continue;
            }
            let instrs = t.ipc * interval as f64;
            let exact = instrs * (t.apki * t.rate_scale) / 1000.0 + t.carry;
            let n = exact.floor();
            t.carry = exact - n;
            batch.budgets.push(n as u64);
            instr_total += instrs;
            if self.measuring {
                t.metrics.instructions += instrs;
                t.metrics.cycles += interval as f64;
            }
        }
        if self.reference_oracle {
            // Reference oracle: one access at a time, round-robin.
            loop {
                let mut any = false;
                for ti in 0..batch.budgets.len() {
                    if batch.budgets[ti] > 0 {
                        batch.budgets[ti] -= 1;
                        self.issue_access(ti);
                        any = true;
                    }
                }
                if !any {
                    break;
                }
            }
        } else {
            let mut sh = std::mem::take(&mut self.shard);
            self.run_pipeline(&mut batch, &mut sh);
            self.shard = sh;
        }
        self.batch = batch;
        // Interval bookkeeping: AMAT -> IPC feedback.
        for t in &mut self.threads {
            if t.iv_accesses > 0 {
                let amat = t.iv_latency / t.iv_accesses as f64;
                let target = 1.0 / (1.0 / t.ipc0 + (t.apki * t.rate_scale) / 1000.0 * amat / t.mlp);
                t.ipc = 0.5 * t.ipc + 0.5 * target;
            }
            t.iv_accesses = 0;
            t.iv_latency = 0.0;
        }
        self.memory.end_interval(interval);
        self.cycle += interval;
        self.llc.background_tick(
            self.cycle,
            self.config.background_delay_cycles,
            self.config.background_walk_cycles,
        );

        // Reconfiguration pauses stall every core for their duration.
        if self.pending_pause > 0 {
            let pause = self.pending_pause;
            self.pending_pause = 0;
            self.cycle += pause;
            for t in &mut self.threads {
                if self.measuring && t.active {
                    t.metrics.cycles += pause as f64;
                }
            }
            if self.measuring {
                self.ipc_trace.push((self.cycle, 0.0));
            }
        }
        if self.measuring {
            self.ipc_trace
                .push((self.cycle, instr_total / interval as f64));
        }
        instr_total
    }

    /// Runs the configured warm-up and measurement epochs and returns the
    /// results.
    ///
    /// The epoch/interval loop consumes [`SimConfig::events`] at interval
    /// granularity. Before each interval, due events mutate thread state —
    /// phase changes scale APKI, bursts set `rate_scale` (restored when the
    /// burst's duration elapses), idle gaps set `idle_until`, arrivals and
    /// departures flip `active`. A membership change (arrival/departure)
    /// immediately rebuilds placement through the existing reconfiguration
    /// path, so the planner sees the new roster without bespoke machinery.
    /// With an empty script every gate is a no-op.
    pub fn run(mut self) -> SimResult {
        let script: Vec<TimedEvent> = self.config.events.sorted();
        // Sorted-script index -> roster process id for arrivals; slots
        // after the base mix were appended in this same time order by
        // `Simulation::new`.
        let mut arrival_process = Vec::with_capacity(script.len());
        let mut next_arrival = self.base_processes;
        for e in &script {
            if matches!(e.event, WorkloadEvent::Arrival { .. }) {
                arrival_process.push(next_arrival);
                next_arrival += 1;
            } else {
                arrival_process.push(usize::MAX);
            }
        }
        let mut cursor = 0usize;
        // Open bursts as (end_cycle, process); expiry restores steady rate.
        let mut burst_ends: Vec<(u64, usize)> = Vec::new();

        let intervals_per_epoch = (self.config.epoch_cycles / self.config.interval_cycles).max(1);
        let total_epochs = self.config.warmup_epochs + self.config.measure_epochs;
        for epoch in 0..total_epochs {
            self.measuring = epoch >= self.config.warmup_epochs;
            // Monitors must also stay live while a future membership event
            // can still trigger a mid-epoch reconfiguration that reads them.
            let membership_ahead = script[cursor..].iter().any(|e| {
                matches!(
                    e.event,
                    WorkloadEvent::Arrival { .. } | WorkloadEvent::Departure { .. }
                )
            });
            self.monitors_live = epoch + 1 < total_epochs || membership_ahead;
            for _ in 0..intervals_per_epoch {
                let mut membership_changed = false;
                // Burst expiries first: a burst scheduled to end at or
                // before this interval's start is over before any event due
                // now is applied (so a new burst on the same process wins).
                burst_ends.retain(|&(end, p)| {
                    if end <= self.cycle {
                        for t in self.threads.iter_mut().filter(|t| t.process == p) {
                            t.rate_scale = 1.0;
                        }
                        false
                    } else {
                        true
                    }
                });
                while cursor < script.len() && script[cursor].at_cycle <= self.cycle {
                    let target = arrival_process[cursor];
                    match &script[cursor].event {
                        WorkloadEvent::PhaseChange {
                            process,
                            apki_scale,
                        } => {
                            for t in self.threads.iter_mut().filter(|t| t.process == *process) {
                                t.apki *= apki_scale;
                            }
                        }
                        WorkloadEvent::RateBurst {
                            process,
                            scale,
                            duration,
                        } => {
                            for t in self.threads.iter_mut().filter(|t| t.process == *process) {
                                t.rate_scale = *scale;
                            }
                            burst_ends.push((self.cycle + duration, *process));
                        }
                        WorkloadEvent::IdleGap { process, duration } => {
                            let until = self.cycle + duration;
                            for t in self.threads.iter_mut().filter(|t| t.process == *process) {
                                t.idle_until = until;
                            }
                        }
                        WorkloadEvent::Arrival { .. } => {
                            for t in self.threads.iter_mut().filter(|t| t.process == target) {
                                t.active = true;
                            }
                            membership_changed = true;
                        }
                        WorkloadEvent::Departure { process } => {
                            for t in self.threads.iter_mut().filter(|t| t.process == *process) {
                                t.active = false;
                            }
                            membership_changed = true;
                        }
                    }
                    cursor += 1;
                }
                if membership_changed && self.config.scheme.reconfigures() {
                    // Rebuild monitor/planner state for the new roster
                    // through the ordinary epoch-boundary path.
                    self.reconfigure();
                }
                self.run_interval();
            }
            if self.config.scheme.reconfigures() && epoch + 1 < total_epochs {
                self.reconfigure();
            }
        }
        self.finish()
    }

    /// Runs a fixed number of intervals without epoch logic (used by tests
    /// and the Fig. 17 harness via [`Simulation::run_trace`]).
    ///
    /// The measured window splits around its single reconfiguration as
    /// `floor(post_intervals / 2)` intervals before the boundary and
    /// `ceil(post_intervals / 2)` after — deliberate rounding: for odd
    /// counts the extra interval lands *after* the reconfiguration, so the
    /// recovery transient (the thing Fig. 17 plots — how fast each
    /// line-movement scheme restores IPC) is never the truncated half.
    /// Pinned by `trace_rounding_puts_extra_interval_after_reconfiguration`.
    pub fn run_trace(mut self, pre_intervals: usize, post_intervals: usize) -> SimResult {
        for _ in 0..pre_intervals {
            self.run_interval();
        }
        self.measuring = true;
        for _ in 0..post_intervals / 2 {
            self.run_interval();
        }
        if self.config.scheme.reconfigures() {
            self.reconfigure();
        }
        // Past the trace's one reconfiguration, monitor samples are dead.
        self.monitors_live = false;
        for _ in 0..post_intervals.div_ceil(2) {
            self.run_interval();
        }
        self.finish()
    }

    fn finish(mut self) -> SimResult {
        // Record mode: flush every thread's tap into the trace directory.
        // The cushion (a quarter of the drawn accesses plus a floor) gives
        // replays under other schemes — whose IPC feedback draws more or
        // fewer accesses — headroom before the cursor would wrap.
        if let Some(mix) = self.record_mix.take() {
            let mut logs: Vec<(Vec<TraceRecord>, bool)> = Vec::with_capacity(self.threads.len());
            for t in &mut self.threads {
                let cushion = (t.metrics.accesses / 4 + 1024) as usize;
                logs.push(
                    t.source
                        .finish_tap(cushion)
                        .expect("trace_record set but tap disabled"),
                );
            }
            write_trace(std::path::Path::new(&self.config.trace_record), &mix, &logs)
                .unwrap_or_else(|e| panic!("writing trace to {}: {e}", self.config.trace_record));
        }
        let move_stats = self.llc.stats;
        self.system.demand_moves = self.system.demand_moves.max(move_stats.demand_moves);
        self.system.background_invalidations = move_stats.background_invalidations;
        self.system.bulk_invalidations = move_stats.bulk_invalidations;
        self.system.instant_moves = move_stats.instant_moves;
        self.system.cycles = self
            .threads
            .iter()
            .map(|t| t.metrics.cycles)
            .fold(0.0, f64::max);
        self.system.instructions = self.threads.iter().map(|t| t.metrics.instructions).sum();
        self.system.traffic = self.traffic.clone();
        let llc_accesses: u64 = self.threads.iter().map(|t| t.metrics.accesses).sum();
        let energy = EnergyModel::default().compute(
            self.system.cycles,
            self.system.instructions,
            llc_accesses,
            self.system.traffic.total_flit_hops(),
            self.system.dram_accesses,
        );
        SimResult {
            scheme: self.config.scheme.name(),
            threads: self.threads.into_iter().map(|t| t.metrics).collect(),
            system: self.system,
            energy,
            ipc_trace: self.ipc_trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdcs_workload::MixSpec;

    fn mix(names: &[&str]) -> WorkloadMix {
        WorkloadMix::from_spec(&MixSpec::Named(
            names.iter().map(|s| s.to_string()).collect(),
        ))
        .unwrap()
    }

    fn run_scheme(scheme: Scheme, names: &[&str]) -> SimResult {
        let mut config = SimConfig::small_test();
        config.scheme = scheme;
        Simulation::new(config, mix(names)).unwrap().run()
    }

    #[test]
    fn snuca_runs_and_counts() {
        let r = run_scheme(Scheme::SNuca, &["calculix", "milc"]);
        assert_eq!(r.threads.len(), 2);
        for t in &r.threads {
            assert!(t.instructions > 0.0);
            assert!(t.accesses > 0);
            assert!(t.ipc() > 0.0 && t.ipc() <= 2.0, "ipc {}", t.ipc());
        }
        assert!(r.system.traffic.total_flit_hops() > 0);
    }

    #[test]
    fn fitting_app_hits_streaming_app_misses() {
        // Run each alone: a streaming co-runner would thrash S-NUCA's
        // unpartitioned LRU banks and evict calculix — the paper's premise.
        let fit = run_scheme(Scheme::SNuca, &["calculix"]);
        let stream = run_scheme(Scheme::SNuca, &["milc"]);
        let calculix = &fit.threads[0];
        let milc = &stream.threads[0];
        assert!(
            calculix.hit_ratio() > 0.8,
            "calculix hit ratio {}",
            calculix.hit_ratio()
        );
        assert!(
            milc.hit_ratio() < 0.1,
            "milc hit ratio {}",
            milc.hit_ratio()
        );
    }

    #[test]
    fn cdcs_survives_streaming_corunners() {
        // Several streaming instances churn S-NUCA's shared LRU banks and
        // spread every access across the chip; CDCS isolates calculix in a
        // local partition. (A single milc cannot thrash 8 MB at our rates —
        // the paper's mixes use 14 instances.)
        let names = ["calculix", "milc", "milc", "milc", "milc", "milc", "milc"];
        let s = run_scheme(Scheme::SNuca, &names);
        let c = run_scheme(Scheme::cdcs(), &names);
        let fit_s = &s.threads[0];
        let fit_c = &c.threads[0];
        assert!(
            fit_c.ipc() > fit_s.ipc(),
            "CDCS calculix {} vs S-NUCA {}",
            fit_c.ipc(),
            fit_s.ipc()
        );
        // And CDCS slashes calculix's on-chip latency.
        assert!(
            fit_c.on_chip_per_access() < fit_s.on_chip_per_access() / 2.0,
            "on-chip: CDCS {} vs S-NUCA {}",
            fit_c.on_chip_per_access(),
            fit_s.on_chip_per_access()
        );
    }

    #[test]
    fn rnuca_beats_snuca_on_chip_latency() {
        let s = run_scheme(Scheme::SNuca, &["calculix", "bzip2"]);
        let r = run_scheme(Scheme::rnuca(), &["calculix", "bzip2"]);
        assert!(
            r.mean_on_chip_latency() < s.mean_on_chip_latency() / 2.0,
            "R-NUCA {} vs S-NUCA {}",
            r.mean_on_chip_latency(),
            s.mean_on_chip_latency()
        );
    }

    #[test]
    fn cdcs_beats_snuca_on_cache_fitting_app() {
        // calculix (192 KB) fits easily; under CDCS its VC is sized and
        // placed locally, so IPC must beat hashed S-NUCA placement.
        let s = run_scheme(Scheme::SNuca, &["calculix", "calculix"]);
        let c = run_scheme(Scheme::cdcs(), &["calculix", "calculix"]);
        let si = s.threads[0].ipc() + s.threads[1].ipc();
        let ci = c.threads[0].ipc() + c.threads[1].ipc();
        assert!(ci > si, "CDCS {ci} vs S-NUCA {si}");
    }

    #[test]
    fn jigsaw_reconfigures_and_stays_feasible() {
        let mut config = SimConfig::small_test();
        config.scheme = Scheme::jigsaw_random();
        // Disable the cost-benefit gate so every planned placement applies.
        config.reconfig_benefit_factor = 0.0;
        let r = Simulation::new(config, mix(&["calculix", "bzip2", "milc"]))
            .unwrap()
            .run();
        assert!(r.system.reconfigurations > 0);
    }

    #[test]
    fn benefit_gate_skips_noise_reconfigurations() {
        // With the gate enabled and a stationary workload, the steady state
        // applies few or no reconfigurations in the measured window.
        let r = run_scheme(Scheme::jigsaw_random(), &["calculix", "bzip2"]);
        assert!(
            r.system.reconfigurations <= 1,
            "{}",
            r.system.reconfigurations
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_scheme(Scheme::cdcs(), &["calculix", "bzip2"]);
        let b = run_scheme(Scheme::cdcs(), &["calculix", "bzip2"]);
        assert_eq!(a.system.instructions, b.system.instructions);
        assert_eq!(a.system.traffic, b.system.traffic);
        for (x, y) in a.threads.iter().zip(&b.threads) {
            assert_eq!(x.instructions, y.instructions);
            assert_eq!(x.accesses, y.accesses);
        }
    }

    #[test]
    fn too_many_threads_rejected() {
        let config = SimConfig::small_test(); // 16 tiles
        let m = WorkloadMix::from_spec(&MixSpec::RandomMultiThreaded {
            count: 3, // 24 threads
            mix_seed: 0,
        })
        .unwrap();
        assert!(Simulation::new(config, m).is_err());
    }

    #[test]
    fn multithreaded_mix_shares_process_vc() {
        let r = run_scheme(Scheme::cdcs(), &["ilbdc"]);
        assert_eq!(r.threads.len(), 8);
        // All threads make progress.
        for t in &r.threads {
            assert!(t.ipc() > 0.0);
        }
    }

    #[test]
    fn bulk_invalidation_records_pauses() {
        let mut config = SimConfig::small_test();
        config.scheme = Scheme::jigsaw_random();
        config.move_scheme = MoveScheme::BulkInvalidate;
        config.reconfig_benefit_factor = 0.0; // apply every placement
        let r = Simulation::new(config, mix(&["calculix", "bzip2"]))
            .unwrap()
            .run();
        assert!(r.system.pause_cycles > 0);
        assert!(r.system.bulk_invalidations > 0);
    }

    #[test]
    fn demand_moves_happen_under_cdcs() {
        let mut config = SimConfig::small_test();
        config.scheme = Scheme::cdcs();
        config.move_scheme = MoveScheme::DemandMove;
        // Two apps whose allocations change between epochs.
        let r = Simulation::new(config, mix(&["omnet", "xalancbmk", "bzip2"]))
            .unwrap()
            .run();
        assert_eq!(r.system.pause_cycles, 0, "demand moves never pause");
    }

    #[test]
    fn trace_rounding_puts_extra_interval_after_reconfiguration() {
        // `run_trace(_, 5)` must run floor(5/2) = 2 measured intervals,
        // reconfigure, then ceil(5/2) = 3 more — the odd interval belongs
        // to the post-boundary half (the recovery transient Fig. 17
        // plots). A bulk-invalidation pause marks the boundary in the
        // trace, which is what pins the rounding observably. Seeded and
        // identical on the oracle and on the pipeline at any worker count.
        let make = |reference: bool, intra: usize| {
            let mut config = SimConfig::small_test();
            config.scheme = Scheme::cdcs();
            config.move_scheme = MoveScheme::BulkInvalidate;
            config.reconfig_benefit_factor = 0.0; // force the mid-trace apply
            config.intra_cell_threads = intra;
            let sim = Simulation::new(config, mix(&["omnet", "milc", "calculix"])).unwrap();
            let sim = if reference {
                sim.with_reference_oracle()
            } else {
                sim
            };
            sim.run_trace(2, 5)
        };
        let r = make(false, 0);
        assert_eq!(r, make(true, 0), "pipeline diverged from the oracle");
        assert_eq!(r, make(false, 2), "2 workers diverged on an odd trace");
        assert_eq!(r.system.reconfigurations, 1);
        // 5 interval points plus the pause marker the bulk invalidation
        // inserts — which must sit after exactly 2 measured intervals.
        assert_eq!(r.ipc_trace.len(), 6, "trace: {:?}", r.ipc_trace);
        for (i, &(_, ipc)) in r.ipc_trace.iter().enumerate() {
            if i == 2 {
                assert_eq!(ipc, 0.0, "pause marker must follow interval 2");
            } else {
                assert!(ipc > 0.0, "interval point {i} has no progress");
            }
        }
    }

    #[test]
    fn unwritable_trace_record_dir_is_a_construction_error() {
        // A directory cannot be created under a regular file: the run must
        // be refused up front, not panic in `finish` after it.
        let file = std::env::temp_dir().join(format!("cdcs-record-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let mut config = SimConfig::small_test();
        config.trace_record = file.join("sub").to_string_lossy().into_owned();
        let err = Simulation::new(config, mix(&["calculix"])).err();
        std::fs::remove_file(&file).unwrap();
        assert!(
            err.as_deref().is_some_and(|e| e.contains("trace_record")),
            "{err:?}"
        );
    }

    #[test]
    fn ipc_trace_is_recorded() {
        let r = run_scheme(Scheme::SNuca, &["calculix"]);
        assert!(!r.ipc_trace.is_empty());
        for w in r.ipc_trace.windows(2) {
            assert!(w[1].0 > w[0].0, "trace cycles must increase");
        }
    }
}
