//! `perfbench`: the repository benchmark.
//!
//! ```sh
//! perfbench --workload <fig12_64|sweep_small|serve_local|serve_fleet> \
//!           --seed N --seconds S --trace <0|1> \
//!           --serve-bin PATH --runner-bin PATH --work-dir DIR
//! perfbench --self-test --serve-bin PATH --runner-bin PATH --work-dir DIR
//! ```
//!
//! Run it from the repository root (it reads `out/` goldens and the
//! `specs/traces/` fixture, and spawns the daemon there); `run.py` builds
//! it and passes the binary paths. Every metric prints as
//! `metric <name> <value> <unit>`; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics untraced, the per-layer metrics traced. See `README.md` beside
//! this crate for each workload's rationale and each metric's definition.

mod check;
mod inproc;
mod layers;
mod served;
mod stats;
mod stream;
mod trace;

use cdcs_bench::exp::{ExperimentReport, SpecKind};
use cdcs_serve::Client;
use cdcs_workload::WorkloadMix;
use served::Bins;
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use stream::Stream;
use trace::Tracer;

/// Every metric the benchmark prints: name, unit, which direction is
/// better. The first block is what an untraced run reports, the second
/// what a traced run reports (both as listed in `BENCHMARK.json`); the
/// rest print as lines only, because they do not apply to every workload.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("job_mean_ms", "ms", "lower"),
    ("jobs_per_s", "jobs/s", "higher"),
    ("sim_maccess_per_s", "Maccess/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("sim.run_ns_per_access.unpart", "ns", "lower"),
    ("sim.run_ns_per_access.part", "ns", "lower"),
    ("sim.new_ms.p50", "ms", "lower"),
    ("sim.new_ms.max", "ms", "lower"),
    ("sim.cell_ms_max", "ms", "lower"),
    ("sim.pool_idle_share", "share", "lower"),
    ("bench.expand_ms", "ms", "lower"),
    ("bench.assemble_ms", "ms", "lower"),
    ("bench.artifact_ms", "ms", "lower"),
    ("core.plan_ms.64t", "ms", "lower"),
    ("core.plan_ms.16t", "ms", "lower"),
    ("cache.pool_ns", "ns", "lower"),
    ("cache.monitor_ns", "ns", "lower"),
    ("workload.draw_ns", "ns", "lower"),
    ("mesh.tables_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
];
const LINES_ONLY: &[(&str, &str, &str)] = &[
    ("wall_s", "s", "lower"),
    ("jobs_timed", "count", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p90_ms", "ms", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("reference.job_mean_ms", "ms", "lower"),
    ("serve.repeat_share", "share", "higher"),
    ("serve.ready_ms", "ms", "lower"),
    ("serve.submit_ms", "ms", "lower"),
    ("serve.queue_ms", "ms", "lower"),
    ("serve.service_ms", "ms", "lower"),
    ("serve.report_ms", "ms", "lower"),
    ("fleet.leases_per_s", "1/s", "higher"),
    ("fleet.runner_skew", "ratio", "lower"),
    ("fleet.requeued", "count", "lower"),
    ("sim.new_ms.p50.64t", "ms", "lower"),
    ("sim.new_ms.p50.16t", "ms", "lower"),
    ("sim.cells", "count", "exact"),
    ("sim.accesses", "count", "exact"),
    ("bench.report_kb", "KB", "exact"),
];

/// Repetitions of the set-up step; `setup_s` is their median. In process,
/// each sample times a batch of set-ups (one takes well under a
/// millisecond) and divides.
const SETUP_REPEATS_INPROC: usize = 15;
const SETUP_BATCH_INPROC: usize = 20;
const SETUP_REPEATS_SERVED: usize = 9;

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(LINES_ONLY)
        .find(|m| m.0 == name)
        .map(|m| m.1)
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bins: Bins,
    work_dir: PathBuf,
    corrupt_reference: bool,
}

/// What one workload run produced.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    /// Failed checks, one line each.
    problems: Vec<String>,
    /// Every metric computed, in print order.
    metrics: Vec<(&'static str, f64)>,
    digest: String,
    /// Distinct specs whose artifact matched a committed golden.
    goldens: Vec<String>,
    /// Compact JSON of the distinct specs (for the self-test).
    specs: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    fn fail(&mut self, problem: String) {
        eprintln!("perfbench: check failed: {problem}");
        self.problems.push(problem);
        self.failed += 1;
    }
}

/// First-occurrence artifacts of a stream's distinct specs: the reference
/// every later run of the same spec (in process or served) must equal.
struct References {
    bytes: Vec<Option<String>>,
    accesses: Vec<u64>,
    cells: Vec<usize>,
    first_report: Option<ExperimentReport>,
}

impl References {
    fn new(n: usize) -> References {
        References {
            bytes: vec![None; n],
            accesses: vec![0; n],
            cells: vec![0; n],
            first_report: None,
        }
    }

    /// Checks one finished in-process job of spec `d` and returns whether
    /// it passed: result invariants, then either byte-equality with the
    /// reference or — for the first run — the committed golden, if the
    /// spec has one.
    fn check(
        &mut self,
        out: &mut Outcome,
        stream: &Stream,
        d: usize,
        run: &inproc::JobRun,
    ) -> bool {
        if let Err(e) = check::report_invariants(&run.report) {
            out.fail(e);
            return false;
        }
        if let Some(reference) = &self.bytes[d] {
            if *reference != run.bytes {
                out.fail(format!(
                    "{}: artifact differs from the first run",
                    stream.specs[d].name
                ));
                return false;
            }
            return true;
        }
        if let Some(golden) = check::golden_for(&stream.specs[d]) {
            if golden != run.bytes {
                out.fail(format!(
                    "{}: artifact differs from out/{0}.json",
                    stream.specs[d].name
                ));
                return false;
            }
            out.goldens.push(stream.specs[d].name.clone());
        }
        self.bytes[d] = Some(run.bytes.clone());
        self.accesses[d] = check::accesses(&run.report);
        self.cells[d] = check::cells(&run.report);
        if self.first_report.is_none() {
            self.first_report = Some(run.report.clone());
        }
        true
    }

    /// Runs every distinct spec once, untraced, to fill the references.
    fn compute(out: &mut Outcome, stream: &Stream, dir: &Path) -> References {
        let mut refs = References::new(stream.specs.len());
        let untraced = Tracer::new(false);
        for (d, spec) in stream.specs.iter().enumerate() {
            out.attempted += 1;
            match inproc::run_job(spec, dir, &untraced, 0) {
                Ok(run) => {
                    refs.check(out, stream, d, &run);
                }
                Err(e) => out.fail(format!("{}: {e}", spec.name)),
            }
        }
        refs
    }

    /// Digest, counts and the simulated-access total of a set of jobs.
    fn finish(&self, out: &mut Outcome, stream: &Stream) {
        let mut digest = check::Digest::new();
        for (spec, bytes) in stream.specs.iter().zip(&self.bytes) {
            digest.add(spec.name.as_bytes());
            match bytes {
                Some(b) => digest.add(b.as_bytes()),
                None => out.fail(format!("{}: never ran", spec.name)),
            }
        }
        out.digest = digest.hex();
        out.specs = stream.json.clone();
        out.set("sim.cells", self.cells.iter().sum::<usize>() as f64);
        out.set("sim.accesses", self.accesses.iter().sum::<u64>() as f64);
        let bytes: usize = self.bytes.iter().flatten().map(String::len).sum();
        out.set("bench.report_kb", bytes as f64 / 1024.0);
    }
}

/// The latency/throughput metrics of a set of timed jobs.
fn job_metrics(out: &mut Outcome, walls_ms: &[f64], ok_jobs: usize, accesses: u64, loop_s: f64) {
    // The mean is the reported latency: served latencies are quantized by
    // the client's 200 ms poll (and fleet leases by their heartbeat), so a
    // median of a few dozen jobs jumps by whole poll periods between runs.
    out.set(
        "job_mean_ms",
        walls_ms.iter().sum::<f64>() / walls_ms.len() as f64,
    );
    out.set("jobs_timed", walls_ms.len() as f64);
    out.set("job_p50_ms", median(walls_ms.to_vec()));
    // p90 only when at least 10 jobs lie beyond it.
    if walls_ms.len() >= 100 {
        out.set("job_p90_ms", quantile(walls_ms.to_vec(), 0.9));
    }
    out.set("jobs_per_s", ok_jobs as f64 / loop_s);
    out.set("sim_maccess_per_s", accesses as f64 / 1e6 / loop_s);
}

fn make_stream(opts: &Opts) -> Stream {
    match opts.workload.as_str() {
        "fig12_64" => stream::fig12_64(opts.seed),
        _ => stream::small_stream(opts.seed),
    }
}

/// `fig12_64` and `sweep_small`: one caller runs jobs back to back in
/// process until `--seconds` have passed and every distinct spec ran.
fn run_inproc(opts: &Opts, tracer: &Tracer, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: spec construction and expansion.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPEATS_INPROC {
        let start = Instant::now();
        for _ in 0..SETUP_BATCH_INPROC {
            let stream = make_stream(opts);
            for spec in &stream.specs {
                if let SpecKind::Grid(grid) = &spec.kind {
                    std::hint::black_box(grid.expand()?);
                }
            }
        }
        setup.push(start.elapsed().as_secs_f64() / SETUP_BATCH_INPROC as f64);
    }
    let stream = make_stream(opts);
    let mut refs = References::new(stream.specs.len());
    let untraced = Tracer::new(false);
    // Every distinct spec runs at least once. A traced run alternates
    // untraced and traced passes over every variant, so the trace overhead
    // compares the same jobs, warm, under the same machine conditions.
    let cycle = stream.variants();
    let min_rounds = if tracer.enabled() { 2 * cycle } else { cycle };
    let round = stream.round_len();
    let mut walls_ms: Vec<f64> = Vec::new();
    let mut by_mode: [Vec<Vec<f64>>; 2] = [
        vec![Vec::new(); stream.specs.len()],
        vec![Vec::new(); stream.specs.len()],
    ];
    let mut ok_jobs = 0;
    let mut accesses = 0u64;
    let start = Instant::now();
    let mut n = 0;
    // Whole rounds only: every kind runs equally often in every run.
    while n < min_rounds * round || n % round != 0 || start.elapsed().as_secs_f64() < opts.seconds {
        let d = stream.job(n);
        let traced = tracer.enabled() && (n / round / cycle) % 2 == 1;
        out.attempted += 1;
        match inproc::run_job(
            &stream.specs[d],
            dir,
            if traced { tracer } else { &untraced },
            n as u64,
        ) {
            Ok(run) => {
                let ms = run.wall.as_secs_f64() * 1e3;
                walls_ms.push(ms);
                by_mode[usize::from(traced)][d].push(ms);
                if refs.check(&mut out, &stream, d, &run) {
                    ok_jobs += 1;
                    accesses += refs.accesses[d];
                }
            }
            Err(e) => out.fail(format!("{}: {e}", stream.specs[d].name)),
        }
        n += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();
    refs.finish(&mut out, &stream);
    if opts.workload == "fig12_64" {
        if let Some(report) = &refs.first_report {
            println!("model (simulated; not validated against hardware, information only):");
            cdcs_bench::fmt::fig12(report, 1, &[64, 4]);
        }
    }
    if tracer.enabled() {
        let [plain, traced] = by_mode.map(|per_spec| per_spec.into_iter().map(median).sum::<f64>());
        out.set("trace.overhead", traced / plain);
        layer_metrics(&mut out, tracer);
        probes(&mut out, &stream);
    } else {
        job_metrics(&mut out, &walls_ms, ok_jobs, accesses, loop_s);
        if opts.workload == "fig12_64" {
            out.set("wall_s", median(walls_ms.clone()) / 1e3);
        }
        out.set(
            "peak_rss_mb",
            stats::peak_rss_mb("self").unwrap_or(f64::NAN),
        );
        out.set("setup_s", median(setup));
    }
    Ok(out)
}

/// `serve_local` and `serve_fleet`: the small stream through a daemon,
/// from `nproc` closed-loop client threads.
fn run_served(opts: &Opts, fleet: bool, tracer: &Tracer, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let stream = make_stream(opts);
    // References outside the timed window. Their mean job time is the
    // floor-free baseline of the served latency.
    let start = Instant::now();
    let mut refs = References::compute(&mut out, &stream, dir);
    out.set(
        "reference.job_mean_ms",
        start.elapsed().as_secs_f64() * 1e3 / stream.specs.len() as f64,
    );
    refs.finish(&mut out, &stream);
    if opts.corrupt_reference {
        if let Some(bytes) = refs.bytes[0].as_mut() {
            bytes.push(' ');
        }
    }
    if tracer.enabled() {
        // The same specs in process, warm, untraced then traced: the
        // simulator and bench spans, the trace overhead, and the check that
        // a traced job writes the same artifact.
        let untraced = Tracer::new(false);
        let (mut plain, mut traced) = (0.0, 0.0);
        for (d, spec) in stream.specs.iter().enumerate() {
            for (tracer, total) in [(&untraced, &mut plain), (tracer, &mut traced)] {
                out.attempted += 1;
                match inproc::run_job(spec, dir, tracer, 1_000_000 + d as u64) {
                    Ok(run) if Some(&run.bytes) == refs.bytes[d].as_ref() => {
                        *total += run.wall.as_secs_f64() * 1e3;
                    }
                    Ok(_) => out.fail(format!(
                        "{}: artifact differs from the reference",
                        spec.name
                    )),
                    Err(e) => out.fail(format!("{}: {e}", spec.name)),
                }
            }
        }
        out.set("trace.overhead", traced / plain);
    }
    let clients = nproc();
    // Set-up: the service's cold start, from daemon spawn until the first
    // job's report is in hand through the client the timed loop uses,
    // several times; the last service serves the timed loop. Readiness
    // alone is a few milliseconds of process start-up, which followed the
    // host's load (its median moved by 25-50% between sets of runs of the
    // same code on a shared 2-vCPU VM); the first report adds the client's
    // poll and, for the fleet, the lease floors, which do not. It prints as
    // `serve.ready_ms`.
    let first = stream
        .specs
        .iter()
        .position(|s| s.name == "quickstart_small")
        .ok_or("the small stream has no quickstart job")?;
    let (mut setup, mut ready) = (Vec::new(), Vec::new());
    let mut service = None;
    for _ in 0..SETUP_REPEATS_SERVED {
        drop(service.take());
        let start = Instant::now();
        let mut started = served::start(&opts.bins, fleet, clients)?;
        if fleet {
            started.add_runners(&opts.bins)?;
        }
        ready.push(start.elapsed().as_secs_f64() * 1e3);
        let report =
            Client::new(started.addr.clone()).run(&stream.json[first], served::CLIENT_POLL);
        setup.push(start.elapsed().as_secs_f64());
        out.attempted += 1;
        match report {
            Ok(bytes) if Some(&bytes) == refs.bytes[first].as_ref() => {}
            Ok(_) => out.fail(format!(
                "set-up job ({}): served report differs from the in-process artifact",
                stream.specs[first].name
            )),
            Err(e) => out.fail(format!("set-up job ({}): {e}", stream.specs[first].name)),
        }
        service = Some(started);
    }
    let service = service.expect("at least one set-up");
    out.set("serve.ready_ms", median(ready));
    let before = served::fleet_status(&service.addr);
    // Whole cycles of rounds: every run weighs each variant equally.
    let (jobs, wall, rss) = served::client_loops(
        &service,
        clients,
        opts.seconds,
        stream.round_len() * stream.variants(),
        &stream.json,
        &|n| stream.job(n),
        tracer,
    );
    let after = served::fleet_status(&service.addr);
    drop(service);

    let mut walls_ms = Vec::new();
    let mut ok_jobs = 0;
    let mut accesses = 0u64;
    let mut seen = vec![false; stream.specs.len()];
    let mut repeats = 0;
    for job in &jobs {
        out.attempted += 1;
        walls_ms.push(job.wall.as_secs_f64() * 1e3);
        repeats += usize::from(seen[job.d]);
        seen[job.d] = true;
        match &job.report {
            Ok(bytes) if Some(bytes) == refs.bytes[job.d].as_ref() => {
                ok_jobs += 1;
                accesses += refs.accesses[job.d];
            }
            Ok(_) => out.fail(format!(
                "job {} ({}): served report differs from the in-process artifact",
                job.n, stream.specs[job.d].name
            )),
            Err(e) => out.fail(format!("job {} ({}): {e}", job.n, stream.specs[job.d].name)),
        }
    }
    let loop_s = wall.as_secs_f64();
    out.set("serve.repeat_share", repeats as f64 / jobs.len() as f64);
    if fleet {
        let completed = after.completed.saturating_sub(before.completed);
        out.set("fleet.leases_per_s", completed as f64 / loop_s);
        let per_runner: Vec<usize> = after.runners.iter().map(|r| r.completed).collect();
        let max = per_runner.iter().copied().max().unwrap_or(0);
        let min = per_runner.iter().copied().min().unwrap_or(0).max(1);
        out.set("fleet.runner_skew", max as f64 / min as f64);
        out.set(
            "fleet.requeued",
            after.requeued.saturating_sub(before.requeued) as f64,
        );
    }
    if tracer.enabled() {
        let phase = |k: usize| median(jobs.iter().filter_map(|j| j.phases.map(|p| p[k])).collect());
        out.set("serve.submit_ms", phase(0));
        out.set("serve.queue_ms", phase(1));
        out.set("serve.service_ms", phase(2));
        out.set("serve.report_ms", phase(3));
        layer_metrics(&mut out, tracer);
        probes(&mut out, &stream);
    } else {
        job_metrics(&mut out, &walls_ms, ok_jobs, accesses, loop_s);
        out.set("peak_rss_mb", rss);
        out.set("setup_s", median(setup));
    }
    Ok(out)
}

/// Per-layer metrics derived from the recorded spans.
fn layer_metrics(out: &mut Outcome, tracer: &Tracer) {
    let spans = tracer.spans();
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    for (metric, name) in [
        ("sim.run_ns_per_access.unpart", "sim.run.unpart"),
        ("sim.run_ns_per_access.part", "sim.run.part"),
    ] {
        let ns: u64 = named(name).map(|s| s.dur_ns()).sum();
        let accesses: u64 = named(name).map(|s| s.arg).sum();
        out.set(metric, ns as f64 / accesses as f64);
    }
    let new_ms = |tiles: Option<u64>| {
        median(
            named("sim.new")
                .filter(|s| tiles.is_none_or(|t| s.arg == t))
                .map(|s| s.ms())
                .collect(),
        )
    };
    out.set("sim.new_ms.p50", new_ms(None));
    out.set(
        "sim.new_ms.max",
        named("sim.new").map(|s| s.ms()).fold(f64::NAN, f64::max),
    );
    for (metric, tiles) in [("sim.new_ms.p50.64t", 64), ("sim.new_ms.p50.16t", 16)] {
        let v = new_ms(Some(tiles));
        if v.is_finite() {
            out.set(metric, v);
        }
    }
    // The slowest cell per job, then the median over jobs.
    let mut slowest: Vec<(u64, f64)> = Vec::new();
    for s in named("sim.cell") {
        match slowest.iter_mut().find(|(job, _)| *job == s.job) {
            Some(entry) => entry.1 = entry.1.max(s.ms()),
            None => slowest.push((s.job, s.ms())),
        }
    }
    out.set(
        "sim.cell_ms_max",
        median(slowest.iter().map(|e| e.1).collect()),
    );
    // Pool idle share: 1 − Σ cell busy ÷ (workers × grid wall).
    let (mut busy, mut capacity) = (0u64, 0u64);
    for (id, grid) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "sim.grid")
    {
        capacity += grid.arg * grid.dur_ns();
        busy += spans
            .iter()
            .filter(|s| s.parent == Some(id) && s.name == "sim.cell")
            .map(|s| s.dur_ns())
            .sum::<u64>();
    }
    out.set("sim.pool_idle_share", 1.0 - busy as f64 / capacity as f64);
    for (metric, name) in [
        ("bench.expand_ms", "bench.expand"),
        ("bench.assemble_ms", "bench.assemble"),
        ("bench.artifact_ms", "bench.artifact"),
    ] {
        out.set(metric, median(named(name).map(|s| s.ms()).collect()));
    }
}

/// The standalone probes, on the chip and first mix of the stream's first
/// grid spec.
fn probes(out: &mut Outcome, stream: &Stream) {
    let Some(grid) = stream.specs.iter().find_map(|s| match &s.kind {
        SpecKind::Grid(g) => Some(g),
        _ => None,
    }) else {
        return;
    };
    let Ok(mix) = WorkloadMix::from_spec(&grid.mixes[0].spec) else {
        return;
    };
    let p = layers::run(&grid.base.config(), &mix);
    out.set("core.plan_ms.64t", p.plan_ms_64t);
    out.set("core.plan_ms.16t", p.plan_ms_16t);
    out.set("cache.pool_ns", p.pool_ns);
    out.set("cache.monitor_ns", p.monitor_ns);
    out.set("workload.draw_ns", p.draw_ns);
    out.set("mesh.tables_ms", p.tables_ms);
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_workload(opts: &Opts, tracer: &Tracer) -> Result<Outcome, String> {
    // In-process artifacts go to a private temporary directory.
    let dir = opts.work_dir.join(format!("tmp-{}", std::process::id()));
    let result = match opts.workload.as_str() {
        "fig12_64" | "sweep_small" => run_inproc(opts, tracer, &dir),
        "serve_local" => run_served(opts, false, tracer, &dir),
        "serve_fleet" => run_served(opts, true, tracer, &dir),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Prints every metric as a line, then the result object.
fn report(opts: &Opts, out: &Outcome) -> Result<(), String> {
    println!(
        "workload {} seed {} trace {}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    println!("sim.digest {}", out.digest);
    if !out.goldens.is_empty() {
        println!("goldens matched: {}", out.goldens.join(", "));
    }
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("jobs attempted {} failed {}", out.attempted, out.failed);
    let mut lines = out.metrics.clone();
    lines.push(("fail_ratio", fail_ratio));
    for (name, value) in &lines {
        let unit = unit_of(name).ok_or_else(|| format!("metric {name} has no unit"))?;
        println!("metric {name} {value} {unit}");
    }
    let listed = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut problems = out.problems.clone();
    let mut fields = Vec::new();
    for (name, unit, _) in listed {
        let value = match out.get(name) {
            Some(v) if v.is_finite() => v,
            other => {
                problems.push(format!("metric {name} is {other:?}"));
                -1.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        problems.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    Ok(())
}

fn write_spans(opts: &Opts, tracer: &Tracer) -> Result<(), String> {
    let spans = tracer.spans();
    for (name, count, total, own) in trace::summary(&spans) {
        println!("span {name:<16} count {count:>6} total_ms {total:>12.3} self_ms {own:>12.3}");
    }
    let path = opts
        .work_dir
        .join(format!("spans-{}-seed{}.tsv", opts.workload, opts.seed));
    std::fs::write(&path, trace::to_tsv(&spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

/// Smoke-scale checks of the benchmark itself.
fn self_test(base: &Opts) -> Result<(), String> {
    let opts = |workload: &str, seed: u64, corrupt: bool| Opts {
        workload: workload.into(),
        seed,
        seconds: 0.0,
        trace: false,
        bins: Bins {
            serve: base.bins.serve.clone(),
            runner: base.bins.runner.clone(),
        },
        work_dir: base.work_dir.clone(),
        corrupt_reference: corrupt,
    };
    let untraced = Tracer::new(false);
    let mut errors = Vec::new();
    let mut expect = |ok: bool, what: String| {
        println!("self-test: {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            errors.push(what);
        }
    };

    let seed0 = run_workload(&opts("sweep_small", 0, false), &untraced)?;
    expect(
        seed0.problems.is_empty() && seed0.failed == 0,
        "sweep_small seed 0 passes every check".into(),
    );
    for golden in ["quickstart_small", "fig12_small", "dynamic_mix_small"] {
        expect(
            seed0.goldens.iter().any(|g| g == golden),
            format!("seed 0 reproduces out/{golden}.json"),
        );
    }
    // The traced run: every per-layer metric is finite and the traced jobs
    // write the same artifacts.
    let traced = run_workload(&opts("sweep_small", 0, false), &Tracer::new(true))?;
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.0)
        .filter(|name| !traced.get(name).is_some_and(f64::is_finite))
        .collect();
    expect(
        missing.is_empty() && traced.failed == 0,
        format!("a traced run reports every per-layer metric (missing: {missing:?})"),
    );
    expect(
        traced.digest == seed0.digest,
        "traced jobs have the untraced digest".into(),
    );
    let seed1 = run_workload(&opts("sweep_small", 1, false), &untraced)?;
    let shared = seed1
        .specs
        .iter()
        .filter(|s| seed0.specs.contains(s))
        .count();
    expect(
        shared == 1 && seed1.digest != seed0.digest,
        format!("seed 1 generates different specs ({shared} shared with seed 0: fig5)"),
    );
    expect(
        seed1.problems.is_empty() && seed1.failed == 0,
        "sweep_small seed 1 passes every check".into(),
    );
    for workload in ["serve_local", "serve_fleet"] {
        let served = run_workload(&opts(workload, 0, false), &untraced)?;
        expect(
            served.problems.is_empty() && served.failed == 0 && served.digest == seed0.digest,
            format!("{workload} reports are byte-equal to the in-process artifacts"),
        );
    }
    let corrupt = run_workload(&opts("serve_local", 0, true), &untraced)?;
    expect(
        corrupt.failed > 0,
        format!(
            "a corrupted reference fails jobs (fail_ratio {:.3})",
            corrupt.failed as f64 / corrupt.attempted.max(1) as f64
        ),
    );
    // Every metric has a unit, and BENCHMARK.json lists exactly the
    // reported metrics with the same units.
    for (name, _) in seed0
        .metrics
        .iter()
        .chain(&traced.metrics)
        .chain(&corrupt.metrics)
    {
        expect(
            unit_of(name).is_some(),
            format!("metric {name} prints with a unit"),
        );
    }
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => {
            let declared = END_TO_END.iter().chain(PER_LAYER);
            for (name, unit, _) in declared.clone() {
                expect(
                    text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    format!("BENCHMARK.json lists {name} in {unit}"),
                );
            }
            expect(
                text.matches("\"unit\":").count() == declared.count(),
                "BENCHMARK.json lists no other metric".into(),
            );
        }
        Err(e) => expect(false, format!("reading BENCHMARK.json: {e}")),
    }
    if errors.is_empty() {
        println!("self-test: passed");
        Ok(())
    } else {
        Err(format!("self-test: {} check(s) failed", errors.len()))
    }
}

fn parse_args() -> Result<(Opts, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let required = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let self_test = args.iter().any(|a| a == "--self-test");
    let opts = Opts {
        workload: if self_test {
            String::new()
        } else {
            required("--workload")?
        },
        seed: value("--seed")
            .map_or(Ok(0), |s| s.parse())
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")
            .map_or(Ok(10.0), |s| s.parse())
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        bins: Bins {
            serve: required("--serve-bin")?.into(),
            runner: required("--runner-bin")?.into(),
        },
        work_dir: required("--work-dir")?.into(),
        corrupt_reference: false,
    };
    Ok((opts, self_test))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|(opts, testing)| {
        if testing {
            return self_test(&opts);
        }
        let tracer = Tracer::new(opts.trace);
        let out = run_workload(&opts, &tracer)?;
        if opts.trace {
            write_spans(&opts, &tracer)?;
        }
        report(&opts, &out)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
