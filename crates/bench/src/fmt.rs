//! Stdout formatters: one per figure/table, rendering an
//! [`ExperimentReport`] into the tables the binaries print. All numbers
//! come from the report (which is what gets persisted), so the stdout view
//! and the JSON artifact can never disagree.

use crate::exp::{ExperimentReport, GridReport, GroupReport, ReportData, SpecKind};
use crate::print_inverse_cdf;
use cdcs_sim::runner::gmean;
use cdcs_workload::WorkloadMix;

/// Geometric mean of each scheme's weighted speedups over the groups
/// selected by `keep`.
fn gmean_ws(grid: &GridReport, keep: impl Fn(&GroupReport) -> bool) -> Vec<(String, f64)> {
    grid.ws_series(keep)
        .into_iter()
        .map(|(name, ws)| {
            let g = if ws.is_empty() { f64::NAN } else { gmean(&ws) };
            (name, g)
        })
        .collect()
}

/// Mean-of-means latency table plus traffic and energy breakdowns (the
/// Fig. 11b–e layout), aggregated over **every** group — callers with a
/// patch axis must pre-filter, or sweep points blend into one table.
fn latency_traffic_energy(grid: &GridReport) {
    let schemes = grid.scheme_names();
    let n_groups = grid.groups.len() as f64;
    let mut onchip = vec![0.0; schemes.len()];
    let mut offchip = vec![0.0; schemes.len()];
    let mut traffic = vec![[0.0f64; 3]; schemes.len()];
    let mut energy = vec![[0.0f64; 5]; schemes.len()];
    let mut instr = vec![0.0; schemes.len()];
    for group in &grid.groups {
        for (i, row) in group.rows.iter().enumerate() {
            onchip[i] += row.on_chip_latency;
            offchip[i] += row.off_chip_latency;
            for (slot, v) in traffic[i].iter_mut().zip(row.flit_hops) {
                *slot += v;
            }
            for (slot, v) in energy[i].iter_mut().zip(row.energy_nj) {
                *slot += v;
            }
            instr[i] += row.instructions;
        }
    }
    println!("\naverage LLC latencies per access, cycles");
    println!("{:<10} {:>10} {:>10}", "scheme", "on-chip", "off-chip");
    for (i, name) in schemes.iter().enumerate() {
        println!(
            "{:<10} {:>10.2} {:>10.2}",
            name,
            onchip[i] / n_groups,
            offchip[i] / n_groups
        );
    }
    println!("\nNoC traffic per instruction (flit-hops), by class");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "L2-LLC", "LLC-Mem", "Other", "total"
    );
    for (i, name) in schemes.iter().enumerate() {
        let t = traffic[i];
        println!(
            "{:<10} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            name,
            t[0] / instr[i],
            t[1] / instr[i],
            t[2] / instr[i],
            (t[0] + t[1] + t[2]) / instr[i]
        );
    }
    println!("\nenergy per instruction (nJ), by component");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scheme", "static", "core", "net", "llc", "mem", "total"
    );
    for (i, name) in schemes.iter().enumerate() {
        let e = energy[i];
        let total: f64 = e.iter().sum();
        println!(
            "{:<10} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            name,
            e[0] / instr[i],
            e[1] / instr[i],
            e[2] / instr[i],
            e[3] / instr[i],
            e[4] / instr[i],
            total / instr[i]
        );
    }
}

/// Fig. 11: inverse-CDF + latency/traffic/energy breakdowns.
pub fn fig11(report: &ExperimentReport, mixes: usize, apps: usize) {
    let grid = report.grid();
    print_inverse_cdf(
        &format!("Fig. 11a: weighted speedup vs S-NUCA, {mixes} mixes of {apps} apps"),
        &grid.ws_series(|_| true),
    );
    latency_traffic_energy(grid);
    println!("\npaper: CDCS 46% gmean WS (up to 76%); Jigsaw+R 38%, Jigsaw+C 34%, R-NUCA 18%; S-NUCA 11x CDCS's on-chip latency, 3x traffic; CDCS saves 36% energy");
}

/// Fig. 12: per-apps-count gmean factor table.
pub fn fig12(report: &ExperimentReport, mixes: usize, apps_points: &[usize]) {
    let grid = report.grid();
    for &apps in apps_points {
        let prefix = format!("st{apps}#");
        println!("Fig. 12 ({apps} apps, {mixes} mixes): gmean weighted speedup vs S-NUCA");
        for (name, g) in gmean_ws(grid, |group| group.mix.starts_with(&prefix)) {
            println!("{name:<14} {g:>8.3}");
        }
        println!();
    }
    println!("paper: at 64 apps thread+data placement dominate; at 4 apps latency-aware allocation dominates");
}

/// Fig. 13: apps-count × scheme gmean table.
pub fn fig13(report: &ExperimentReport, mixes: usize, apps_points: &[usize]) {
    let grid = report.grid();
    println!("Fig. 13: gmean weighted speedup vs S-NUCA ({mixes} mixes per point)");
    print!("{:<8}", "apps");
    for name in grid.scheme_names() {
        print!(" {name:>10}");
    }
    println!();
    for &apps in apps_points {
        let prefix = format!("st{apps}#");
        print!("{apps:<8}");
        for (_, g) in gmean_ws(grid, |group| group.mix.starts_with(&prefix)) {
            print!(" {g:>10.3}");
        }
        println!();
    }
    println!("\npaper: CDCS highest throughout; Jigsaw variants weak at 1-8 apps (latency-oblivious allocations)");
}

/// Fig. 14: inverse-CDF + traffic (4-app mixes).
pub fn fig14(report: &ExperimentReport, mixes: usize) {
    let grid = report.grid();
    print_inverse_cdf(
        &format!("Fig. 14: WS vs S-NUCA, {mixes} mixes of 4 apps"),
        &grid.ws_series(|_| true),
    );
    traffic_by_class(grid);
    println!(
        "\npaper: CDCS 28% gmean, Jigsaw+R 17%, Jigsaw+C 6%; Jigsaw's L2-LLC traffic dominates"
    );
}

/// The shared Fig. 14/15 traffic-per-instruction table.
fn traffic_by_class(grid: &GridReport) {
    let schemes = grid.scheme_names();
    let mut traffic = vec![[0.0f64; 3]; schemes.len()];
    let mut instr = vec![0.0; schemes.len()];
    for group in &grid.groups {
        for (i, row) in group.rows.iter().enumerate() {
            for (slot, v) in traffic[i].iter_mut().zip(row.flit_hops) {
                *slot += v;
            }
            instr[i] += row.instructions;
        }
    }
    println!("\ntraffic per instruction (flit-hops) by class");
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "scheme", "L2-LLC", "LLC-Mem", "Other"
    );
    for (i, name) in schemes.iter().enumerate() {
        println!(
            "{:<10} {:>10.3} {:>10.3} {:>10.3}",
            name,
            traffic[i][0] / instr[i],
            traffic[i][1] / instr[i],
            traffic[i][2] / instr[i]
        );
    }
}

/// Fig. 15: multi-threaded inverse-CDF + traffic.
pub fn fig15(report: &ExperimentReport, mixes: usize, apps: usize) {
    let grid = report.grid();
    print_inverse_cdf(
        &format!("Fig. 15a: WS vs S-NUCA, {mixes} mixes of {apps}x 8-thread apps"),
        &grid.ws_series(|_| true),
    );
    traffic_by_class(grid);
    println!("\npaper: CDCS 21% gmean; Jigsaw+C 19% beats Jigsaw+R 14% on multi-threaded (trends reversed); R-NUCA 9%");
}

/// Fig. 16: under-committed multi-threaded inverse-CDF.
pub fn fig16(report: &ExperimentReport, mixes: usize, apps: usize) {
    let grid = report.grid();
    print_inverse_cdf(
        &format!(
            "Fig. 16a: WS vs S-NUCA, {mixes} mixes of {apps}x 8-thread apps ({}/64 cores)",
            apps * 8
        ),
        &grid.ws_series(|_| true),
    );
    println!(
        "\npaper: CDCS increases its advantage over Jigsaw+C with more freedom to place threads"
    );
}

/// Fig. 17: the per-move-scheme IPC traces.
pub fn fig17(report: &ExperimentReport) {
    let grid = report.grid();
    println!("Fig. 17: aggregate IPC trace around a reconfiguration (interval = 10 Kcycles)");
    for group in &grid.groups {
        let row = &group.rows[0];
        println!("\n{}:", group.patch);
        println!("{:<12} {:>8}", "cycle", "IPC");
        for (cycle, ipc) in &grid.result(row).ipc_trace {
            println!("{cycle:<12} {ipc:>8.2}");
        }
    }
    println!("\npaper: bulk invalidations pause the whole chip ~100 Kcycles; demand moves reconfigure smoothly near the instant-move ideal");
}

/// Fig. 18: period × move-scheme gmean table (reads the typed patch axis
/// from the spec instead of parsing labels).
pub fn fig18(report: &ExperimentReport, mixes: usize, apps: usize, periods: &[u64]) {
    let grid = report.grid();
    println!(
        "Fig. 18: gmean WS vs S-NUCA across reconfiguration periods ({mixes} mixes of {apps} apps)"
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12}",
        "period", "Bulk invs", "Background", "Instant"
    );
    let SpecKind::Grid(spec) = &report.spec.kind else {
        panic!("fig18 is a grid experiment");
    };
    for &period in periods {
        let mut row = Vec::new();
        for patch in &spec.patches {
            if patch.epoch_cycles != Some(period) {
                continue;
            }
            let label = patch.display_label().to_string();
            let per_scheme = gmean_ws(grid, |group| group.patch == label);
            row.push(per_scheme[0].1);
        }
        println!(
            "{:<12} {:>12.3} {:>12.3} {:>12.3}",
            period, row[0], row[1], row[2]
        );
    }
    println!(
        "\npaper: demand moves beat bulk invalidations; differences shrink as the period grows"
    );
}

/// Table 1: per-app and weighted speedups over S-NUCA on the case study.
pub fn table1(report: &ExperimentReport) {
    use std::collections::BTreeMap;
    let grid = report.grid();
    let SpecKind::Grid(spec) = &report.spec.kind else {
        panic!("table1 is a grid experiment");
    };
    let mix = WorkloadMix::from_spec(&spec.mixes[0].spec).expect("case-study mix");
    let group = &grid.groups[0];
    println!("Table 1: per-app and weighted speedups over S-NUCA (paper values in parens)");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8}",
        "scheme", "omnet", "ilbdc", "milc", "WSpdp"
    );
    let paper: BTreeMap<&str, [f64; 4]> = BTreeMap::from([
        ("R-NUCA", [1.09, 0.99, 1.15, 1.08]),
        ("Jigsaw+C", [2.88, 1.40, 1.21, 1.48]),
        ("Jigsaw+R", [3.99, 1.20, 1.21, 1.47]),
        ("CDCS", [4.00, 1.40, 1.20, 1.56]),
    ]);
    for row in &group.rows {
        if row.scheme == "S-NUCA" {
            continue;
        }
        let per_app = grid.per_app_speedups(group, row, &mix);
        let g = |bench: &str| {
            per_app
                .iter()
                .find(|(name, _)| name == bench)
                .map_or(f64::NAN, |&(_, v)| v)
        };
        let p = paper.get(row.scheme.as_str());
        println!(
            "{:<12} {:>8.2} {:>8.2} {:>8.2} {:>8.2}   (paper: {} )",
            row.scheme,
            g("omnet"),
            g("ilbdc"),
            g("milc"),
            row.weighted_speedup.unwrap_or(f64::NAN),
            p.map_or("n/a".to_string(), |v| format!(
                "{:.2} {:.2} {:.2} {:.2}",
                v[0], v[1], v[2], v[3]
            )),
        );
    }
}

/// Bank-granularity ablation: gmean WS per granularity patch.
pub fn coarse_grain(report: &ExperimentReport, mixes: usize, apps: usize) {
    let grid = report.grid();
    println!("bank-granularity ablation: CDCS gmean WS vs S-NUCA ({mixes} mixes of {apps} apps)");
    for patch in patch_labels(grid) {
        let per_scheme = gmean_ws(grid, |group| group.patch == patch);
        println!("{:<22} {:>8.3}", patch, per_scheme[0].1);
    }
    println!("\npaper: 36% gmean at bank granularity vs 46% with fine-grained partitioning");
}

/// Monitor ablation: gmean WS per monitor patch.
pub fn gmon_ablation(report: &ExperimentReport, mixes: usize, apps: usize) {
    let grid = report.grid();
    println!("GMON/UMON ablation: CDCS gmean WS vs S-NUCA ({mixes} mixes of {apps} apps)");
    for patch in patch_labels(grid) {
        let per_scheme = gmean_ws(grid, |group| group.patch == patch);
        println!("{:<12} {:>8.3}", patch, per_scheme[0].1);
    }
    println!("\npaper: GMON-64w ~= UMON-256w; UMON-64w ~3% worse; UMON-1Kw only ~1.1% better");
}

/// Mega-mesh scaling scenario: per-planner-patch gmean WS across schemes.
pub fn mega_mesh(report: &ExperimentReport, tiles: usize) {
    let grid = report.grid();
    println!("mega-mesh scaling ({tiles} tiles): gmean weighted speedup vs S-NUCA");
    for patch in patch_labels(grid) {
        print!("{patch:<10}");
        for (name, g) in gmean_ws(grid, |group| group.patch == patch) {
            print!(" {name}={g:.3}");
        }
        println!();
    }
    println!(
        "\nflat and hier-r2 should land close in WS; the hierarchical planner is what \
         keeps reconfiguration affordable as the mesh grows (see BENCH_planner.json)"
    );
}

/// Dynamic-mix scenario: chip totals per scheme, then each scheme's
/// per-process instruction shares — arrivals show up mid-run, departures
/// stop accruing, so the shares are the scenario's signature.
pub fn dynamic_mix(report: &ExperimentReport) {
    let grid = report.grid();
    println!("dynamic mix (event script): chip totals per scheme");
    println!(
        "{:<10} {:>14} {:>10} {:>10}",
        "scheme", "instructions", "on-chip", "off-chip"
    );
    for group in &grid.groups {
        for row in &group.rows {
            println!(
                "{:<10} {:>14.0} {:>10.2} {:>10.2}",
                row.scheme, row.instructions, row.on_chip_latency, row.off_chip_latency
            );
        }
    }
    println!("\nper-process instructions (process:app=instructions)");
    for group in &grid.groups {
        for row in &group.rows {
            let result = &grid.cells[row.cell].result;
            print!("{:<10}", row.scheme);
            let procs = result.threads.iter().map(|t| t.process).max().unwrap_or(0) + 1;
            for p in 0..procs {
                let threads: Vec<_> = result.threads.iter().filter(|t| t.process == p).collect();
                let instr: f64 = threads.iter().map(|t| t.instructions).sum();
                let app = threads.first().map(|t| t.app.as_str()).unwrap_or("?");
                print!(" {p}:{app}={instr:.0}");
            }
            println!();
        }
    }
}

/// Trace replay: per-scheme totals from replaying the recorded logs.
pub fn trace_replay(report: &ExperimentReport) {
    let grid = report.grid();
    println!("trace replay (recorded access logs through the interval pipeline)");
    println!(
        "{:<10} {:>14} {:>10} {:>10}",
        "scheme", "instructions", "on-chip", "off-chip"
    );
    for group in &grid.groups {
        for row in &group.rows {
            println!(
                "{:<10} {:>14.0} {:>10.2} {:>10.2}",
                row.scheme, row.instructions, row.on_chip_latency, row.off_chip_latency
            );
        }
    }
}

/// Distinct patch labels in group order.
fn patch_labels(grid: &GridReport) -> Vec<String> {
    let mut labels: Vec<String> = Vec::new();
    for group in &grid.groups {
        if !labels.contains(&group.patch) {
            labels.push(group.patch.clone());
        }
    }
    labels
}

/// Fig. 2: per-app exact/GMON MPKI table.
pub fn fig2(report: &ExperimentReport) {
    let ReportData::MissCurves(data) = &report.data else {
        panic!("fig2 is a miss-curve experiment");
    };
    println!("Fig. 2: miss curves (MPKI vs LLC size in MB); exact / GMON-measured");
    print!("{:<8}", "MB");
    for name in &data.apps {
        print!(" {name:>9}ex {name:>8}gm");
    }
    println!();
    for row in &data.rows {
        print!("{:<8.2}", row.mb);
        for (ex, gm) in &row.mpki {
            print!(" {ex:>11.1} {gm:>10.1}");
        }
        println!();
    }
    println!("\npaper: omnet ~85 MPKI cliff vanishing at 2.5 MB; milc flat ~25; ilbdc small footprint (512 KB)");
}

/// Fig. 5: the latency-vs-capacity decomposition table.
pub fn fig5(report: &ExperimentReport) {
    let ReportData::LatencyCapacity(data) = &report.data else {
        panic!("fig5 is a latency-capacity experiment");
    };
    println!("Fig. 5: latency vs capacity (per-access cycles)");
    println!(
        "{:<10} {:>10} {:>10} {:>10}",
        "lines", "off-chip", "on-chip", "total"
    );
    for row in &data.rows {
        println!(
            "{:<10.0} {:>10.2} {:>10.2} {:>10.2}",
            row.lines, row.off_chip, row.on_chip, row.total
        );
    }
    println!("\npaper: off-chip falls, on-chip rises; total has a sweet spot");
}

/// Table 3: planner-runtime table with the overhead row.
pub fn table3(report: &ExperimentReport) {
    let ReportData::PlannerRuntime(data) = &report.data else {
        panic!("table3 is a planner-runtime experiment");
    };
    println!("Table 3: reconfiguration runtime (Mcycles at a nominal 2 GHz host clock)");
    print!("{:<28}", "step");
    for col in &data.columns {
        print!(" {col:>10}");
    }
    println!();
    for (label, values) in &data.rows {
        print!("{label:<28}");
        for v in values {
            print!(" {v:>10.3}");
        }
        println!();
    }
    // Overhead at the paper's 25 ms / 50 Mcycle period.
    let period = 50.0;
    if let Some((_, totals)) = data.rows.last() {
        print!("{:<28}", "Overhead @ 25ms");
        for (col, total) in data.columns.iter().zip(totals) {
            let cores: f64 = col
                .split('/')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(64.0);
            print!(" {:>9.3}%", total / (period * cores) * 100.0);
        }
        println!();
    }
    println!("\npaper: 0.72 / 1.46 / 6.49 Mcycles total; 0.09 / 0.05 / 0.20 % overhead");
}

/// Placement-alternative ablation tables.
pub fn placement_ablation(report: &ExperimentReport) {
    let ReportData::PlacementAlternatives(data) = &report.data else {
        panic!("placement_ablation is a placement-alternatives experiment");
    };
    println!("placement ablation, small instances, Eq. 2 cost:");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "seed", "CDCS", "exhaustive", "SA", "bisection"
    );
    for row in &data.small {
        println!(
            "{:<12} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
            row.seed,
            row.cdcs,
            row.exhaustive.unwrap_or(f64::NAN),
            row.annealed,
            row.bisection
        );
    }
    println!("\nlarge instances:");
    println!(
        "{:<12} {:>12} {:>14} {:>12} {:>14}",
        "seed", "CDCS", "SA", "bisection", "SA time"
    );
    for row in &data.large {
        println!(
            "{:<12} {:>12.0} {:>14.0} {:>12.0} {:>12.1}s",
            row.seed, row.cdcs, row.annealed, row.bisection, row.sa_seconds
        );
    }
    println!("\npaper: SA only 0.6% better than CDCS and far too slow; graph partitioning 2.5% worse network latency; ILP data placement +0.5%");
}
