//! The declarative experiment API: typed specs in, structured reports out.
//!
//! Every figure/table binary (and example) declares its sweep as an
//! [`ExperimentSpec`]: axes of schemes × mixes × seeds × [`ConfigPatch`]es
//! over a named base config, or one of the four analysis experiments that
//! don't drive the full simulator. [`ExperimentSpec::run`] expands a grid
//! spec into **one flat cell list** — including the deduplicated alone-perf
//! runs the weighted-speedup methodology needs — executes everything in a
//! single [`runner::run_grid`] wave (no idle cores between alone and scheme
//! phases, or between sweep points), and assembles an [`ExperimentReport`]:
//! per-cell [`SimResult`]s plus derived per-group rollups (weighted
//! speedup, latency, traffic, energy). Reports serialize to JSON artifacts
//! via [`crate::artifact`] and deserialize back bit-exactly.

use crate::analysis::{
    LatencyCapacityReport, LatencyCapacitySpec, MissCurvesReport, MissCurvesSpec,
    PlacementAlternativesReport, PlacementAlternativesSpec, PlannerRuntimeReport,
    PlannerRuntimeSpec,
};
use cdcs_sim::runner::{self, CellRun, GridCell};
use cdcs_sim::{ConfigPatch, Scheme, SimConfig, SimResult};
use cdcs_workload::{MixSpec, WorkloadMix};
use serde::{Deserialize, Serialize};

/// Which base [`SimConfig`] a grid experiment starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaseConfig {
    /// The paper's 64-core target system ([`SimConfig::default`]).
    Target,
    /// The §II-B 36-tile case-study chip ([`SimConfig::case_study`]).
    CaseStudy,
    /// The fast 4×4 test chip ([`SimConfig::small_test`]).
    SmallTest,
    /// A 256-tile (16×16) mega-mesh ([`SimConfig::mega_mesh`] at side 16).
    Mega256,
    /// A 1024-tile (32×32) mega-mesh ([`SimConfig::mega_mesh`] at side 32).
    Mega1024,
}

impl BaseConfig {
    /// Materializes the base configuration.
    pub fn config(self) -> SimConfig {
        match self {
            BaseConfig::Target => SimConfig::default(),
            BaseConfig::CaseStudy => SimConfig::case_study(),
            BaseConfig::SmallTest => SimConfig::small_test(),
            BaseConfig::Mega256 => SimConfig::mega_mesh(16),
            BaseConfig::Mega1024 => SimConfig::mega_mesh(32),
        }
    }
}

/// One mix axis entry: a declarative [`MixSpec`] plus its report label.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixEntry {
    /// Stable label used in reports and formatters (e.g. `"st64#3"`).
    pub label: String,
    /// The mix recipe.
    pub spec: MixSpec,
}

impl MixEntry {
    /// Builds an entry with an auto-derived label.
    pub fn auto(spec: MixSpec) -> Self {
        let label = match &spec {
            MixSpec::RandomSingleThreaded { count, mix_seed } => format!("st{count}#{mix_seed}"),
            MixSpec::RandomMultiThreaded { count, mix_seed } => format!("mt{count}#{mix_seed}"),
            MixSpec::CaseStudy => "case-study".to_string(),
            MixSpec::Named(names) => {
                let joined = names.join("+");
                if joined.chars().count() > 40 {
                    let head: String = joined.chars().take(32).collect();
                    format!("{head}+...x{}", names.len())
                } else {
                    joined
                }
            }
        };
        MixEntry { label, spec }
    }
}

/// A full simulator sweep: every axis the paper's evaluation grids over.
///
/// Empty `seeds` means "the base config's seed"; empty `patches` means
/// "one identity patch". `weighted_speedup` adds the S-NUCA baseline and
/// per-unique-app alone cells each `(patch, seed)` point needs — deduped
/// across mixes — so weighted speedups can be derived from the same wave.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Base configuration preset.
    pub base: BaseConfig,
    /// Schemes to run per mix (S-NUCA reuses the baseline cell).
    pub schemes: Vec<Scheme>,
    /// Workload mixes.
    pub mixes: Vec<MixEntry>,
    /// Seed axis; empty = the base config's seed.
    pub seeds: Vec<u64>,
    /// Config-override axis; empty = identity.
    pub patches: Vec<ConfigPatch>,
    /// Steady-state measurement or a reconfiguration trace.
    pub run: CellRun,
    /// Add baseline + alone cells and derive weighted speedups.
    pub weighted_speedup: bool,
    /// Apply [`SimConfig::auto_intra_cell_threads`] to the base config at
    /// run time (machine-dependent worker count, machine-independent
    /// results).
    pub auto_intra_cell: bool,
}

impl GridSpec {
    /// A steady-state weighted-speedup sweep over `schemes` × `mixes` on
    /// `base` — the shape of most of the paper's figures.
    pub fn new(base: BaseConfig, schemes: Vec<Scheme>, mixes: Vec<MixEntry>) -> Self {
        GridSpec {
            base,
            schemes,
            mixes,
            seeds: Vec::new(),
            patches: Vec::new(),
            run: CellRun::Steady,
            weighted_speedup: true,
            auto_intra_cell: false,
        }
    }
}

/// The experiment payload: a simulator grid or one of the analysis
/// experiments that reproduce non-simulated figures/tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SpecKind {
    /// Simulator sweep (most figures and tables).
    Grid(GridSpec),
    /// Fig. 2: exact vs GMON-measured miss curves.
    MissCurves(MissCurvesSpec),
    /// Fig. 5: analytic latency-vs-capacity sweet spot.
    LatencyCapacity(LatencyCapacitySpec),
    /// Table 3: planner-step runtimes across system sizes.
    PlannerRuntime(PlannerRuntimeSpec),
    /// §VI-C placement-alternative ablation (exhaustive / SA / bisection).
    PlacementAlternatives(PlacementAlternativesSpec),
}

/// A named, serializable experiment declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Artifact name (`out/<name>.json`).
    pub name: String,
    /// The experiment payload.
    pub kind: SpecKind,
}

impl ExperimentSpec {
    /// Wraps a grid spec under `name`.
    pub fn grid(name: impl Into<String>, grid: GridSpec) -> Self {
        ExperimentSpec {
            name: name.into(),
            kind: SpecKind::Grid(grid),
        }
    }

    /// Rebases a grid experiment onto `base` (no-op for analysis
    /// experiments); used by `--small` and the CI smoke tests.
    pub fn set_base(&mut self, base: BaseConfig) {
        if let SpecKind::Grid(grid) = &mut self.kind {
            grid.base = base;
        }
    }

    /// Runs the experiment and returns its structured report.
    ///
    /// # Errors
    ///
    /// Propagates mix-materialization and simulation-construction errors.
    pub fn run(&self) -> Result<ExperimentReport, String> {
        let data = match &self.kind {
            SpecKind::Grid(grid) => ReportData::Grid(grid.run()?),
            SpecKind::MissCurves(spec) => ReportData::MissCurves(spec.run()?),
            SpecKind::LatencyCapacity(spec) => ReportData::LatencyCapacity(spec.run()),
            SpecKind::PlannerRuntime(spec) => ReportData::PlannerRuntime(spec.run()),
            SpecKind::PlacementAlternatives(spec) => ReportData::PlacementAlternatives(spec.run()),
        };
        Ok(ExperimentReport {
            spec: self.clone(),
            data,
        })
    }
}

/// What a grid cell was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellRole {
    /// A single-app S-NUCA calibration run (weighted-speedup denominator).
    Alone,
    /// The per-mix S-NUCA baseline.
    Baseline,
    /// A scheme-under-test run.
    SchemeRun,
}

/// One executed grid cell: its coordinates plus the full [`SimResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Patch label (`"base"` for the identity patch).
    pub patch: String,
    /// Effective seed of the cell.
    pub seed: u64,
    /// Mix label; for alone cells, the app name.
    pub mix: String,
    /// Scheme display name.
    pub scheme: String,
    /// What the cell was for.
    pub role: CellRole,
    /// Full simulation output.
    pub result: SimResult,
}

/// Derived rollup for one scheme within one `(patch, seed, mix)` group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeRow {
    /// Scheme display name.
    pub scheme: String,
    /// Index of the backing cell in [`GridReport::cells`].
    pub cell: usize,
    /// Weighted speedup vs the group's S-NUCA baseline (absent when the
    /// spec did not request weighted speedups).
    pub weighted_speedup: Option<f64>,
    /// Access-weighted mean on-chip (L2↔LLC) cycles per access.
    pub on_chip_latency: f64,
    /// Access-weighted mean off-chip cycles per access.
    pub off_chip_latency: f64,
    /// Instructions retired chip-wide over the measured window.
    pub instructions: f64,
    /// NoC flit-hops by [`cdcs_mesh::TrafficClass`] order (L2↔LLC,
    /// LLC↔Mem, Other).
    pub flit_hops: [f64; 3],
    /// Energy breakdown in nJ (static, core, net, LLC, mem).
    pub energy_nj: [f64; 5],
}

/// All rollups of one `(patch, seed, mix)` sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupReport {
    /// Patch label.
    pub patch: String,
    /// Effective seed.
    pub seed: u64,
    /// Mix label.
    pub mix: String,
    /// Index of the S-NUCA baseline cell, when one ran.
    pub baseline: Option<usize>,
    /// Per-process alone performance (weighted-speedup denominators);
    /// empty when the spec did not request weighted speedups.
    pub alone: Vec<f64>,
    /// One row per requested scheme, in spec order.
    pub rows: Vec<SchemeRow>,
}

/// Structured output of a grid experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridReport {
    /// Every executed cell (alone + baseline + scheme runs).
    pub cells: Vec<CellReport>,
    /// Per-`(patch, seed, mix)` rollups, in expansion order.
    pub groups: Vec<GroupReport>,
}

/// The report payload mirroring [`SpecKind`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum ReportData {
    /// Simulator sweep results.
    Grid(GridReport),
    /// Fig. 2 results.
    MissCurves(MissCurvesReport),
    /// Fig. 5 results.
    LatencyCapacity(LatencyCapacityReport),
    /// Table 3 results.
    PlannerRuntime(PlannerRuntimeReport),
    /// Placement-ablation results.
    PlacementAlternatives(PlacementAlternativesReport),
}

/// A named experiment's full output: the spec that produced it plus the
/// structured data. This is the JSON artifact schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// The spec that produced this report (self-describing artifacts).
    pub spec: ExperimentSpec,
    /// The results.
    pub data: ReportData,
}

impl ExperimentReport {
    /// The grid payload.
    ///
    /// # Panics
    ///
    /// Panics when the report is not a grid experiment's.
    pub fn grid(&self) -> &GridReport {
        match &self.data {
            ReportData::Grid(g) => g,
            other => panic!("expected a grid report, got {other:?}"),
        }
    }
}

impl GridReport {
    /// The scheme names of the first group (spec order) — every group has
    /// the same row set.
    pub fn scheme_names(&self) -> Vec<String> {
        self.groups
            .first()
            .map(|g| g.rows.iter().map(|r| r.scheme.clone()).collect())
            .unwrap_or_default()
    }

    /// Weighted-speedup series per scheme over the groups selected by
    /// `keep` (e.g. one apps-count of a Fig. 13 sweep), in group order.
    pub fn ws_series(&self, keep: impl Fn(&GroupReport) -> bool) -> Vec<(String, Vec<f64>)> {
        let mut series: Vec<(String, Vec<f64>)> = self
            .scheme_names()
            .into_iter()
            .map(|name| (name, Vec::new()))
            .collect();
        for group in self.groups.iter().filter(|g| keep(g)) {
            for (slot, row) in series.iter_mut().zip(&group.rows) {
                debug_assert_eq!(slot.0, row.scheme);
                if let Some(ws) = row.weighted_speedup {
                    slot.1.push(ws);
                }
            }
        }
        series
    }

    /// The backing [`SimResult`] of a rollup row.
    pub fn result(&self, row: &SchemeRow) -> &SimResult {
        &self.cells[row.cell].result
    }

    /// Per-benchmark speedup of `row` over its group's S-NUCA baseline:
    /// the geometric mean, over instances of each app in `mix`, of
    /// `perf(scheme) / perf(baseline)` (Table 1's per-app columns).
    ///
    /// # Panics
    ///
    /// Panics when the group ran without a baseline cell.
    pub fn per_app_speedups(
        &self,
        group: &GroupReport,
        row: &SchemeRow,
        mix: &WorkloadMix,
    ) -> Vec<(String, f64)> {
        let baseline = &self.cells[group.baseline.expect("group has a baseline")].result;
        let perf = self.result(row).process_perf();
        let base = baseline.process_perf();
        let mut per_app: Vec<(String, Vec<f64>)> = Vec::new();
        for (p, app) in mix.processes().iter().enumerate() {
            match per_app.iter_mut().find(|(name, _)| *name == app.name) {
                Some((_, ratios)) => ratios.push(perf[p] / base[p]),
                None => per_app.push((app.name.clone(), vec![perf[p] / base[p]])),
            }
        }
        per_app
            .into_iter()
            .map(|(name, ratios)| (name, runner::gmean(&ratios)))
            .collect()
    }
}

/// A grid spec expanded into its executable form: the effective base
/// config, the flat cell list, and the report wiring that turns the cells'
/// results back into a [`GridReport`].
///
/// This is the seam the served path uses: [`GridSpec::run`] feeds the
/// cells through one blocking [`runner::run_grid`] wave, while the
/// `cdcs-serve` daemon leases the same cells one by one to its runners,
/// tracks per-cell progress, and assembles the report when the last cell
/// lands — both produce identical reports because assembly only depends
/// on `(cells, results)`, not on the order the cells ran in.
pub struct ExpandedGrid {
    /// The configuration every cell runs under (auto-intra-cell applied).
    pub config: SimConfig,
    /// The flat cell list, in expansion order.
    pub cells: Vec<GridCell>,
    cell_meta: Vec<CellReportMeta>,
    layout: Vec<GroupLayout>,
}

impl ExpandedGrid {
    /// Splits the expansion into the executable half (config + cells,
    /// which the `cdcs-serve` daemon's job takes ownership of) and the
    /// report-assembly half (kept until every cell's result is back).
    pub fn into_parts(self) -> (SimConfig, Vec<GridCell>, GridAssembly) {
        (
            self.config,
            self.cells,
            GridAssembly {
                cell_meta: self.cell_meta,
                layout: self.layout,
            },
        )
    }

    /// Assembles per-cell results (in cell order) into the structured
    /// report: per-cell [`CellReport`]s plus per-group rollups.
    ///
    /// # Panics
    ///
    /// Panics if `results` does not hold exactly one result per cell.
    pub fn assemble(self, results: Vec<SimResult>) -> GridReport {
        assert_eq!(
            results.len(),
            self.cells.len(),
            "one result per expanded cell"
        );
        let (_, _, assembly) = self.into_parts();
        assembly.assemble(results)
    }
}

/// The report-wiring half of an [`ExpandedGrid`] (see
/// [`ExpandedGrid::into_parts`]): turns the cells' results into a
/// [`GridReport`] once they have all arrived.
pub struct GridAssembly {
    cell_meta: Vec<CellReportMeta>,
    layout: Vec<GroupLayout>,
}

impl GridAssembly {
    /// Assembles per-cell results (in cell order) into the structured
    /// report.
    ///
    /// # Panics
    ///
    /// Panics if `results` does not hold exactly one result per expanded
    /// cell.
    pub fn assemble(self, results: Vec<SimResult>) -> GridReport {
        assert_eq!(
            results.len(),
            self.cell_meta.len(),
            "one result per expanded cell"
        );
        let cells: Vec<CellReport> = self
            .cell_meta
            .into_iter()
            .zip(results)
            .map(|(meta, result)| CellReport {
                patch: meta.patch,
                seed: meta.seed,
                mix: meta.mix,
                scheme: meta.scheme,
                role: meta.role,
                result,
            })
            .collect();

        let groups =
            self.layout
                .into_iter()
                .map(|group| {
                    let alone: Vec<f64> = group
                        .alone_cells
                        .iter()
                        .map(|&i| cells[i].result.process_perf()[0])
                        .collect();
                    let rows = group
                        .scheme_cells
                        .iter()
                        .map(|&idx| {
                            let result = &cells[idx].result;
                            let weighted_speedup = group
                                .baseline
                                .filter(|_| !alone.is_empty())
                                .map(|baseline| {
                                    runner::weighted_speedup_vs(
                                        result,
                                        &cells[baseline].result,
                                        &alone,
                                    )
                                });
                            let e = &result.energy;
                            SchemeRow {
                                scheme: cells[idx].scheme.clone(),
                                cell: idx,
                                weighted_speedup,
                                on_chip_latency: result.mean_on_chip_latency(),
                                off_chip_latency: result.mean_off_chip_latency(),
                                instructions: result.system.instructions,
                                flit_hops: std::array::from_fn(|k| {
                                    result
                                        .system
                                        .traffic
                                        .flit_hops(cdcs_mesh::TrafficClass::ALL[k])
                                        as f64
                                }),
                                energy_nj: [e.static_nj, e.core_nj, e.net_nj, e.llc_nj, e.mem_nj],
                            }
                        })
                        .collect();
                    GroupReport {
                        patch: group.patch,
                        seed: group.seed,
                        mix: group.mix,
                        baseline: group.baseline,
                        alone,
                        rows,
                    }
                })
                .collect();

        GridReport { cells, groups }
    }
}

impl GridSpec {
    /// Expands the spec and executes every cell in one parallel wave:
    /// a thin collector over [`runner::run_grid`]'s pool.
    ///
    /// # Errors
    ///
    /// Propagates mix-materialization and simulation-construction errors.
    pub fn run(&self) -> Result<GridReport, String> {
        let expanded = self.expand()?;
        let results = runner::run_grid(&expanded.config, &expanded.cells)?;
        Ok(expanded.assemble(results))
    }

    /// Expands every axis into the flat cell list plus report wiring,
    /// without executing anything.
    ///
    /// # Errors
    ///
    /// Rejects empty axes and propagates mix-materialization errors.
    pub fn expand(&self) -> Result<ExpandedGrid, String> {
        if self.schemes.is_empty() {
            return Err("experiment declares no schemes".into());
        }
        if self.mixes.is_empty() {
            return Err("experiment declares no mixes".into());
        }
        let mut config = self.base.config();
        if self.auto_intra_cell {
            config.intra_cell_threads = SimConfig::auto_intra_cell_threads();
        }

        let mixes: Vec<(String, WorkloadMix)> = self
            .mixes
            .iter()
            .map(|entry| Ok((entry.label.clone(), WorkloadMix::from_spec(&entry.spec)?)))
            .collect::<Result<_, String>>()?;
        let patches: Vec<ConfigPatch> = if self.patches.is_empty() {
            vec![ConfigPatch::default()]
        } else {
            self.patches.clone()
        };
        let seeds: Vec<Option<u64>> = if self.seeds.is_empty() {
            vec![None]
        } else {
            self.seeds.iter().map(|&s| Some(s)).collect()
        };

        // Expansion: one flat cell list. Per (patch, seed): the deduped
        // alone runs (weighted speedup only), then per mix the S-NUCA
        // baseline and every non-S-NUCA scheme. Every cell seeds from
        // (config, cell) alone, so results are independent of ordering and
        // worker assignment.
        let mut cells: Vec<GridCell> = Vec::new();
        let mut cell_meta: Vec<CellReportMeta> = Vec::new();
        let mut layout: Vec<GroupLayout> = Vec::new();
        for patch in &patches {
            for &seed in &seeds {
                let effective_seed = seed.unwrap_or(config.seed);
                let decorate = |mut cell: GridCell| {
                    if !patch.is_identity() {
                        cell = cell.with_patch(patch.clone());
                    }
                    if let Some(s) = seed {
                        cell = cell.with_seed(s);
                    }
                    cell
                };
                // Alone runs: one per unique app name across all mixes
                // (apps are suite profiles — identical wherever they
                // appear).
                let mut alone: Vec<(String, usize)> = Vec::new();
                if self.weighted_speedup {
                    for (_, mix) in &mixes {
                        for app in mix.processes() {
                            if !alone.iter().any(|(name, _)| *name == app.name) {
                                let single = WorkloadMix::new(vec![app.clone()], config.seed);
                                alone.push((app.name.clone(), cells.len()));
                                cells.push(decorate(
                                    GridCell::new(Scheme::SNuca, single).with_run(self.run),
                                ));
                                cell_meta.push(CellReportMeta {
                                    patch: patch.display_label().to_string(),
                                    seed: effective_seed,
                                    mix: app.name.clone(),
                                    scheme: Scheme::SNuca.name(),
                                    role: CellRole::Alone,
                                });
                            }
                        }
                    }
                }
                for (label, mix) in &mixes {
                    let baseline = if self.weighted_speedup || self.schemes.contains(&Scheme::SNuca)
                    {
                        let idx = cells.len();
                        cells.push(decorate(
                            GridCell::new(Scheme::SNuca, mix.clone()).with_run(self.run),
                        ));
                        cell_meta.push(CellReportMeta {
                            patch: patch.display_label().to_string(),
                            seed: effective_seed,
                            mix: label.clone(),
                            scheme: Scheme::SNuca.name(),
                            role: CellRole::Baseline,
                        });
                        Some(idx)
                    } else {
                        None
                    };
                    let scheme_cells: Vec<usize> = self
                        .schemes
                        .iter()
                        .map(|&scheme| {
                            if scheme == Scheme::SNuca {
                                baseline.expect("S-NUCA row implies a baseline cell")
                            } else {
                                let idx = cells.len();
                                cells.push(decorate(
                                    GridCell::new(scheme, mix.clone()).with_run(self.run),
                                ));
                                cell_meta.push(CellReportMeta {
                                    patch: patch.display_label().to_string(),
                                    seed: effective_seed,
                                    mix: label.clone(),
                                    scheme: scheme.name(),
                                    role: CellRole::SchemeRun,
                                });
                                idx
                            }
                        })
                        .collect();
                    let alone_cells: Vec<usize> = if self.weighted_speedup {
                        mix.processes()
                            .iter()
                            .map(|app| {
                                alone
                                    .iter()
                                    .find(|(name, _)| *name == app.name)
                                    .expect("alone run registered above")
                                    .1
                            })
                            .collect()
                    } else {
                        Vec::new()
                    };
                    layout.push(GroupLayout {
                        patch: patch.display_label().to_string(),
                        seed: effective_seed,
                        mix: label.clone(),
                        baseline,
                        alone_cells,
                        scheme_cells,
                    });
                }
            }
        }

        Ok(ExpandedGrid {
            config,
            cells,
            cell_meta,
            layout,
        })
    }
}

/// Pre-execution cell coordinates (zipped with results afterwards).
struct CellReportMeta {
    patch: String,
    seed: u64,
    mix: String,
    scheme: String,
    role: CellRole,
}

/// Pre-execution group wiring.
struct GroupLayout {
    patch: String,
    seed: u64,
    mix: String,
    baseline: Option<usize>,
    alone_cells: Vec<usize>,
    scheme_cells: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_scheme_spec() -> ExperimentSpec {
        ExperimentSpec::grid(
            "unit",
            GridSpec::new(
                BaseConfig::SmallTest,
                vec![Scheme::SNuca, Scheme::cdcs()],
                vec![MixEntry::auto(MixSpec::Named(vec![
                    "calculix".into(),
                    "milc".into(),
                ]))],
            ),
        )
    }

    #[test]
    fn grid_spec_runs_and_derives_weighted_speedups() {
        let report = two_scheme_spec().run().unwrap();
        let grid = report.grid();
        // 2 alone + baseline + cdcs cells.
        assert_eq!(grid.cells.len(), 4);
        assert_eq!(grid.groups.len(), 1);
        let group = &grid.groups[0];
        assert_eq!(group.rows.len(), 2);
        assert_eq!(group.alone.len(), 2);
        let snuca_ws = group.rows[0].weighted_speedup.unwrap();
        assert!((snuca_ws - 1.0).abs() < 1e-12, "baseline WS is 1");
        assert!(group.rows[1].weighted_speedup.unwrap() > 0.3);
    }

    #[test]
    fn alone_runs_are_deduplicated_across_mixes() {
        let mut spec = two_scheme_spec();
        if let SpecKind::Grid(grid) = &mut spec.kind {
            grid.mixes.push(MixEntry::auto(MixSpec::Named(vec![
                "milc".into(),
                "omnet".into(),
            ])));
        }
        let report = spec.run().unwrap();
        let alone_cells = report
            .grid()
            .cells
            .iter()
            .filter(|c| c.role == CellRole::Alone)
            .count();
        // calculix, milc, omnet — milc shared between the two mixes.
        assert_eq!(alone_cells, 3);
    }

    #[test]
    fn seed_and_patch_axes_expand_multiplicatively() {
        let mut spec = two_scheme_spec();
        if let SpecKind::Grid(grid) = &mut spec.kind {
            grid.seeds = vec![1, 2];
            grid.patches = vec![
                ConfigPatch::default(),
                ConfigPatch::named("coarse").with_alloc_granularity(8192),
            ];
        }
        let report = spec.run().unwrap();
        let grid = report.grid();
        assert_eq!(grid.groups.len(), 4, "2 patches × 2 seeds × 1 mix");
        assert_eq!(grid.cells.len(), 16, "4 per group");
        let labels: Vec<&str> = grid.groups.iter().map(|g| g.patch.as_str()).collect();
        assert_eq!(labels, ["base", "base", "coarse", "coarse"]);
        assert_eq!(grid.groups[0].seed, 1);
        assert_eq!(grid.groups[1].seed, 2);
        // The seed axis must actually steer the simulations.
        assert_ne!(
            grid.cells[grid.groups[0].rows[1].cell].result,
            grid.cells[grid.groups[1].rows[1].cell].result
        );
    }

    #[test]
    fn non_ws_specs_omit_alone_and_baseline_cells() {
        let mut spec = two_scheme_spec();
        if let SpecKind::Grid(grid) = &mut spec.kind {
            grid.weighted_speedup = false;
            grid.schemes = vec![Scheme::cdcs()];
        }
        let report = spec.run().unwrap();
        let grid = report.grid();
        assert_eq!(grid.cells.len(), 1);
        assert!(grid.groups[0].baseline.is_none());
        assert!(grid.groups[0].rows[0].weighted_speedup.is_none());
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut spec = two_scheme_spec();
        if let SpecKind::Grid(grid) = &mut spec.kind {
            grid.schemes.clear();
        }
        assert!(spec.run().is_err());
        let mut spec = two_scheme_spec();
        if let SpecKind::Grid(grid) = &mut spec.kind {
            grid.mixes.clear();
        }
        assert!(spec.run().is_err());
    }

    #[test]
    fn streamed_session_assembly_matches_blocking_run() {
        // The server's path: expand, run each cell on its own (here last
        // cell first, as leases may land), slot the results back by index
        // and assemble — must be bit-identical to `GridSpec::run`.
        let spec = two_scheme_spec();
        let SpecKind::Grid(grid) = &spec.kind else {
            unreachable!()
        };
        let blocking = grid.run().unwrap();
        let expanded = grid.expand().unwrap();
        let mut results: Vec<Option<cdcs_sim::SimResult>> =
            (0..expanded.cells.len()).map(|_| None).collect();
        for i in (0..expanded.cells.len()).rev() {
            results[i] = Some(runner::run_cell(&expanded.config, &expanded.cells[i]).unwrap());
        }
        let streamed = expanded.assemble(results.into_iter().map(Option::unwrap).collect());
        assert_eq!(streamed, blocking);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = two_scheme_spec().run().unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ExperimentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
