//! Output checks and the simulated-statistics digest.

use cdcs_bench::exp::{ExperimentReport, ExperimentSpec, ReportData};
use std::path::Path;

/// Per-result invariants: every thread's `accesses == hits + misses`, and
/// its IPC and AMAT are finite.
pub fn report_invariants(report: &ExperimentReport) -> Result<(), String> {
    let ReportData::Grid(grid) = &report.data else {
        return Ok(());
    };
    for (c, cell) in grid.cells.iter().enumerate() {
        for t in &cell.result.threads {
            if t.accesses != t.hits + t.misses {
                return Err(format!(
                    "{} cell {c} thread {}: accesses {} != hits {} + misses {}",
                    report.spec.name, t.thread, t.accesses, t.hits, t.misses
                ));
            }
            if !t.ipc().is_finite() || !t.amat().is_finite() {
                return Err(format!(
                    "{} cell {c} thread {}: non-finite IPC {} or AMAT {}",
                    report.spec.name,
                    t.thread,
                    t.ipc(),
                    t.amat()
                ));
            }
        }
    }
    Ok(())
}

/// Simulated LLC accesses of a report (Σ per-thread accesses over cells).
pub fn accesses(report: &ExperimentReport) -> u64 {
    match &report.data {
        ReportData::Grid(grid) => grid
            .cells
            .iter()
            .flat_map(|c| &c.result.threads)
            .map(|t| t.accesses)
            .sum(),
        _ => 0,
    }
}

/// Cells of a report (0 for analysis specs).
pub fn cells(report: &ExperimentReport) -> usize {
    match &report.data {
        ReportData::Grid(grid) => grid.cells.len(),
        _ => 0,
    }
}

/// The committed golden whose spec equals `spec`, if any:
/// `out/<name>.json` under the repository root.
pub fn golden_for(spec: &ExperimentSpec) -> Option<String> {
    let path = Path::new("out").join(format!("{}.json", spec.name));
    let bytes = std::fs::read_to_string(path).ok()?;
    let golden: ExperimentReport = serde_json::from_str(&bytes).ok()?;
    (golden.spec == *spec).then_some(bytes)
}

/// FNV-1a over byte strings: the digest of every simulated statistic (the
/// artifacts hold them all), so two commits compare for identity.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
