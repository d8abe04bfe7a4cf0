//! §VI-C bank-granularity ablation: CDCS without fine-grained partitioning.
//!
//! The paper models 4x128 KB banks per tile with whole-bank allocation; we
//! emulate whole-bank allocation by raising the allocation granularity from
//! 64 KB chunks to full 512 KB banks (see `DESIGN.md` §2): coarse allocations
//! over- and under-provision small VCs and cost weighted speedup.

use cdcs_bench::{arg, fmt, run_and_save, specs};

fn main() -> Result<(), String> {
    let mixes = arg("mixes", 3);
    let apps = arg("apps", 64);
    let report = run_and_save(specs::coarse_grain(mixes, apps))?;
    fmt::coarse_grain(&report, mixes, apps);
    Ok(())
}
