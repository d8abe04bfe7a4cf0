//! Optimistic contention-aware VC placement (§IV-D, Figs. 6–7).
//!
//! Before thread locations are known, CDCS sketches a data placement that
//! avoids putting large VCs close together. VCs are placed largest-first;
//! each is "compactly placed" around the candidate tile with the least
//! *claimed capacity* under its footprint. Capacity constraints are relaxed
//! (claims may exceed a bank) — the point is a rough contention map, not a
//! feasible allocation; feasibility comes later in refined placement.
//!
//! Two details the paper leaves open are pinned down for stability (see
//! `DESIGN.md` §2): the largest-first order quantizes sizes to half-bank
//! buckets (so monitor noise cannot permute near-equal VCs and reshuffle the
//! whole chip), and contention ties between candidate tiles break toward the
//! VC's current accessors rather than by tile id (given equal contention,
//! staying near the accessing threads is strictly better).

use super::{vc_accessor_center, PlanScratch};
use crate::PlacementProblem;
use cdcs_mesh::geometry::Point;
use cdcs_mesh::{TileId, Topology};

/// Result of optimistic placement: a rough center for every VC with data,
/// plus the per-bank claimed-capacity tally (in bank units).
///
/// `Default` is an empty placement — a pooled output buffer for
/// [`optimistic_place_into`], resized on use.
#[derive(Debug, Clone, Default)]
pub struct OptimisticPlacement {
    /// Per-VC center of mass of the sketched placement; `None` for VCs with
    /// no allocation.
    pub centers: Vec<Option<Point>>,
    /// Claimed capacity per bank, in banks (can exceed 1.0 — constraints are
    /// relaxed at this step).
    pub claimed: Vec<f64>,
}

/// Sums `claimed[b] * coverage(b)` over the compact placement of
/// `size_banks` of capacity along `spiral` — the contention of centering a
/// VC there. Same walk as the definitional "build the coverage list, then
/// dot it with `claimed`", without materializing the list.
#[inline]
fn compact_contention(spiral: &[TileId], claimed: &[f64], size_banks: f64) -> f64 {
    let mut remaining = size_banks;
    let mut contention = 0.0;
    for t in spiral {
        if remaining <= 0.0 {
            break;
        }
        let take = remaining.min(1.0);
        contention += claimed[t.index()] * take;
        remaining -= take;
    }
    contention
}

/// Runs optimistic contention-aware placement for the given VC sizes (in
/// lines). Larger VCs are placed first ("larger VCs can cause more
/// contention, while small VCs can fit in a fraction of a bank").
///
/// One-shot wrapper over [`optimistic_place_with`] (allocates a fresh
/// scratch).
///
/// `current_cores`, when given, anchors contention ties toward each VC's
/// current accessors (see the module docs); pass `None` for the id-order
/// tie-break.
///
/// # Panics
///
/// Panics if `sizes.len() != problem.vcs.len()`, or if `current_cores` is
/// present with the wrong length.
pub fn optimistic_place(
    problem: &PlacementProblem,
    sizes: &[u64],
    current_cores: Option<&[TileId]>,
) -> OptimisticPlacement {
    optimistic_place_with(problem, sizes, current_cores, &mut PlanScratch::new())
}

/// [`optimistic_place`] against caller-owned buffers. The contention sweep
/// evaluates a compact placement centered at every tile for every VC; the
/// tile-centered spiral orders it walks are cached in the scratch across
/// epochs (they depend only on the mesh), turning the sweep's inner loop
/// into pure table reads.
///
/// # Panics
///
/// As [`optimistic_place`].
pub fn optimistic_place_with(
    problem: &PlacementProblem,
    sizes: &[u64],
    current_cores: Option<&[TileId]>,
    scratch: &mut PlanScratch,
) -> OptimisticPlacement {
    let mut out = OptimisticPlacement::default();
    optimistic_place_into(problem, sizes, current_cores, scratch, &mut out);
    out
}

/// [`optimistic_place_with`] writing into a caller-pooled output (the
/// planner keeps one [`OptimisticPlacement`] buffer in its scratch, so
/// steady-state reconfigurations emit the sketch without allocating).
///
/// # Panics
///
/// As [`optimistic_place`].
// lint: zero-alloc
pub fn optimistic_place_into(
    problem: &PlacementProblem,
    sizes: &[u64],
    current_cores: Option<&[TileId]>,
    scratch: &mut PlanScratch,
    out: &mut OptimisticPlacement,
) {
    assert_eq!(sizes.len(), problem.vcs.len(), "one size per VC");
    if let Some(cores) = current_cores {
        assert_eq!(cores.len(), problem.threads.len(), "one core per thread");
    }
    let mesh = &problem.params.mesh();
    let n = mesh.num_tiles();
    let claimed = &mut out.claimed;
    claimed.clear();
    claimed.resize(n, 0.0f64);
    let centers = &mut out.centers;
    centers.clear();
    centers.resize(sizes.len(), None);
    scratch.spiral_table(mesh);

    // Largest-first, with sizes quantized to half-bank buckets so that
    // measurement noise between near-equal VCs cannot permute the order.
    // (Key is a total order — bucket desc, id asc — so the unstable sort is
    // deterministic.)
    let half_bank = (problem.params.bank_lines / 2).max(1);
    scratch.order.clear();
    scratch.order.extend(0..sizes.len());
    scratch
        .order
        .sort_unstable_by_key(|&d| (std::cmp::Reverse(sizes[d] / half_bank), d));
    let spiral = scratch.spiral.as_ref().expect("spiral table ensured above");

    for oi in 0..scratch.order.len() {
        let d = scratch.order[oi];
        if sizes[d] == 0 {
            continue;
        }
        let size_banks = sizes[d] as f64 / problem.params.bank_lines as f64;
        let anchor = current_cores.and_then(|cores| vc_accessor_center(problem, cores, d as u32));
        // Evaluate contention centering the VC at every tile; keep the least
        // contended, breaking near-ties (within 5% of a bank) toward the
        // anchor, then by tile id.
        let mut best_tile = TileId(0);
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        // Iterate tile ids directly: `Topology::tiles()` collects a fresh
        // Vec, which would put one allocation per VC in the hottest sweep.
        for t in (0..n as u16).map(TileId) {
            let contention = compact_contention(spiral.from_tile(t), claimed, size_banks);
            let quantized = (contention / 0.05).round() * 0.05;
            let anchor_dist = anchor.map_or(0.0, |a| {
                let c = mesh.coord(t);
                a.manhattan(Point {
                    x: f64::from(c.x),
                    y: f64::from(c.y),
                })
            });
            if (quantized, anchor_dist) < best_key {
                best_key = (quantized, anchor_dist);
                best_tile = t;
            }
        }
        let c = mesh.coord(best_tile);
        let center = Point {
            x: f64::from(c.x),
            y: f64::from(c.y),
        };
        let mut remaining = size_banks;
        for t in spiral.from_tile(best_tile) {
            if remaining <= 0.0 {
                break;
            }
            let take = remaining.min(1.0);
            claimed[t.index()] += take;
            remaining -= take;
        }
        centers[d] = Some(center);
    }
}
// lint: end-zero-alloc

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SystemParams, ThreadInfo, VcInfo, VcKind};
    use cdcs_cache::MissCurve;
    use cdcs_mesh::Mesh;

    fn problem_with_sizes(mesh: Mesh, n_vcs: usize) -> PlacementProblem {
        let params = SystemParams::default_for_mesh(mesh, 1024);
        let vcs = (0..n_vcs)
            .map(|i| {
                VcInfo::new(
                    i as u32,
                    VcKind::thread_private(i as u32),
                    MissCurve::flat(100.0),
                )
            })
            .collect();
        let threads = (0..n_vcs)
            .map(|i| ThreadInfo::new(i as u32, vec![(i as u32, 100.0)]))
            .collect();
        PlacementProblem::new(params, vcs, threads).unwrap()
    }

    #[test]
    fn first_large_vc_gets_a_center() {
        let p = problem_with_sizes(Mesh::new(4, 4), 1);
        let out = optimistic_place(&p, &[4096], None);
        assert!(out.centers[0].is_some());
        let total_claimed: f64 = out.claimed.iter().sum();
        assert!((total_claimed - 4.0).abs() < 1e-9);
    }

    #[test]
    fn two_large_vcs_repel_each_other() {
        let p = problem_with_sizes(Mesh::new(4, 4), 2);
        let out = optimistic_place(&p, &[4096, 4096], None);
        let a = out.centers[0].unwrap();
        let b = out.centers[1].unwrap();
        assert!(a.manhattan(b) >= 2.0, "centers {a:?} and {b:?} too close");
    }

    #[test]
    fn many_vcs_spread_claims_evenly() {
        let p = problem_with_sizes(Mesh::new(4, 4), 16);
        let out = optimistic_place(&p, &[1024; 16], None);
        for (b, &c) in out.claimed.iter().enumerate() {
            assert!(c <= 2.0 + 1e-9, "bank {b} claimed {c}");
        }
        let total: f64 = out.claimed.iter().sum();
        assert!((total - 16.0).abs() < 1e-9);
    }

    #[test]
    fn zero_size_vcs_have_no_center() {
        let p = problem_with_sizes(Mesh::new(2, 2), 2);
        let out = optimistic_place(&p, &[1024, 0], None);
        assert!(out.centers[0].is_some());
        assert!(out.centers[1].is_none());
    }

    #[test]
    fn larger_vcs_placed_first_claim_the_center() {
        let p = problem_with_sizes(Mesh::new(5, 5), 2);
        let out = optimistic_place(&p, &[9 * 1024, 1024], None);
        let small_center = out.centers[1].unwrap();
        let small_tile = cdcs_mesh::geometry::nearest_tile(p.params.mesh(), small_center);
        assert!(
            out.claimed[small_tile.index()] <= 1.0 + 1e-9,
            "small VC landed on a contended bank"
        );
    }

    #[test]
    fn anchored_ties_follow_accessors() {
        // An empty chip: contention is zero everywhere; with an anchor the
        // VC centers on its accessor's tile rather than tile 0.
        let p = problem_with_sizes(Mesh::new(4, 4), 1);
        let cores = vec![TileId(10)];
        let out = optimistic_place(&p, &[1024], Some(&cores));
        let c = out.centers[0].unwrap();
        assert_eq!(
            cdcs_mesh::geometry::nearest_tile(p.params.mesh(), c),
            TileId(10)
        );
    }

    #[test]
    fn near_equal_sizes_keep_id_order() {
        // Sizes within the same half-bank bucket must not permute the
        // placement order: the chosen centers stay identical when sizes
        // jitter by a few lines (monitor noise).
        let p = problem_with_sizes(Mesh::new(4, 4), 3);
        let a = optimistic_place(&p, &[4000, 3990, 3980], None);
        let b = optimistic_place(&p, &[3980, 4000, 3990], None);
        assert_eq!(a.centers, b.centers, "noise permuted the placement");
    }

    #[test]
    #[should_panic(expected = "one size per VC")]
    fn size_count_mismatch_panics() {
        let p = problem_with_sizes(Mesh::new(2, 2), 2);
        optimistic_place(&p, &[1024], None);
    }
}
