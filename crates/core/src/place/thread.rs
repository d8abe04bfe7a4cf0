//! Thread placement (§IV-E).
//!
//! Given the optimistic data placement, each thread wants to sit at the
//! center of mass of its accesses (weighting each VC's center by the
//! thread's access rate to it). Threads are placed in descending
//! *intensity-capacity product* (`Σ_d a_{t,d} · s_d`): threads that access
//! lots of data intensively are hardest to satisfy later, so they pick
//! cores first. This is what clusters shared-heavy processes around their
//! shared VC and spreads private-heavy ones (Fig. 16).

use super::optimistic::OptimisticPlacement;
use super::PlanScratch;
use crate::PlacementProblem;
use cdcs_mesh::geometry::{chip_center, Point};
use cdcs_mesh::{Mesh, TileId, Topology};

/// Places threads on cores given VC sizes and the optimistic data placement.
/// Returns one core per thread (all distinct).
///
/// One-shot wrapper over [`place_threads_with`] (allocates a fresh scratch).
///
/// `prev_cores` (with `stability_bias`, in hops) biases each thread toward
/// its current core: a thread only migrates when the new tile is more than
/// `stability_bias` hops closer to its data. The paper's epochs are ~50x
/// longer than ours with correspondingly quieter miss curves, so its
/// deterministic recomputation is naturally stable; at our time scale,
/// monitor sampling noise would otherwise flip near-tied placements every
/// epoch and churn the whole LLC (see `DESIGN.md` §2). Pass `None` (or a
/// zero bias) for the paper's literal behaviour.
///
/// # Panics
///
/// Panics if `sizes` or `optimistic.centers` length differs from the
/// problem's VC count, or if `prev_cores` is present with the wrong length.
pub fn place_threads(
    problem: &PlacementProblem,
    sizes: &[u64],
    optimistic: &OptimisticPlacement,
    prev_cores: Option<&[TileId]>,
    stability_bias: f64,
) -> Vec<TileId> {
    place_threads_with(
        problem,
        sizes,
        optimistic,
        prev_cores,
        stability_bias,
        &mut PlanScratch::new(),
    )
}

/// [`place_threads`] against caller-owned buffers: preferred points, sort
/// keys and the occupied-tile set live in `scratch`; the intensity-capacity
/// sort key is computed once per thread instead of inside the comparator
/// (`O(T log T)` redundant evaluations in the definitional version).
///
/// # Panics
///
/// As [`place_threads`].
pub fn place_threads_with(
    problem: &PlacementProblem,
    sizes: &[u64],
    optimistic: &OptimisticPlacement,
    prev_cores: Option<&[TileId]>,
    stability_bias: f64,
    scratch: &mut PlanScratch,
) -> Vec<TileId> {
    let mut out = Vec::new();
    place_threads_into(
        problem,
        sizes,
        optimistic,
        prev_cores,
        stability_bias,
        scratch,
        &mut out,
    );
    out
}

/// [`place_threads_with`] writing into a caller-pooled core buffer (the
/// planner keeps one in its scratch, so steady-state reconfigurations emit
/// thread placements without allocating).
///
/// # Panics
///
/// As [`place_threads`].
// lint: zero-alloc
pub fn place_threads_into(
    problem: &PlacementProblem,
    sizes: &[u64],
    optimistic: &OptimisticPlacement,
    prev_cores: Option<&[TileId]>,
    stability_bias: f64,
    scratch: &mut PlanScratch,
    out: &mut Vec<TileId>,
) {
    assert_eq!(sizes.len(), problem.vcs.len(), "one size per VC");
    assert_eq!(
        optimistic.centers.len(),
        problem.vcs.len(),
        "one center per VC"
    );
    if let Some(prev) = prev_cores {
        assert_eq!(
            prev.len(),
            problem.threads.len(),
            "one previous core per thread"
        );
    }
    let mesh = &problem.params.mesh();

    // Preferred point per thread: access-weighted mean of its VCs' centers
    // (VCs with no data pull toward nothing — their accesses go to memory).
    scratch.preferred.clear();
    scratch.preferred.extend(problem.threads.iter().map(|t| {
        let mut wx = 0.0;
        let mut wy = 0.0;
        let mut wsum = 0.0;
        for &(d, a) in &t.vc_accesses {
            if let Some(c) = optimistic.centers[d as usize] {
                wx += a * c.x;
                wy += a * c.y;
                wsum += a;
            }
        }
        if wsum > 0.0 {
            Point {
                x: wx / wsum,
                y: wy / wsum,
            }
        } else {
            chip_center(mesh)
        }
    }));

    // Descending intensity-capacity product breaks placement ties in favour
    // of threads for which "low on-chip latency is important, and for which
    // VCs are hard to move" (§IV-E). Keys precomputed once; the (key desc,
    // id asc) comparator is a total order, so the unstable sort matches the
    // definitional stable sort.
    scratch.keys.clear();
    scratch.keys.extend(problem.threads.iter().map(|t| {
        t.vc_accesses
            .iter()
            .map(|&(d, acc)| acc * sizes[d as usize] as f64)
            .sum::<f64>()
    }));
    scratch.order.clear();
    scratch.order.extend(0..problem.threads.len());
    let keys = &scratch.keys;
    scratch.order.sort_unstable_by(|&a, &b| {
        keys[b]
            .partial_cmp(&keys[a])
            .expect("finite keys")
            .then(a.cmp(&b))
    });

    scratch.taken.clear();
    scratch.taken.resize(mesh.num_tiles(), false);
    out.clear();
    out.resize(problem.threads.len(), TileId(0));
    for oi in 0..scratch.order.len() {
        let t = scratch.order[oi];
        let home = prev_cores.map(|prev| prev[t]);
        let tile = nearest_free_tile(
            mesh,
            scratch.preferred[t],
            &scratch.taken,
            home,
            stability_bias,
        );
        scratch.taken[tile.index()] = true;
        out[t] = tile;
    }
}
// lint: end-zero-alloc

/// The free tile nearest to `p` (ties by tile id). The thread's current
/// `home` tile gets a `stability_bias`-hop head start.
///
/// # Panics
///
/// Panics if every tile is taken.
fn nearest_free_tile(
    mesh: &Mesh,
    p: Point,
    taken: &[bool],
    home: Option<TileId>,
    stability_bias: f64,
) -> TileId {
    // Seed with the home tile so it also wins exact ties (strict `<` below).
    let mut best: Option<(f64, TileId)> = home
        .filter(|h| !taken[h.index()])
        .map(|h| (mesh.hops_to_point(h, p.x, p.y) - stability_bias, h));
    // Iterate tile ids directly (`Topology::tiles()` collects a fresh Vec;
    // this runs once per thread per epoch): same id order, no allocation.
    for t in (0..mesh.num_tiles() as u16).map(TileId) {
        if taken[t.index()] || Some(t) == home {
            continue;
        }
        let d = mesh.hops_to_point(t, p.x, p.y);
        if best.is_none_or(|(bd, _)| d < bd - 1e-12) {
            best = Some((d, t));
        }
    }
    best.expect("no free tile left").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::optimistic_place;
    use crate::{SystemParams, ThreadInfo, VcInfo, VcKind};
    use cdcs_cache::MissCurve;

    /// Builds a problem where thread 0 accesses a big VC intensely and
    /// thread 1 accesses a small one lightly.
    fn two_thread_problem() -> PlacementProblem {
        let params = SystemParams::default_for_mesh(Mesh::new(4, 4), 1024);
        let vcs = vec![
            VcInfo::new(0, VcKind::thread_private(0), MissCurve::flat(1000.0)),
            VcInfo::new(1, VcKind::thread_private(1), MissCurve::flat(10.0)),
        ];
        let threads = vec![
            ThreadInfo::new(0, vec![(0, 1000.0)]),
            ThreadInfo::new(1, vec![(1, 10.0)]),
        ];
        PlacementProblem::new(params, vcs, threads).unwrap()
    }

    #[test]
    fn threads_get_distinct_cores() {
        let p = two_thread_problem();
        let sizes = [4096, 1024];
        let opt = optimistic_place(&p, &sizes, None);
        let cores = place_threads(&p, &sizes, &opt, None, 0.0);
        assert_ne!(cores[0], cores[1]);
    }

    #[test]
    fn thread_lands_near_its_data() {
        let p = two_thread_problem();
        let sizes = [4096, 1024];
        let opt = optimistic_place(&p, &sizes, None);
        let cores = place_threads(&p, &sizes, &opt, None, 0.0);
        let c0 = opt.centers[0].unwrap();
        let d = p.params.mesh().hops_to_point(cores[0], c0.x, c0.y);
        assert!(d <= 1.5, "thread 0 is {d} hops from its data center");
    }

    #[test]
    fn intense_thread_picks_first() {
        // Two threads preferring the same tile: the intense one must win it.
        let params = SystemParams::default_for_mesh(Mesh::new(3, 3), 1024);
        let vcs = vec![
            VcInfo::new(0, VcKind::thread_private(0), MissCurve::flat(1000.0)),
            VcInfo::new(1, VcKind::thread_private(1), MissCurve::flat(999.0)),
        ];
        let threads = vec![
            ThreadInfo::new(0, vec![(0, 10.0)]),   // light
            ThreadInfo::new(1, vec![(1, 1000.0)]), // intense
        ];
        let p = PlacementProblem::new(params, vcs, threads).unwrap();
        // Force both VC centers to the same point by placing them with equal
        // sizes on an empty tally — then check ordering via the assignment.
        let opt = OptimisticPlacement {
            centers: vec![
                Some(Point { x: 1.0, y: 1.0 }),
                Some(Point { x: 1.0, y: 1.0 }),
            ],
            claimed: vec![0.0; 9],
        };
        let cores = place_threads(&p, &[1024, 1024], &opt, None, 0.0);
        // Tile (1,1) is tile 4 on a 3x3 mesh; the intense thread gets it.
        assert_eq!(cores[1], TileId(4));
        assert_ne!(cores[0], TileId(4));
    }

    #[test]
    fn dataless_threads_fall_back_to_center() {
        let params = SystemParams::default_for_mesh(Mesh::new(3, 3), 1024);
        let vcs = vec![VcInfo::new(
            0,
            VcKind::thread_private(0),
            MissCurve::flat(5.0),
        )];
        let threads = vec![ThreadInfo::new(0, vec![(0, 5.0)])];
        let p = PlacementProblem::new(params, vcs, threads).unwrap();
        let opt = OptimisticPlacement {
            centers: vec![None],
            claimed: vec![0.0; 9],
        };
        let cores = place_threads(&p, &[0], &opt, None, 0.0);
        // Falls back to the chip center tile.
        assert_eq!(cores[0], TileId(4));
    }

    #[test]
    fn shared_vc_clusters_its_threads() {
        // Four threads of one process all accessing one shared VC: they end
        // up packed around its center.
        let params = SystemParams::default_for_mesh(Mesh::new(4, 4), 1024);
        let vcs = vec![VcInfo::new(
            0,
            VcKind::process_shared(0),
            MissCurve::flat(100.0),
        )];
        let threads = (0..4)
            .map(|i| ThreadInfo::new(i, vec![(0, 100.0)]))
            .collect::<Vec<_>>();
        let p = PlacementProblem::new(params, vcs, threads).unwrap();
        let sizes = [2048];
        let opt = optimistic_place(&p, &sizes, None);
        let cores = place_threads(&p, &sizes, &opt, None, 0.0);
        let center = opt.centers[0].unwrap();
        for (i, &c) in cores.iter().enumerate() {
            let d = p.params.mesh().hops_to_point(c, center.x, center.y);
            assert!(d <= 2.5, "thread {i} is {d} hops from the shared center");
        }
    }

    #[test]
    #[should_panic(expected = "no free tile")]
    fn overfull_chip_panics() {
        let mesh = Mesh::new(1, 1);
        nearest_free_tile(&mesh, Point { x: 0.0, y: 0.0 }, &[true], None, 0.0);
    }

    #[test]
    fn stability_bias_prevents_near_tie_migration() {
        // A thread at tile 1 whose data center drifted to tile 0 by a
        // fraction of a hop: with bias it stays, without it migrates.
        let mesh = Mesh::new(2, 1);
        let taken = vec![false, false];
        let p = Point { x: 0.4, y: 0.0 };
        let stay = nearest_free_tile(&mesh, p, &taken, Some(TileId(1)), 1.0);
        assert_eq!(stay, TileId(1));
        let go = nearest_free_tile(&mesh, p, &taken, Some(TileId(1)), 0.0);
        assert_eq!(go, TileId(0));
    }

    #[test]
    fn stability_bias_does_not_block_big_wins() {
        // Data far away: even with the bias the thread migrates.
        let mesh = Mesh::new(4, 1);
        let taken = vec![false; 4];
        let p = Point { x: 3.0, y: 0.0 };
        let t = nearest_free_tile(&mesh, p, &taken, Some(TileId(0)), 1.0);
        assert_eq!(t, TileId(3));
    }
}
