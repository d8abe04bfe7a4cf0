//! Capacity allocation: dividing LLC lines among virtual caches.
//!
//! CDCS allocates capacity from *total memory latency* curves rather than
//! miss curves (§IV-C): a larger VC misses less but sits further away, so
//! each VC has a latency "sweet spot" (Fig. 5) and it is sometimes best to
//! leave capacity unused. The optimization itself runs on the curves' convex
//! hulls using the Peekahead algorithm (from Jigsaw): on convex curves,
//! greedily taking the steepest remaining hull segment is exact and runs in
//! near-linear time.
//!
//! Three entry points:
//! * [`peekahead`] — the core allocator over arbitrary benefit curves;
//! * [`latency_aware_sizes`] — CDCS allocation (total-latency curves, may
//!   leave capacity unused);
//! * [`miss_driven_sizes`] — Jigsaw allocation (miss curves only, uses all
//!   capacity), the baseline CDCS improves on.

mod latency;

pub use latency::{
    latency_aware_sizes, latency_aware_sizes_into, miss_driven_sizes, miss_driven_sizes_into,
    total_latency_curve,
};
pub(crate) use latency::{latency_aware_sizes_stepped_into, residual_sizes_into};

use cdcs_cache::MissCurve;
use cdcs_mesh::geometry::CompactDistances;
use cdcs_mesh::Mesh;

/// Options for [`peekahead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocOptions {
    /// Total lines to divide.
    pub total_lines: u64,
    /// Allocation granularity in lines (the paper manages capacity in 64 KB
    /// = 1024-line chunks).
    pub granularity: u64,
    /// If true, capacity left after all *beneficial* segments are exhausted
    /// is spread round-robin over VCs with non-zero demand (Jigsaw-style
    /// "use everything"); if false, it is left unused (CDCS §IV-C: "it is
    /// sometimes better to leave cache capacity unused").
    pub use_all_capacity: bool,
    /// Segments whose benefit densities are within this relative tolerance
    /// are treated as tied and share capacity chunk-by-chunk instead of
    /// serializing. With exact curves this changes nothing (utility is equal
    /// either way); with sampled (GMON) curves it prevents measurement noise
    /// from starving one of several identical VCs when capacity runs out
    /// mid-tie — see `DESIGN.md` §2.
    pub tie_tolerance: f64,
}

impl AllocOptions {
    /// Paper-flavoured options: 1024-line (64 KB) granularity, 25% tie
    /// sharing.
    pub fn new(total_lines: u64) -> Self {
        AllocOptions {
            total_lines,
            granularity: 1024,
            use_all_capacity: false,
            tie_tolerance: 0.25,
        }
    }
}

/// A hull segment: allocating `lines` more lines to `vc` lowers its curve by
/// `benefit_per_line * lines`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    vc: usize,
    lines: f64,
    benefit_per_line: f64,
    /// Build-order index, the tie-break that makes the unstable
    /// best-first sort reproduce the definitional stable sort exactly.
    seq: usize,
}

/// Reusable buffers for the whole capacity-allocation step: the per-VC
/// total-latency curve and hull under construction, the chip-center
/// distance cache, the extracted hull segments, and every working vector
/// Peekahead and its rounding pass need.
///
/// One scratch serves any sequence of problems (buffers grow to the
/// largest problem seen; the distance cache is rebuilt only when the mesh
/// changes). Owned by [`crate::PlanScratch`], so threading the planner's
/// scratch through [`latency_aware_sizes_into`] makes entire
/// reconfigurations allocation-free in steady state — pinned by
/// `crates/core/tests/alloc_free.rs`.
#[derive(Debug)]
pub struct AllocScratch {
    /// Capacity grid under construction (latency-aware allocation).
    pub(crate) grid: Vec<f64>,
    /// Raw `(capacity, cost)` samples before curve normalization.
    pub(crate) raw: Vec<(f64, f64)>,
    /// The current VC's total-latency curve (rebuilt per VC).
    pub(crate) curve: MissCurve,
    /// The current VC's convex hull (rebuilt per VC).
    pub(crate) hull: MissCurve,
    /// Chip-center compact-placement distances, cached per mesh.
    pub(crate) dists: Option<(Mesh, CompactDistances)>,
    /// Beneficial hull segments of every VC.
    pub(crate) segments: Vec<Segment>,
    /// Fractional allocation per VC.
    alloc: Vec<f64>,
    /// Per-group remaining lines (tie-sharing walk).
    rem: Vec<f64>,
    /// Remainder-descending VC order (granularity rounding).
    order: Vec<usize>,
    /// VCs with non-zero demand (`use_all_capacity` spreading).
    pub(crate) demanders: Vec<usize>,
}

impl Default for AllocScratch {
    fn default() -> Self {
        AllocScratch {
            grid: Vec::new(),
            raw: Vec::new(),
            curve: MissCurve::placeholder(),
            hull: MissCurve::placeholder(),
            dists: None,
            segments: Vec::new(),
            alloc: Vec::new(),
            rem: Vec::new(),
            order: Vec::new(),
            demanders: Vec::new(),
        }
    }
}

impl AllocScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        AllocScratch::default()
    }
}

/// Appends `hull`'s beneficial segments for `vc` to `segments` (the
/// per-curve half of [`peekahead`]'s segment construction).
// lint: zero-alloc
fn push_hull_segments(vc: usize, hull: &MissCurve, segments: &mut Vec<Segment>) {
    for w in hull.points().windows(2) {
        let (c0, m0) = w[0];
        let (c1, m1) = w[1];
        let lines = c1 - c0;
        if lines <= 0.0 {
            continue;
        }
        let benefit = (m0 - m1) / lines;
        if benefit > 0.0 {
            segments.push(Segment {
                vc,
                lines,
                benefit_per_line: benefit,
                seq: segments.len(),
            });
        }
    }
}
// lint: end-zero-alloc

/// Allocates `opts.total_lines` among benefit curves by greedy convex-hull
/// descent (Peekahead).
///
/// `curves[d]` maps capacity (lines) to a *cost* (misses, cycles, …); lower
/// is better and curves are non-increasing after hull-ification except that
/// total-latency curves may rise again — rising segments have negative
/// benefit and are never taken.
///
/// Returns per-VC allocations in lines, each a multiple of
/// `opts.granularity` (except possibly the last chunk of a VC, capped by
/// remaining capacity), summing to at most `opts.total_lines`.
///
/// # Panics
///
/// Panics if `opts.granularity` is zero.
pub fn peekahead(curves: &[MissCurve], opts: AllocOptions) -> Vec<u64> {
    let mut out = Vec::new();
    peekahead_into(curves, opts, &mut AllocScratch::new(), &mut out);
    out
}

/// [`peekahead`] against caller-owned buffers, writing the allocations
/// into `out` (identical values, zero steady-state allocations once the
/// scratch is warm).
///
/// # Panics
///
/// As [`peekahead`].
// lint: zero-alloc
pub fn peekahead_into(
    curves: &[MissCurve],
    opts: AllocOptions,
    scratch: &mut AllocScratch,
    out: &mut Vec<u64>,
) {
    scratch.segments.clear();
    let AllocScratch { hull, segments, .. } = scratch;
    for (vc, curve) in curves.iter().enumerate() {
        curve.convex_hull_into(hull);
        push_hull_segments(vc, hull, segments);
    }
    scratch.demanders.clear();
    if opts.use_all_capacity {
        scratch.demanders.extend(
            curves
                .iter()
                .enumerate()
                .filter(|(_, c)| c.at_zero() > 0.0)
                .map(|(i, _)| i),
        );
    }
    peekahead_from_segments(curves.len(), opts, scratch, out);
}
// lint: end-zero-alloc

/// The allocator core over pre-extracted hull segments (`scratch.segments`,
/// built by [`push_hull_segments`]) and pre-computed `scratch.demanders`
/// (only read when `opts.use_all_capacity`). Writes per-VC allocations into
/// `out`.
///
/// # Panics
///
/// Panics if `opts.granularity` is zero.
// lint: zero-alloc
fn peekahead_from_segments(
    num_vcs: usize,
    opts: AllocOptions,
    scratch: &mut AllocScratch,
    out: &mut Vec<u64>,
) {
    assert!(opts.granularity > 0, "granularity must be non-zero");
    let AllocScratch {
        segments,
        alloc,
        rem,
        order,
        demanders,
        ..
    } = scratch;
    alloc.clear();
    alloc.resize(num_vcs, 0.0f64);
    let mut remaining = opts.total_lines as f64;

    // Best-first order. Convexity means each VC's segments have
    // non-increasing benefit density, so this visits them in exactly the
    // order iterative lookahead would; the `seq` tie-break makes the
    // unstable (allocation-free) sort equivalent to the stable one.
    segments.sort_unstable_by(|a, b| {
        b.benefit_per_line
            .partial_cmp(&a.benefit_per_line)
            .unwrap()
            .then(a.seq.cmp(&b.seq))
    });

    // Walk segments best-first; near-tied groups share capacity in
    // granularity-sized chunks round-robin so that ties do not serialize.
    let mut i = 0;
    while i < segments.len() && remaining > 0.0 {
        let group_floor = segments[i].benefit_per_line * (1.0 - opts.tie_tolerance);
        let mut j = i + 1;
        while j < segments.len() && segments[j].benefit_per_line >= group_floor {
            j += 1;
        }
        rem.clear();
        rem.extend(segments[i..j].iter().map(|s| s.lines));
        loop {
            let mut progressed = false;
            for (k, seg) in segments[i..j].iter().enumerate() {
                if remaining <= 0.0 {
                    break;
                }
                if rem[k] <= 0.0 {
                    continue;
                }
                let take = (opts.granularity as f64).min(rem[k]).min(remaining);
                alloc[seg.vc] += take;
                rem[k] -= take;
                remaining -= take;
                progressed = true;
            }
            if !progressed || remaining <= 0.0 {
                break;
            }
        }
        i = j;
    }

    // Round to granularity, preserving the grand total (largest remainders
    // get the leftover chunks).
    round_to_granularity_into(alloc, opts.granularity, opts.total_lines, order, out);

    if opts.use_all_capacity {
        let mut left = opts.total_lines - out.iter().sum::<u64>();
        if !demanders.is_empty() {
            let mut i = 0;
            while left > 0 {
                let chunk = opts.granularity.min(left);
                out[demanders[i % demanders.len()]] += chunk;
                left -= chunk;
                i += 1;
            }
        }
    }
}
// lint: end-zero-alloc

/// Rounds fractional allocations down to multiples of `granularity`, then
/// hands whole chunks back to the largest fractional remainders while the
/// `total` budget allows. All outputs are multiples of `granularity` and the
/// sum never exceeds `total`. `order` is a caller-pooled index buffer; the
/// result lands in `out`.
fn round_to_granularity_into(
    alloc: &[f64],
    granularity: u64,
    total: u64,
    order: &mut Vec<usize>,
    out: &mut Vec<u64>,
) {
    let g = granularity as f64;
    out.clear();
    out.extend(alloc.iter().map(|&a| (a / g).floor() as u64 * granularity));
    let mut sum: u64 = out.iter().sum();
    order.clear();
    order.extend(0..alloc.len());
    // Remainder-descending with an index tie-break: equivalent to the
    // definitional stable sort, without its merge buffer.
    order.sort_unstable_by(|&a, &b| {
        let ra = alloc[a] % g;
        let rb = alloc[b] % g;
        rb.partial_cmp(&ra).unwrap().then(a.cmp(&b))
    });
    for &i in order.iter() {
        if alloc[i] % g > 0.0 && sum + granularity <= total {
            out[i] += granularity;
            sum += granularity;
        }
    }
}

/// Reference O(D·S²/g²) utility-based lookahead (UCP [Qureshi & Patt]) used
/// in tests to validate [`peekahead`]: repeatedly gives `granularity` lines
/// to whichever VC gains the highest marginal utility, looking ahead past
/// plateaus.
pub fn lookahead_reference(curves: &[MissCurve], opts: AllocOptions) -> Vec<u64> {
    assert!(opts.granularity > 0, "granularity must be non-zero");
    let mut alloc = vec![0u64; curves.len()];
    let mut remaining = opts.total_lines;
    loop {
        if remaining == 0 {
            break;
        }
        // For each VC, find the extension with the best utility density.
        let mut best: Option<(usize, u64, f64)> = None; // (vc, lines, density)
        for (vc, curve) in curves.iter().enumerate() {
            let cur = alloc[vc] as f64;
            let cur_m = curve.misses_at(cur);
            // Extensions grow monotonically: a cursor answers the thousands
            // of near-sorted queries in one sweep per VC.
            let mut extension = curve.cursor();
            let mut steps = 1u64;
            loop {
                let lines = steps * opts.granularity;
                if lines > remaining {
                    break;
                }
                let density = (cur_m - extension.misses_at(cur + lines as f64)) / lines as f64;
                if density > 0.0 && best.is_none_or(|(_, _, d)| density > d + 1e-12) {
                    best = Some((vc, lines, density));
                }
                if cur + lines as f64 >= curve.max_capacity() {
                    break;
                }
                steps += 1;
            }
        }
        match best {
            Some((vc, lines, _)) => {
                alloc[vc] += lines;
                remaining -= lines;
            }
            None => break,
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(points: &[(f64, f64)]) -> MissCurve {
        MissCurve::new(points.to_vec())
    }

    #[test]
    fn steepest_curve_wins_scarce_capacity() {
        // VC0 drops 100 misses over 1024 lines; VC1 drops 10.
        let curves = vec![
            curve(&[(0.0, 100.0), (1024.0, 0.0)]),
            curve(&[(0.0, 10.0), (1024.0, 0.0)]),
        ];
        let alloc = peekahead(
            &curves,
            AllocOptions {
                total_lines: 1024,
                granularity: 1024,
                use_all_capacity: false,
                tie_tolerance: 0.1,
            },
        );
        assert_eq!(alloc, vec![1024, 0]);
    }

    #[test]
    fn capacity_split_follows_marginal_utility() {
        let curves = vec![
            curve(&[(0.0, 100.0), (2048.0, 0.0)]), // 0.049 / line
            curve(&[(0.0, 100.0), (1024.0, 40.0), (4096.0, 0.0)]),
        ];
        let opts = AllocOptions {
            total_lines: 3072,
            granularity: 1024,
            use_all_capacity: false,
            tie_tolerance: 0.1,
        };
        let alloc = peekahead(&curves, opts);
        assert_eq!(alloc.iter().sum::<u64>(), 3072);
        // VC1's first segment (~0.059/line) beats VC0's (0.049), then VC0's
        // beats VC1's tail (0.013).
        assert_eq!(alloc, vec![2048, 1024]);
    }

    #[test]
    fn peekahead_matches_reference_lookahead() {
        let curves = vec![
            curve(&[
                (0.0, 500.0),
                (1024.0, 300.0),
                (2048.0, 180.0),
                (8192.0, 20.0),
            ]),
            curve(&[(0.0, 200.0), (4096.0, 10.0)]),
            curve(&[(0.0, 80.0), (2048.0, 75.0), (3072.0, 70.0)]),
            MissCurve::flat(50.0),
        ];
        for total in [2048u64, 8192, 16384] {
            let opts = AllocOptions {
                total_lines: total,
                granularity: 1024,
                use_all_capacity: false,
                tie_tolerance: 0.1,
            };
            let fast = peekahead(&curves, opts);
            let slow = lookahead_reference(&curves, opts);
            // Both must extract the same total utility (allocations may
            // differ on ties).
            let util = |alloc: &[u64]| -> f64 {
                curves
                    .iter()
                    .zip(alloc)
                    .map(|(c, &s)| c.at_zero() - c.misses_at(s as f64))
                    .sum()
            };
            let (uf, us) = (util(&fast), util(&slow));
            assert!(
                (uf - us).abs() < 1e-6,
                "total {total}: peekahead {uf} vs lookahead {us} ({fast:?} vs {slow:?})"
            );
        }
    }

    #[test]
    fn flat_curves_get_nothing_without_use_all() {
        let curves = vec![
            MissCurve::flat(1000.0),
            curve(&[(0.0, 10.0), (1024.0, 0.0)]),
        ];
        let alloc = peekahead(
            &curves,
            AllocOptions {
                total_lines: 8192,
                granularity: 1024,
                use_all_capacity: false,
                tie_tolerance: 0.1,
            },
        );
        assert_eq!(alloc[0], 0, "streaming app must get no capacity");
        assert_eq!(alloc[1], 1024);
    }

    #[test]
    fn use_all_capacity_spreads_leftover() {
        let curves = vec![
            MissCurve::flat(1000.0),
            curve(&[(0.0, 10.0), (1024.0, 0.0)]),
        ];
        let alloc = peekahead(
            &curves,
            AllocOptions {
                total_lines: 8192,
                granularity: 1024,
                use_all_capacity: true,
                tie_tolerance: 0.1,
            },
        );
        assert_eq!(alloc.iter().sum::<u64>(), 8192);
        assert!(alloc[0] > 0, "leftover must be spread");
    }

    #[test]
    fn use_all_capacity_with_no_demand_leaves_unused() {
        let curves = vec![MissCurve::zero()];
        let alloc = peekahead(
            &curves,
            AllocOptions {
                total_lines: 4096,
                granularity: 1024,
                use_all_capacity: true,
                tie_tolerance: 0.1,
            },
        );
        assert_eq!(alloc, vec![0]);
    }

    #[test]
    fn allocation_respects_total() {
        let curves: Vec<MissCurve> = (0..7)
            .map(|i| curve(&[(0.0, 100.0 + i as f64), (10_000.0, 0.0)]))
            .collect();
        let alloc = peekahead(
            &curves,
            AllocOptions {
                total_lines: 5000,
                granularity: 512,
                use_all_capacity: false,
                tie_tolerance: 0.1,
            },
        );
        assert!(alloc.iter().sum::<u64>() <= 5000);
        for a in &alloc {
            assert_eq!(a % 512, 0);
        }
    }

    #[test]
    fn rising_total_latency_segments_never_taken() {
        // A total-latency-style curve: falls to a sweet spot then rises.
        let curves = vec![
            curve(&[(0.0, 100.0), (1024.0, 50.0)]).add(&curve(&[(0.0, 0.0)])), // still falling only
            MissCurve::new(vec![(0.0, 100.0), (1024.0, 40.0), (4096.0, 90.0)]),
        ];
        let alloc = peekahead(
            &curves,
            AllocOptions {
                total_lines: 16_384,
                granularity: 1024,
                use_all_capacity: false,
                tie_tolerance: 0.1,
            },
        );
        // VC1 must stop at its sweet spot (1024), not grow into the rising
        // region.
        assert_eq!(alloc[1], 1024);
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn zero_granularity_panics() {
        peekahead(
            &[MissCurve::zero()],
            AllocOptions {
                total_lines: 10,
                granularity: 0,
                use_all_capacity: false,
                tie_tolerance: 0.1,
            },
        );
    }

    #[test]
    fn empty_curve_list_is_fine() {
        let alloc = peekahead(&[], AllocOptions::new(1024));
        assert!(alloc.is_empty());
    }
}
