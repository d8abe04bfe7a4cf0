//! Access-pattern generators.
//!
//! A [`Pattern`] generates an infinite stream of line *offsets* within an
//! application's footprint; the simulator maps offsets into disjoint address
//! regions per virtual cache. The four primitive patterns compose (via
//! [`Pattern::Mix`]) into the miss-curve shapes the paper's workloads
//! exhibit: cliffs (loops), flat streams (scans), smooth slopes (Zipf), and
//! plateaus (hot sets).

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A synthetic memory access pattern over `0..footprint_lines()` line
/// offsets.
///
/// # Example
///
/// ```
/// use cdcs_workload::{Pattern, PatternStream};
///
/// let pattern = Pattern::Loop { lines: 100 };
/// assert_eq!(pattern.footprint_lines(), 100);
/// let mut stream = PatternStream::new(pattern, 1);
/// let offsets: Vec<u64> = (0..5).map(|_| stream.next_offset()).collect();
/// assert_eq!(offsets, vec![0, 1, 2, 3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Pattern {
    /// Sequential scan over a huge region with no temporal reuse: a
    /// streaming application (the paper's `milc`, `libquantum`). The scan
    /// wraps at `lines`, which should be far larger than any cache so that
    /// reuse never pays.
    Scan {
        /// Footprint in lines.
        lines: u64,
    },
    /// A cyclic loop over `lines` lines. Under LRU this thrashes until the
    /// allocation reaches the footprint, then every access hits: the
    /// cliff-shaped curve of the paper's `omnet` (Fig. 2).
    Loop {
        /// Loop length in lines.
        lines: u64,
    },
    /// Uniform random accesses over a hot set of `lines` lines: a plateau
    /// that turns into hits smoothly around the footprint.
    Hot {
        /// Hot-set size in lines.
        lines: u64,
    },
    /// Zipf-distributed accesses over `lines` lines with parameter `alpha`:
    /// a smooth, convex miss curve (gradually diminishing returns), typical
    /// of pointer-chasing integer codes.
    Zipf {
        /// Footprint in lines.
        lines: u64,
        /// Skew; 0 = uniform, larger = more skewed. Must be finite,
        /// non-negative and ≠ 1 (use 0.999 for near-1 skew).
        alpha: f64,
    },
    /// A probabilistic mixture of sub-patterns; weights need not sum to 1
    /// (they are normalized). Offsets of sub-pattern `i` are shifted so that
    /// sub-footprints do not overlap.
    Mix(Vec<(f64, Pattern)>),
}

impl Pattern {
    /// Total footprint in lines (sub-footprints of a mixture are disjoint).
    pub fn footprint_lines(&self) -> u64 {
        match self {
            Pattern::Scan { lines }
            | Pattern::Loop { lines }
            | Pattern::Hot { lines }
            | Pattern::Zipf { lines, .. } => *lines,
            Pattern::Mix(parts) => parts.iter().map(|(_, p)| p.footprint_lines()).sum(),
        }
    }

    /// Validates parameters; returns a human-readable error for zero-sized
    /// footprints, bad Zipf parameters, or empty/non-positive mixtures.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Pattern::Scan { lines } | Pattern::Loop { lines } | Pattern::Hot { lines } => {
                if *lines == 0 {
                    return Err("pattern footprint must be non-zero".into());
                }
            }
            Pattern::Zipf { lines, alpha } => {
                if *lines == 0 {
                    return Err("pattern footprint must be non-zero".into());
                }
                if !alpha.is_finite() || *alpha < 0.0 || (*alpha - 1.0).abs() < 1e-9 {
                    return Err(format!("invalid zipf alpha {alpha}"));
                }
            }
            Pattern::Mix(parts) => {
                if parts.is_empty() {
                    return Err("mixture must have at least one part".into());
                }
                let total: f64 = parts.iter().map(|(w, _)| *w).sum();
                if total <= 0.0 || total.is_nan() {
                    return Err("mixture weights must sum to a positive value".into());
                }
                for (w, p) in parts {
                    if !w.is_finite() || *w < 0.0 {
                        return Err(format!("invalid mixture weight {w}"));
                    }
                    p.validate()?;
                }
            }
        }
        Ok(())
    }
}

/// Mutable generation state for a [`Pattern`] (loop cursors, scan cursors).
/// Kept separate from the pattern so profiles stay immutable and shareable.
#[derive(Debug, Clone)]
pub(crate) enum PatternState {
    Scan {
        pos: u64,
    },
    Loop {
        pos: u64,
    },
    Hot,
    Zipf,
    Mix {
        states: Vec<PatternState>,
        bases: Vec<u64>,
        cum_weights: Vec<f64>,
    },
}

impl PatternState {
    pub fn new(pattern: &Pattern) -> Self {
        match pattern {
            Pattern::Scan { .. } => PatternState::Scan { pos: 0 },
            Pattern::Loop { .. } => PatternState::Loop { pos: 0 },
            Pattern::Hot { .. } => PatternState::Hot,
            Pattern::Zipf { .. } => PatternState::Zipf,
            Pattern::Mix(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| *w).sum();
                let mut acc = 0.0;
                let mut cum_weights = Vec::with_capacity(parts.len());
                let mut bases = Vec::with_capacity(parts.len());
                let mut base = 0u64;
                for (w, p) in parts {
                    acc += w / total;
                    cum_weights.push(acc);
                    bases.push(base);
                    base += p.footprint_lines();
                }
                PatternState::Mix {
                    states: parts.iter().map(|(_, p)| PatternState::new(p)).collect(),
                    bases,
                    cum_weights,
                }
            }
        }
    }

    /// Bulk form of [`Self::next_offset`]: overwrites every slot of `out`
    /// with the next `out.len()` offsets — exactly the sequence that many
    /// single draws would produce, with the pattern dispatch hoisted out of
    /// the loop. The simulator pre-sizes one flat interval buffer and fills
    /// disjoint per-thread windows of it in parallel.
    pub fn fill_offsets_slice(&mut self, pattern: &Pattern, rng: &mut SmallRng, out: &mut [u64]) {
        match (self, pattern) {
            (PatternState::Scan { pos }, Pattern::Scan { lines })
            | (PatternState::Loop { pos }, Pattern::Loop { lines }) => {
                for slot in out {
                    *slot = *pos;
                    *pos += 1;
                    if *pos == *lines {
                        *pos = 0;
                    }
                }
            }
            (PatternState::Hot, Pattern::Hot { lines }) => {
                for slot in out {
                    *slot = rng.gen_range(0..*lines);
                }
            }
            (PatternState::Zipf, Pattern::Zipf { lines, alpha }) => {
                for slot in out {
                    *slot = zipf_sample(*lines, *alpha, rng);
                }
            }
            (state @ PatternState::Mix { .. }, pattern @ Pattern::Mix(_)) => {
                for slot in out {
                    *slot = state.next_offset(pattern, rng);
                }
            }
            _ => unreachable!("pattern state mismatch"),
        }
    }

    /// Draws the next line offset for `pattern` (must be the same pattern
    /// this state was built from).
    pub fn next_offset(&mut self, pattern: &Pattern, rng: &mut SmallRng) -> u64 {
        match (self, pattern) {
            // The cursor advance is a compare-and-wrap rather than `% lines`:
            // `pos < lines` always holds, so the two are the same sequence,
            // without a 64-bit division on the per-access path.
            (PatternState::Scan { pos }, Pattern::Scan { lines }) => {
                let o = *pos;
                *pos += 1;
                if *pos == *lines {
                    *pos = 0;
                }
                o
            }
            (PatternState::Loop { pos }, Pattern::Loop { lines }) => {
                let o = *pos;
                *pos += 1;
                if *pos == *lines {
                    *pos = 0;
                }
                o
            }
            (PatternState::Hot, Pattern::Hot { lines }) => rng.gen_range(0..*lines),
            (PatternState::Zipf, Pattern::Zipf { lines, alpha }) => {
                zipf_sample(*lines, *alpha, rng)
            }
            (
                PatternState::Mix {
                    states,
                    bases,
                    cum_weights,
                },
                Pattern::Mix(parts),
            ) => {
                let u: f64 = rng.gen();
                let i = cum_weights
                    .iter()
                    .position(|&c| u <= c)
                    .unwrap_or(cum_weights.len() - 1);
                bases[i] + states[i].next_offset(&parts[i].1, rng)
            }
            _ => unreachable!("pattern state mismatch"),
        }
    }
}

/// A self-contained stream of offsets drawn from a [`Pattern`]: the pattern,
/// its cursor state, and a seeded RNG bundled together.
///
/// # Example
///
/// ```
/// use cdcs_workload::{Pattern, PatternStream};
///
/// let mut stream = PatternStream::new(Pattern::Loop { lines: 100 }, 1);
/// let offsets: Vec<u64> = (0..5).map(|_| stream.next_offset()).collect();
/// assert_eq!(offsets, vec![0, 1, 2, 3, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct PatternStream {
    pattern: Pattern,
    state: PatternState,
    rng: SmallRng,
}

impl PatternStream {
    /// Creates a stream over `pattern`, deterministically seeded.
    ///
    /// # Panics
    ///
    /// Panics if the pattern fails [`Pattern::validate`].
    pub fn new(pattern: Pattern, seed: u64) -> Self {
        use rand::SeedableRng;
        if let Err(e) = pattern.validate() {
            panic!("invalid pattern: {e}");
        }
        let state = PatternState::new(&pattern);
        PatternStream {
            pattern,
            state,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The pattern this stream draws from.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Draws the next line offset in `0..pattern().footprint_lines()`.
    pub fn next_offset(&mut self) -> u64 {
        self.state.next_offset(&self.pattern, &mut self.rng)
    }
}

/// Samples a Zipf(alpha)-distributed rank in `0..n` via the continuous
/// inverse-CDF approximation. Rank 0 is the hottest line. Ranks are used
/// directly as offsets: spatial contiguity is irrelevant here because every
/// downstream structure (VTB buckets, pools, monitors) hashes addresses.
fn zipf_sample(n: u64, alpha: f64, rng: &mut SmallRng) -> u64 {
    debug_assert!(n > 0);
    let u: f64 = rng.gen::<f64>().max(1e-12);
    let one_minus_a = 1.0 - alpha;
    // Inverse CDF of p(x) ~ x^-alpha on the continuous support [1, n+1), so
    // every integer rank (after flooring) has non-zero probability:
    // x = (((n+1)^(1-a) - 1) u + 1)^(1/(1-a)).
    let x = (((n + 1) as f64).powf(one_minus_a).mul_add(u, 1.0 - u)).powf(1.0 / one_minus_a);
    (x as u64).clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn footprints_sum_in_mixtures() {
        let p = Pattern::Mix(vec![
            (0.5, Pattern::Loop { lines: 100 }),
            (0.5, Pattern::Hot { lines: 50 }),
        ]);
        assert_eq!(p.footprint_lines(), 150);
    }

    #[test]
    fn mixture_subpatterns_use_disjoint_ranges() {
        let pattern = Pattern::Mix(vec![
            (0.5, Pattern::Hot { lines: 100 }),
            (0.5, Pattern::Hot { lines: 100 }),
        ]);
        let mut state = PatternState::new(&pattern);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen_low = false;
        let mut seen_high = false;
        for _ in 0..1000 {
            let o = state.next_offset(&pattern, &mut rng);
            assert!(o < 200);
            if o < 100 {
                seen_low = true;
            } else {
                seen_high = true;
            }
        }
        assert!(seen_low && seen_high);
    }

    #[test]
    fn zipf_is_skewed() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            *counts
                .entry(zipf_sample(10_000, 0.9, &mut rng))
                .or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Top-10 lines should take a disproportionate share of accesses.
        let top10: u64 = freqs.iter().take(10).sum();
        assert!(top10 > 10_000, "top10 = {top10}");
        // But the tail must still be broad.
        assert!(counts.len() > 2_000, "distinct = {}", counts.len());
    }

    #[test]
    fn zipf_zero_alpha_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[zipf_sample(100, 0.0, &mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.5, "max {max} min {min}");
    }

    #[test]
    fn validate_rejects_bad_patterns() {
        assert!(Pattern::Loop { lines: 0 }.validate().is_err());
        assert!(Pattern::Zipf {
            lines: 10,
            alpha: 1.0
        }
        .validate()
        .is_err());
        assert!(Pattern::Zipf {
            lines: 10,
            alpha: -0.5
        }
        .validate()
        .is_err());
        assert!(Pattern::Mix(vec![]).validate().is_err());
        assert!(Pattern::Mix(vec![(0.0, Pattern::Hot { lines: 1 })])
            .validate()
            .is_err());
        assert!(Pattern::Loop { lines: 10 }.validate().is_ok());
    }

    #[test]
    fn hot_pattern_stays_in_range() {
        let pattern = Pattern::Hot { lines: 7 };
        let mut state = PatternState::new(&pattern);
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..100 {
            assert!(state.next_offset(&pattern, &mut rng) < 7);
        }
    }

    #[test]
    fn loop_state_cycles() {
        let pattern = Pattern::Loop { lines: 3 };
        let mut state = PatternState::new(&pattern);
        let mut rng = SmallRng::seed_from_u64(7);
        let xs: Vec<u64> = (0..7)
            .map(|_| state.next_offset(&pattern, &mut rng))
            .collect();
        assert_eq!(xs, vec![0, 1, 2, 0, 1, 2, 0]);
    }
}
