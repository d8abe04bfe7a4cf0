//! A conventional set-associative cache model.
//!
//! The simulator's banks use the exact-capacity [`crate::LruPool`]
//! idealization of Vantage (see `DESIGN.md` §1). This model exists to validate
//! that idealization: tests compare pool hit rates against a real
//! set-associative array of the same size and show they track closely for
//! the access patterns the workloads produce. It is also reused as the tag
//! array geometry inside the monitors.

use crate::{Line, LruPool};
use serde::{Deserialize, Serialize};

/// Hit/miss statistics for a [`SetAssocCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetAssocStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

/// A `sets × ways` set-associative cache with per-set LRU replacement.
///
/// # Example
///
/// ```
/// use cdcs_cache::{Line, SetAssocCache};
///
/// // A 32 KB L1-like array: 64 sets, 8 ways.
/// let mut cache = SetAssocCache::new(64, 8);
/// assert!(!cache.access(Line(0)));
/// assert!(cache.access(Line(0)));
/// assert_eq!(cache.capacity(), 512);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: Vec<LruPool>,
    ways: usize,
    stats: SetAssocStats,
}

impl SetAssocCache {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two (hardware indexes sets with
    /// address bits) or either dimension is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be non-zero");
        SetAssocCache {
            sets: (0..sets).map(|_| LruPool::new(ways)).collect(),
            ways,
            stats: SetAssocStats::default(),
        }
    }

    /// Total capacity in lines.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_of(&self, line: Line) -> usize {
        (line.0 as usize) & (self.sets.len() - 1)
    }

    /// Accesses `line`, filling it on a miss (evicting the set's LRU line if
    /// needed). Returns whether it hit.
    pub fn access(&mut self, line: Line) -> bool {
        let set = self.set_of(line);
        let (hit, _evicted) = self.sets[set].access_insert(line);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Whether `line` is resident, without updating LRU state or statistics.
    pub fn peek(&self, line: Line) -> bool {
        self.sets[self.set_of(line)].contains(line)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SetAssocStats {
        self.stats
    }

    /// Resets statistics.
    pub fn reset_stats(&mut self) {
        self.stats = SetAssocStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(!c.access(Line(1)));
        assert!(c.access(Line(1)));
        assert_eq!(c.stats(), SetAssocStats { hits: 1, misses: 1 });
    }

    #[test]
    fn conflict_misses_within_set() {
        let mut c = SetAssocCache::new(4, 1);
        // Lines 0, 4, 8 all map to set 0 with 4 sets.
        c.access(Line(0));
        c.access(Line(4));
        assert!(!c.access(Line(0)), "way conflict must evict");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        SetAssocCache::new(3, 2);
    }

    #[test]
    fn peek_does_not_disturb() {
        let mut c = SetAssocCache::new(2, 2);
        c.access(Line(0));
        assert!(c.peek(Line(0)));
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn pool_idealization_tracks_set_assoc() {
        // For a random access pattern over a working set near capacity, a
        // 16-way set-associative cache and an exact LRU pool of equal size
        // should produce similar hit rates (within a few percent).
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut sa = SetAssocCache::new(64, 16); // 1024 lines
        let mut pool = LruPool::new(1024);
        let mut pool_hits = 0u64;
        let accesses = 200_000;
        for _ in 0..accesses {
            let addr = rng.gen_range(0..1500u64);
            sa.access(Line(addr));
            let (hit, _) = pool.access_insert(Line(addr));
            if hit {
                pool_hits += 1;
            }
        }
        let sa_rate = sa.stats().hits as f64 / accesses as f64;
        let pool_rate = pool_hits as f64 / accesses as f64;
        assert!(
            (sa_rate - pool_rate).abs() < 0.05,
            "set-assoc {sa_rate:.3} vs pool {pool_rate:.3}"
        );
    }
}
