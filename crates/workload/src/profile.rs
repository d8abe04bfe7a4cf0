//! Application profiles and per-thread access streams.

use crate::pattern::{Pattern, PatternState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which virtual cache a memory access targets.
///
/// CDCS creates "one thread-private VC per thread, one per-process VC for
/// each process, and a global VC" (§III). Our synthetic workloads know their
/// sharing pattern a priori, so each generated access is tagged with its
/// class — standing in for the paper's page-to-VC classification, which is
/// stable in steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StreamTarget {
    /// Data accessed by a single thread.
    ThreadPrivate,
    /// Data shared by threads of the same process.
    ProcessShared,
    /// Data shared across processes (rare; e.g. shared libraries).
    Global,
}

/// A synthetic application model.
///
/// Profiles are *immutable descriptions*; per-thread mutable stream state
/// lives in [`AccessStream`]. All footprints are in 64-byte lines.
///
/// # Example
///
/// ```
/// use cdcs_workload::{AppProfile, Pattern};
///
/// let app = AppProfile::single_threaded("toy", 20.0, 1.0, 2.0,
///     Pattern::Loop { lines: 4096 });
/// assert_eq!(app.threads, 1);
/// assert_eq!(app.total_footprint_lines(), 4096);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Short benchmark-style name (e.g. `"omnet"`).
    pub name: String,
    /// Thread count: 1 for SPEC-CPU-like apps, 8 for the paper's OMP mixes.
    pub threads: usize,
    /// LLC accesses per kilo-instruction, per thread (the paper selects
    /// SPEC apps with ≥ 5 L2 MPKI; an L2 miss is an LLC access).
    pub apki: f64,
    /// IPC when every LLC access hits instantly (base pipeline throughput of
    /// the lean 2-way OOO core on this code).
    pub ipc0: f64,
    /// Memory-level parallelism: how many LLC accesses the core overlaps on
    /// average, dividing the exposed stall per access.
    pub mlp: f64,
    /// Access pattern over each thread's private footprint.
    pub private_pattern: Pattern,
    /// Access pattern over the process-wide shared footprint, if any.
    pub shared_pattern: Option<Pattern>,
    /// Fraction of accesses that go to the shared footprint (0 if none).
    pub shared_frac: f64,
}

impl AppProfile {
    /// Creates a single-threaded profile with a private pattern only.
    ///
    /// # Panics
    ///
    /// Panics if parameters are invalid (see [`AppProfile::validate`]).
    pub fn single_threaded(
        name: &str,
        apki: f64,
        ipc0: f64,
        mlp: f64,
        private_pattern: Pattern,
    ) -> Self {
        let p = AppProfile {
            name: name.to_string(),
            threads: 1,
            apki,
            ipc0,
            mlp,
            private_pattern,
            shared_pattern: None,
            shared_frac: 0.0,
        };
        p.validate().expect("invalid profile");
        p
    }

    /// Creates a multi-threaded profile with private and shared footprints.
    ///
    /// # Panics
    ///
    /// Panics if parameters are invalid (see [`AppProfile::validate`]).
    #[allow(clippy::too_many_arguments)]
    pub fn multi_threaded(
        name: &str,
        threads: usize,
        apki: f64,
        ipc0: f64,
        mlp: f64,
        private_pattern: Pattern,
        shared_pattern: Pattern,
        shared_frac: f64,
    ) -> Self {
        let p = AppProfile {
            name: name.to_string(),
            threads,
            apki,
            ipc0,
            mlp,
            private_pattern,
            shared_pattern: Some(shared_pattern),
            shared_frac,
        };
        p.validate().expect("invalid profile");
        p
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("profile name must be non-empty".into());
        }
        if self.threads == 0 {
            return Err("thread count must be non-zero".into());
        }
        if self.apki <= 0.0 || !self.apki.is_finite() {
            return Err(format!("apki must be positive, got {}", self.apki));
        }
        if self.ipc0 <= 0.0 || !self.ipc0.is_finite() {
            return Err(format!("ipc0 must be positive, got {}", self.ipc0));
        }
        if self.mlp < 1.0 || !self.mlp.is_finite() {
            return Err(format!("mlp must be >= 1, got {}", self.mlp));
        }
        self.private_pattern.validate()?;
        match (&self.shared_pattern, self.shared_frac) {
            (None, f) if f != 0.0 => {
                return Err("shared_frac must be 0 without a shared pattern".into())
            }
            (Some(p), f) => {
                p.validate()?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(format!("shared_frac must be in [0,1], got {f}"));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Per-thread private footprint, in lines.
    pub fn private_footprint_lines(&self) -> u64 {
        self.private_pattern.footprint_lines()
    }

    /// Process-wide shared footprint, in lines (0 if none).
    pub fn shared_footprint_lines(&self) -> u64 {
        self.shared_pattern
            .as_ref()
            .map_or(0, Pattern::footprint_lines)
    }

    /// Total footprint of the whole process: all threads' private data plus
    /// the shared region.
    pub fn total_footprint_lines(&self) -> u64 {
        self.threads as u64 * self.private_footprint_lines() + self.shared_footprint_lines()
    }

    /// Whether this app is multi-threaded.
    pub fn is_multi_threaded(&self) -> bool {
        self.threads > 1
    }
}

/// Per-thread access-stream state for one [`AppProfile`].
///
/// Deterministic: the same `(profile, thread_index, seed)` triple always
/// yields the same stream.
#[derive(Debug, Clone)]
pub struct AccessStream {
    shared_frac: f64,
    private_pattern: Pattern,
    private_state: PatternState,
    shared: Option<(Pattern, PatternState)>,
    rng: SmallRng,
}

impl AccessStream {
    /// Creates the stream for thread `thread_index` of an app.
    ///
    /// Different threads of the same process get de-correlated private
    /// streams (different RNG streams and loop phases) but share the same
    /// shared-pattern *address range* — their shared accesses interleave in
    /// the simulator through the common process VC.
    pub fn for_thread(profile: &AppProfile, thread_index: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(
            seed ^ (thread_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let mut private_state = PatternState::new(&profile.private_pattern);
        // De-phase loop/scan cursors across threads so identical threads do
        // not access in lockstep.
        let phase = rng.gen_range(0..profile.private_footprint_lines().max(1));
        for _ in 0..(phase % 8192) {
            private_state.next_offset(&profile.private_pattern, &mut rng);
        }
        let shared = profile.shared_pattern.clone().map(|p| {
            let s = PatternState::new(&p);
            (p, s)
        });
        AccessStream {
            shared_frac: profile.shared_frac,
            private_pattern: profile.private_pattern.clone(),
            private_state,
            shared,
            rng,
        }
    }

    /// Whether this stream can serve [`Self::fill_private_offsets_slice`]: no
    /// shared pattern, so every access is thread-private and no RNG draw
    /// decides the class.
    pub fn is_private_only(&self) -> bool {
        self.shared.is_none()
    }

    /// Bulk draw for private-only streams: overwrites every slot of `out`
    /// with the next `out.len()` offsets — exactly the offsets that many
    /// [`Self::next_access`] calls would return (which would all be
    /// [`StreamTarget::ThreadPrivate`]), with the per-access pattern
    /// dispatch hoisted (the simulator fills disjoint windows of one flat
    /// interval buffer from several threads at once).
    ///
    /// # Panics
    ///
    /// Panics if the stream has a shared pattern (class selection consumes
    /// RNG draws, so bulk generation would diverge).
    pub fn fill_private_offsets_slice(&mut self, out: &mut [u64]) {
        assert!(self.shared.is_none(), "stream has a shared pattern");
        self.private_state
            .fill_offsets_slice(&self.private_pattern, &mut self.rng, out);
    }

    /// Draws the next access: which VC class it targets and the line offset
    /// within that class's footprint.
    pub fn next_access(&mut self) -> (StreamTarget, u64) {
        if let Some((pattern, state)) = &mut self.shared {
            if self.rng.gen::<f64>() < self.shared_frac {
                return (
                    StreamTarget::ProcessShared,
                    state.next_offset(pattern, &mut self.rng),
                );
            }
        }
        (
            StreamTarget::ThreadPrivate,
            self.private_state
                .next_offset(&self.private_pattern, &mut self.rng),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_mt() -> AppProfile {
        AppProfile::multi_threaded(
            "mt",
            4,
            10.0,
            1.0,
            2.0,
            Pattern::Hot { lines: 100 },
            Pattern::Hot { lines: 500 },
            0.5,
        )
    }

    #[test]
    fn slice_fill_matches_single_draws() {
        let app = AppProfile::single_threaded(
            "st",
            10.0,
            1.0,
            2.0,
            Pattern::Mix(vec![
                (0.7, Pattern::Hot { lines: 64 }),
                (0.3, Pattern::Scan { lines: 512 }),
            ]),
        );
        let mut a = AccessStream::for_thread(&app, 0, 42);
        let mut b = a.clone();
        // Two fills back to back: the second must resume where the first
        // left the pattern cursor and the RNG.
        let mut slice_out = vec![0u64; 257];
        let (head, tail) = slice_out.split_at_mut(100);
        a.fill_private_offsets_slice(head);
        a.fill_private_offsets_slice(tail);
        let single: Vec<(StreamTarget, u64)> = (0..257).map(|_| b.next_access()).collect();
        assert!(single
            .iter()
            .all(|&(t, _)| t == StreamTarget::ThreadPrivate));
        let single: Vec<u64> = single.into_iter().map(|(_, o)| o).collect();
        assert_eq!(slice_out, single);
    }

    #[test]
    fn footprints_add_up() {
        let app = toy_mt();
        assert_eq!(app.private_footprint_lines(), 100);
        assert_eq!(app.shared_footprint_lines(), 500);
        assert_eq!(app.total_footprint_lines(), 4 * 100 + 500);
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        let mut app = toy_mt();
        app.apki = 0.0;
        assert!(app.validate().is_err());
        let mut app = toy_mt();
        app.mlp = 0.5;
        assert!(app.validate().is_err());
        let mut app = toy_mt();
        app.shared_frac = 1.5;
        assert!(app.validate().is_err());
        let mut app = toy_mt();
        app.shared_pattern = None;
        assert!(app.validate().is_err(), "shared_frac without pattern");
        let mut app = toy_mt();
        app.name.clear();
        assert!(app.validate().is_err());
        let mut app = toy_mt();
        app.threads = 0;
        assert!(app.validate().is_err());
    }

    #[test]
    fn single_threaded_never_emits_shared() {
        let app = AppProfile::single_threaded("st", 5.0, 1.0, 2.0, Pattern::Hot { lines: 64 });
        let mut s = AccessStream::for_thread(&app, 0, 7);
        for _ in 0..1000 {
            let (t, o) = s.next_access();
            assert_eq!(t, StreamTarget::ThreadPrivate);
            assert!(o < 64);
        }
    }

    #[test]
    fn shared_fraction_is_respected() {
        let app = toy_mt();
        let mut s = AccessStream::for_thread(&app, 0, 7);
        let shared = (0..10_000)
            .filter(|_| s.next_access().0 == StreamTarget::ProcessShared)
            .count();
        assert!(
            (shared as f64 - 5_000.0).abs() < 500.0,
            "shared count {shared} far from 50%"
        );
    }

    #[test]
    fn streams_are_deterministic() {
        let app = toy_mt();
        let mut a = AccessStream::for_thread(&app, 1, 7);
        let mut b = AccessStream::for_thread(&app, 1, 7);
        for _ in 0..100 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn threads_are_decorrelated() {
        let app = toy_mt();
        let mut a = AccessStream::for_thread(&app, 0, 7);
        let mut b = AccessStream::for_thread(&app, 1, 7);
        let same = (0..200)
            .filter(|_| a.next_access() == b.next_access())
            .count();
        assert!(same < 100, "{same} identical draws");
    }

    #[test]
    fn offsets_stay_in_footprints() {
        let app = toy_mt();
        let mut s = AccessStream::for_thread(&app, 2, 9);
        for _ in 0..5000 {
            let (t, o) = s.next_access();
            match t {
                StreamTarget::ThreadPrivate => assert!(o < 100),
                StreamTarget::ProcessShared => assert!(o < 500),
                StreamTarget::Global => panic!("no global accesses configured"),
            }
        }
    }
}
