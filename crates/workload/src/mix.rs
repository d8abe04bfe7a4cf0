//! Workload mixes: collections of application instances run together.
//!
//! The paper's methodology (§V): 50 mixes of 1–64 randomly-chosen
//! memory-intensive SPEC CPU2006 apps for single-threaded experiments, 50
//! mixes of four or eight 8-thread SPEC OMP2012 apps for multi-threaded ones,
//! and the hand-picked §II-B case-study mix (6×omnet + 14×milc + 2×ilbdc).

use crate::{spec, AppProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Declarative description of a mix, convertible to a [`WorkloadMix`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MixSpec {
    /// `count` random single-threaded apps (with replacement) from the
    /// SPEC-like suite, seeded by `mix_seed`.
    RandomSingleThreaded {
        /// Number of app instances.
        count: usize,
        /// Mix seed; the paper's "50 mixes" are seeds `0..50`.
        mix_seed: u64,
    },
    /// `count` random 8-thread apps from the OMP-like suite.
    RandomMultiThreaded {
        /// Number of app instances.
        count: usize,
        /// Mix seed.
        mix_seed: u64,
    },
    /// The §II-B case study: 6×omnet, 14×milc, 2×ilbdc(8T) on 36 tiles.
    CaseStudy,
    /// An explicit list of benchmark names (repeats allowed).
    Named(Vec<String>),
}

/// A concrete mix: an ordered list of process profiles plus the seed that
/// derives all per-thread stream seeds.
///
/// Serializable so a mix can travel inside a wire-safe `GridCell` to
/// remote fleet runners; both fields are `#[serde(default)]` so a
/// version-skewed peer parses leniently (an empty mix is rejected at
/// simulation construction, not at parse time).
///
/// # Example
///
/// ```
/// use cdcs_workload::{MixSpec, WorkloadMix};
///
/// let mix = WorkloadMix::from_spec(&MixSpec::CaseStudy).unwrap();
/// assert_eq!(mix.processes().len(), 22);
/// assert_eq!(mix.total_threads(), 6 + 14 + 2 * 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    #[serde(default)]
    processes: Vec<AppProfile>,
    #[serde(default)]
    seed: u64,
}

impl Default for WorkloadMix {
    /// An empty mix — only a serde fallback for lenient wire parsing;
    /// `Simulation::new` rejects it.
    fn default() -> Self {
        WorkloadMix {
            processes: Vec::new(),
            seed: 0,
        }
    }
}

impl WorkloadMix {
    /// Builds a mix from an explicit profile list.
    pub fn new(processes: Vec<AppProfile>, seed: u64) -> Self {
        WorkloadMix { processes, seed }
    }

    /// Materializes a [`MixSpec`].
    ///
    /// # Errors
    ///
    /// Returns an error if a named benchmark does not exist or a random spec
    /// has zero count.
    pub fn from_spec(spec: &MixSpec) -> Result<Self, String> {
        match spec {
            MixSpec::RandomSingleThreaded { count, mix_seed } => {
                if *count == 0 {
                    return Err("mix must contain at least one app".into());
                }
                let suite = spec::all_single_threaded();
                let mut rng = StdRng::seed_from_u64(0xC0DE_5EED ^ *mix_seed);
                let processes = (0..*count)
                    .map(|_| suite[rng.gen_range(0..suite.len())].clone())
                    .collect();
                Ok(WorkloadMix {
                    processes,
                    seed: *mix_seed,
                })
            }
            MixSpec::RandomMultiThreaded { count, mix_seed } => {
                if *count == 0 {
                    return Err("mix must contain at least one app".into());
                }
                let suite = spec::all_multi_threaded();
                let mut rng = StdRng::seed_from_u64(0x0123_4567_89AB_CDEF ^ *mix_seed);
                let processes = (0..*count)
                    .map(|_| suite[rng.gen_range(0..suite.len())].clone())
                    .collect();
                Ok(WorkloadMix {
                    processes,
                    seed: *mix_seed,
                })
            }
            MixSpec::CaseStudy => {
                let mut names = vec!["omnet"; 6];
                names.extend(vec!["milc"; 14]);
                names.extend(vec!["ilbdc"; 2]);
                WorkloadMix::from_spec(&MixSpec::Named(
                    names.into_iter().map(String::from).collect(),
                ))
            }
            MixSpec::Named(names) => {
                if names.is_empty() {
                    return Err("mix must contain at least one app".into());
                }
                let mut processes = Vec::with_capacity(names.len());
                for n in names {
                    processes.push(
                        spec::by_name(n)
                            .ok_or_else(|| format!("unknown benchmark {n}"))?
                            .clone(),
                    );
                }
                Ok(WorkloadMix { processes, seed: 0 })
            }
        }
    }

    /// The process profiles in this mix, in process-id order.
    pub fn processes(&self) -> &[AppProfile] {
        &self.processes
    }

    /// Appends a process to the mix (the simulator extends the roster with
    /// one slot per scripted arrival before construction). Stream
    /// seeds of existing processes are unaffected — [`Self::stream_seed`]
    /// depends only on the mix seed and the process/thread indices.
    pub fn push_process(&mut self, app: AppProfile) {
        self.processes.push(app);
    }

    /// Total thread count across all processes.
    pub fn total_threads(&self) -> usize {
        self.processes.iter().map(|p| p.threads).sum()
    }

    /// The mix seed; per-thread stream seeds are derived from it.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Deterministic stream seed for thread `t` of process `p`.
    pub fn stream_seed(&self, process: usize, thread: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((process as u64) << 20)
            .wrapping_add(thread as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_mix_is_deterministic() {
        let a = WorkloadMix::from_spec(&MixSpec::RandomSingleThreaded {
            count: 8,
            mix_seed: 3,
        })
        .unwrap();
        let b = WorkloadMix::from_spec(&MixSpec::RandomSingleThreaded {
            count: 8,
            mix_seed: 3,
        })
        .unwrap();
        let names_a: Vec<&str> = a.processes().iter().map(|p| p.name.as_str()).collect();
        let names_b: Vec<&str> = b.processes().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names_a, names_b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadMix::from_spec(&MixSpec::RandomSingleThreaded {
            count: 16,
            mix_seed: 1,
        })
        .unwrap();
        let b = WorkloadMix::from_spec(&MixSpec::RandomSingleThreaded {
            count: 16,
            mix_seed: 2,
        })
        .unwrap();
        let names_a: Vec<&str> = a.processes().iter().map(|p| p.name.as_str()).collect();
        let names_b: Vec<&str> = b.processes().iter().map(|p| p.name.as_str()).collect();
        assert_ne!(names_a, names_b);
    }

    #[test]
    fn case_study_composition() {
        let mix = WorkloadMix::from_spec(&MixSpec::CaseStudy).unwrap();
        let omnets = mix.processes().iter().filter(|p| p.name == "omnet").count();
        let milcs = mix.processes().iter().filter(|p| p.name == "milc").count();
        let ilbdcs = mix.processes().iter().filter(|p| p.name == "ilbdc").count();
        assert_eq!((omnets, milcs, ilbdcs), (6, 14, 2));
        assert_eq!(mix.total_threads(), 36);
    }

    #[test]
    fn named_mix_rejects_unknown() {
        let err = WorkloadMix::from_spec(&MixSpec::Named(vec!["nope".into()])).unwrap_err();
        assert!(err.contains("unknown"));
    }

    #[test]
    fn empty_mixes_rejected() {
        assert!(WorkloadMix::from_spec(&MixSpec::Named(vec![])).is_err());
        assert!(WorkloadMix::from_spec(&MixSpec::RandomSingleThreaded {
            count: 0,
            mix_seed: 0
        })
        .is_err());
    }

    #[test]
    fn multi_threaded_mixes_draw_omp_suite() {
        let mix = WorkloadMix::from_spec(&MixSpec::RandomMultiThreaded {
            count: 8,
            mix_seed: 7,
        })
        .unwrap();
        assert_eq!(mix.total_threads(), 64);
        for p in mix.processes() {
            assert_eq!(p.threads, 8);
        }
    }

    #[test]
    fn stream_seeds_are_unique() {
        let mix = WorkloadMix::from_spec(&MixSpec::CaseStudy).unwrap();
        let mut seeds = std::collections::HashSet::new();
        for p in 0..mix.processes().len() {
            for t in 0..mix.processes()[p].threads {
                assert!(seeds.insert(mix.stream_seed(p, t)));
            }
        }
    }
}
