//! Seeded job streams.
//!
//! A workload's inputs are a list of *distinct* specs plus a job order over
//! them, both derived from `--seed` alone. The program only ever receives
//! the generated specs (in-process: `ExperimentSpec`; served: their JSON).

use cdcs_bench::exp::{BaseConfig, ExperimentSpec, SpecKind};
use cdcs_bench::specs;
use cdcs_workload::MixSpec;

/// Variants of each small job kind: variant `v` runs random mixes drawn
/// with mix seed `v` (so every seed runs the same app mixes, and the same
/// number of cells), under a simulation seed picked by `--seed`. Seed 0 /
/// variant 0 keeps each spec's own seed: exactly the spec behind each
/// committed `out/*_small.json` golden.
pub const VARIANTS: u64 = 2;

/// The small-chip job kinds, in the order the README lists them.
pub const SMALL_KINDS: [&str; 7] = [
    "quickstart",
    "fig11",
    "fig12",
    "dynamic_mix",
    "trace_replay",
    "mega_mesh",
    "fig5",
];

/// SplitMix64: the benchmark's only randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_5EED)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Sets every random mix of a grid spec to `mix_seed`.
fn with_mix_seed(mut spec: ExperimentSpec, mix_seed: u64) -> ExperimentSpec {
    if let SpecKind::Grid(grid) = &mut spec.kind {
        for entry in &mut grid.mixes {
            if let MixSpec::RandomSingleThreaded { count, .. } = entry.spec {
                *entry = cdcs_bench::exp::MixEntry::auto(MixSpec::RandomSingleThreaded {
                    count,
                    mix_seed,
                });
            }
        }
    }
    spec
}

/// Runs a grid spec under simulation seed `sim_seed` (`None` keeps the
/// base config's seed, as committed).
fn with_sim_seed(mut spec: ExperimentSpec, sim_seed: Option<u64>) -> ExperimentSpec {
    if let (Some(seed), SpecKind::Grid(grid)) = (sim_seed, &mut spec.kind) {
        grid.seeds = vec![seed];
    }
    spec
}

/// The `--small` convention of the figure binaries and `cdcs run`: rebase
/// onto the 4×4 test chip and rename to `<name>_small`.
fn small(mut spec: ExperimentSpec) -> ExperimentSpec {
    spec.set_base(BaseConfig::SmallTest);
    spec.name = format!("{}_small", spec.name);
    spec
}

/// One small-chip job of kind `kind`, variant `variant`, for `seed`.
pub fn small_job(kind: &str, variant: u64, seed: u64) -> ExperimentSpec {
    let sim_seed = (seed != 0 || variant != 0).then_some(1000 + seed * VARIANTS + variant);
    let spec = match kind {
        "quickstart" => small(specs::quickstart()),
        "fig11" => with_mix_seed(small(specs::fig11(1, 4)), variant),
        "fig12" => with_mix_seed(small(specs::fig12(1, &[2, 4])), variant),
        "dynamic_mix" => small(specs::dynamic_mix()),
        "trace_replay" => small(specs::trace_replay()),
        "mega_mesh" => with_mix_seed(small(specs::mega_mesh(1, 2)), variant),
        // An analysis spec: nothing to seed, so every seed serves the
        // committed `out/fig5.json` spec (the stream's built-in repeat).
        "fig5" => return specs::fig5(),
        other => panic!("unknown small job kind {other}"),
    };
    with_sim_seed(spec, sim_seed)
}

/// A workload's inputs: its distinct specs and its job order.
pub struct Stream {
    /// Distinct specs, deduplicated by JSON.
    pub specs: Vec<ExperimentSpec>,
    /// Each distinct spec's compact JSON (what a served client submits).
    pub json: Vec<String>,
    /// Jobs per round; the order repeats round after round.
    rounds: Vec<Vec<usize>>,
    /// Round `r` runs variant `r % variants`.
    variants: usize,
}

impl Stream {
    fn from_rounds(seed: u64, kinds: usize, variants: &[Vec<ExperimentSpec>]) -> Stream {
        let mut specs: Vec<ExperimentSpec> = Vec::new();
        let mut json: Vec<String> = Vec::new();
        // index[v][k]: distinct-spec index of kind k in variant v.
        let mut index: Vec<Vec<usize>> = Vec::new();
        for variant in variants {
            let mut row = Vec::new();
            for spec in variant {
                let text = serde_json::to_string(spec).expect("spec serializes");
                let i = match json.iter().position(|j| *j == text) {
                    Some(i) => i,
                    None => {
                        specs.push(spec.clone());
                        json.push(text);
                        json.len() - 1
                    }
                };
                row.push(i);
            }
            index.push(row);
        }
        // Each round runs every kind once, in a seeded order, cycling through
        // the variants; the order repeats after `variants × 4` rounds.
        let mut rng = Rng::new(seed);
        let rounds = (0..variants.len() * 4)
            .map(|r| {
                let row = &index[r % variants.len()];
                rng.permutation(kinds).into_iter().map(|k| row[k]).collect()
            })
            .collect();
        Stream {
            specs,
            json,
            rounds,
            variants: variants.len(),
        }
    }

    /// The distinct-spec index of job `n`.
    pub fn job(&self, n: usize) -> usize {
        let per_round = self.rounds[0].len();
        let round = (n / per_round) % self.rounds.len();
        self.rounds[round][n % per_round]
    }

    /// Jobs per round (a round runs every kind once).
    pub fn round_len(&self) -> usize {
        self.rounds[0].len()
    }

    /// Rounds until every distinct spec has run.
    pub fn variants(&self) -> usize {
        self.variants
    }
}

/// `fig12_64`: the Fig. 12 factor analysis on the 64-tile target chip over
/// one 64-app and one 4-app random mix (mix seed 0) — one spec, re-run job
/// after job, under a simulation seed picked by `--seed`. The mixes stay
/// fixed so every seed simulates the same apps (a different 64-app mix
/// changes the work, and the memory, of a job by several percent). Seed 0
/// is exactly `fig12 --mixes 1`.
pub fn fig12_64(seed: u64) -> Stream {
    let sim_seed = (seed != 0).then_some(1000 + seed);
    let spec = with_sim_seed(specs::fig12(1, &[64, 4]), sim_seed);
    Stream::from_rounds(seed, 1, &[vec![spec]])
}

/// The small stream of `sweep_small` and the served workloads: every kind in
/// [`VARIANTS`] variants, each round a seeded permutation of the kinds.
pub fn small_stream(seed: u64) -> Stream {
    let variants: Vec<Vec<ExperimentSpec>> = (0..VARIANTS)
        .map(|v| {
            SMALL_KINDS
                .iter()
                .map(|kind| small_job(kind, v, seed))
                .collect()
        })
        .collect();
    Stream::from_rounds(seed, SMALL_KINDS.len(), &variants)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let a = small_stream(0);
        let b = small_stream(0);
        assert_eq!(a.json, b.json);
        assert_eq!(
            (0..60).map(|n| a.job(n)).collect::<Vec<_>>(),
            (0..60).map(|n| b.job(n)).collect::<Vec<_>>()
        );
        let c = small_stream(1);
        // fig5 is the one spec every seed shares.
        let shared = c.json.iter().filter(|j| a.json.contains(j)).count();
        assert_eq!(shared, 1);
    }

    #[test]
    fn every_round_runs_every_kind_once() {
        let s = small_stream(3);
        for round in 0..8 {
            let mut names: Vec<String> = (0..s.round_len())
                .map(|i| s.specs[s.job(round * s.round_len() + i)].name.clone())
                .collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), SMALL_KINDS.len());
        }
    }

    #[test]
    fn default_seed_reproduces_the_committed_spec_shapes() {
        let s = small_stream(0);
        let names: Vec<&str> = s.specs.iter().map(|x| x.name.as_str()).collect();
        for golden in [
            "quickstart_small",
            "fig12_small",
            "dynamic_mix_small",
            "fig5",
        ] {
            assert!(names.contains(&golden), "{golden} missing from {names:?}");
        }
        assert_eq!(fig12_64(0).specs[0], specs::fig12(1, &[64, 4]));
    }
}
