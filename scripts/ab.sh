#!/usr/bin/env bash
# Same-machine A/B of the repository benchmark: a base ref against the
# working tree.
#
# Usage: scripts/ab.sh <base-ref> <workload> [pairs=10] [seconds=40]
#
# Checks <base-ref> out into a temporary git worktree (removed on exit).
# Then, for seeds 0..pairs-1, runs
#
#     python3 perfbench/run.py --workload W --seed i --seconds S --trace 0
#
# once in the base checkout and once in this one, alternating which side
# goes first. Each side builds into its own CARGO_TARGET_DIR: the base into
# a temporary directory, the head into this checkout's .bench_build (the
# run.py default). Every run's final JSON line is kept in base.jsonl and
# head.jsonl, one line per seed, under $AB_OUT (default: a new temporary
# directory, printed at the end), next to each run's full stdout (which
# carries sim.digest) and stderr log.
#
# The summary gives, for each end-to-end metric in BENCHMARK.json, each
# side's median and quartiles, the head/base ratio of medians, and how many
# pairs head won in the metric's "better" direction; then each side's
# failed/attempted job counts.

set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
    echo "usage: $0 <base-ref> <workload> [pairs=10] [seconds=40]" >&2
    exit 2
fi
base_ref="$1"
workload="$2"
pairs="${3:-10}"
seconds="${4:-40}"

head_dir="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d -t ab-work.XXXXXX)"
base_dir="$work/base"
out_dir="${AB_OUT:-$(mktemp -d -t ab-results.XXXXXX)}"
mkdir -p "$out_dir"

# The worktree (and the base build inside $work) goes away on any exit.
trap 'git -C "$head_dir" worktree remove --force "$base_dir" > /dev/null 2>&1 || true
git -C "$head_dir" worktree prune > /dev/null 2>&1 || true
rm -rf "$work"' EXIT

git -C "$head_dir" worktree add --quiet --detach "$base_dir" "$base_ref"
: > "$out_dir/base.jsonl"
: > "$out_dir/head.jsonl"

# run_side <side> <seed>: one benchmark run; appends its final JSON line
# (or null, when the run produced none) to <side>.jsonl.
run_side() {
    local side="$1" seed="$2" dir target line
    if [ "$side" = base ]; then
        dir="$base_dir"
        target="$work/target-base"
    else
        dir="$head_dir"
        target="$head_dir/.bench_build"
    fi
    echo "== seed $seed: $side" >&2
    (cd "$dir" && CARGO_TARGET_DIR="$target" python3 perfbench/run.py \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        > "$out_dir/$side-$seed.out" 2> "$out_dir/$side-$seed.log") || true
    line="$(tail -n 1 "$out_dir/$side-$seed.out")"
    case "$line" in
        "{"*) printf '%s\n' "$line" >> "$out_dir/$side.jsonl" ;;
        *)
            echo "   no result; see $out_dir/$side-$seed.log" >&2
            echo null >> "$out_dir/$side.jsonl"
            ;;
    esac
}

for ((seed = 0; seed < pairs; seed++)); do
    if ((seed % 2 == 0)); then
        run_side base "$seed"
        run_side head "$seed"
    else
        run_side head "$seed"
        run_side base "$seed"
    fi
done

python3 - "$head_dir/BENCHMARK.json" "$out_dir" "$base_ref" "$workload" << 'PY'
import json
import statistics
import sys

bench_path, out_dir, base_ref, workload = sys.argv[1:5]
with open(bench_path) as f:
    metrics = json.load(f)["end_to_end"]


def load(side):
    with open(f"{out_dir}/{side}.jsonl") as f:
        return [json.loads(line) for line in f if line.strip()]


base, head = load("base"), load("head")


def value(run, name):
    """A metric's value in one run's result line (None when missing)."""
    entry = run["metrics"].get(name) if run else None
    return entry.get("value") if isinstance(entry, dict) else entry


def quartiles(values):
    if len(values) < 2:
        return (values[0],) * 3 if values else (float("nan"),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


print(f"A/B {workload}: head (working tree) vs base {base_ref}, {len(base)} pair(s)")
print(f"{'metric':<20} {'base q1/median/q3':>30} {'head q1/median/q3':>30} "
      f"{'head/base':>9} {'head won':>9}")
for metric in metrics:
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(value(b, name), value(h, name)) for b, h in zip(base, head)]
    pairs = [(b, h) for b, h in pairs if b is not None and h is not None]
    if not pairs:
        print(f"{name:<20} no paired results")
        continue
    bq, hq = quartiles([b for b, _ in pairs]), quartiles([h for _, h in pairs])
    ratio = hq[1] / bq[1] if bq[1] else float("nan")
    won = sum((h < b) if lower else (h > b) for b, h in pairs)
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:<20} {fmt(bq):>30} {fmt(hq):>30} {ratio:>9.3f} "
          f"{won:>5}/{len(pairs):<3} ({metric['better']} is better)")
for side, runs in (("base", base), ("head", head)):
    done = [r for r in runs if r]
    failed = sum(r["failed"] for r in done)
    attempted = sum(r["attempted"] for r in done)
    print(f"{side}: {failed}/{attempted} jobs failed; "
          f"{len(runs) - len(done)} run(s) without a result")
PY
echo "results: $out_dir" >&2
