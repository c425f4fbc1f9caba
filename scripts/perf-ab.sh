#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark (perfbench) between a parent
# revision and the current working tree.
#
#   scripts/perf-ab.sh <parent-rev> <workload> <pairs> <seconds> [first-seed]
#
# The parent side is exported with `git archive` into a directory outside
# the repository and built there; the change side is built from the working
# tree as it is (uncommitted edits included). Pair i runs seed
# first-seed + i - 1 (first-seed defaults to 1) on both sides, untraced; odd
# pairs run the parent first and even pairs the change first, so slow drift
# of the host does not favour one side.
#
# Every run must report `correct: true` and `failed: 0`, or the script
# stops. At the end it prints, for each end-to-end metric, the median and
# IQR of each side, how many pairs the change won (direction from
# BENCHMARK.json; a tie is not a win) and whether the two sides agreed
# exactly on every seed. The last stdout line is the same summary as one
# JSON document.
#
# Builds and raw run results go to $PERF_AB_WORK (default: a fresh
# directory from mktemp). Pointing it at the same directory for several
# invocations reuses the builds.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <seconds> [first-seed]" >&2
    exit 2
fi
PARENT_REV=$1
WORKLOAD=$2
PAIRS=$3
SECONDS_PER_RUN=$4
FIRST_SEED=${5:-1}

ROOT=$(git rev-parse --show-toplevel)
PARENT_SHA=$(git -C "$ROOT" rev-parse --verify "$PARENT_REV^{commit}")
WORK=${PERF_AB_WORK:-$(mktemp -d "${TMPDIR:-/tmp}/perf-ab.XXXXXX")}
mkdir -p "$WORK"
case "$(cd "$WORK" && pwd)/" in
    "$ROOT"/*) echo "PERF_AB_WORK must lie outside the repository" >&2; exit 2 ;;
esac

build() { # <source-dir> <target-dir> <binary-out>
    cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml" --target-dir "$2"
    cp "$2/release/perfbench" "$3"
}

PARENT_SRC=$WORK/parent-$PARENT_SHA
if [ ! -d "$PARENT_SRC" ]; then
    mkdir -p "$PARENT_SRC.partial"
    git -C "$ROOT" archive "$PARENT_SHA" | tar -x -C "$PARENT_SRC.partial"
    mv "$PARENT_SRC.partial" "$PARENT_SRC"
fi
echo "building perfbench at parent ${PARENT_SHA:0:12}" >&2
build "$PARENT_SRC" "$WORK/target-parent" "$WORK/perfbench-parent"
echo "building perfbench from the working tree" >&2
build "$ROOT" "$WORK/target-change" "$WORK/perfbench-change"

RUNS=$WORK/runs-$WORKLOAD-s$SECONDS_PER_RUN
mkdir -p "$RUNS"
run() { # <side> <seed>
    local out=$RUNS/$1-$2.json
    "$WORK/perfbench-$1" --workload "$WORKLOAD" --seed "$2" \
        --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -n 1 > "$out"
    if ! jq -e '.correct == true and .failed == 0' "$out" > /dev/null; then
        echo "$1 seed $2: run failed or was incorrect: $(cat "$out")" >&2
        exit 1
    fi
    echo "  $1 seed $2: $(jq -c '[.metrics | to_entries[] | "\(.key)=\(.value.value)"]' "$out")" >&2
}

for ((pair = 1; pair <= PAIRS; pair++)); do
    seed=$((FIRST_SEED + pair - 1))
    echo "pair $pair/$PAIRS (seed $seed)" >&2
    if ((pair % 2 == 1)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

python3 - "$ROOT/BENCHMARK.json" "$RUNS" "$WORKLOAD" "$PARENT_SHA" "$SECONDS_PER_RUN" \
    "$FIRST_SEED" "$PAIRS" <<'PY'
import json, os, statistics, sys

benchmark, runs, workload, parent, seconds, first_seed, pairs = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(benchmark))["end_to_end"]}
seeds = range(int(first_seed), int(first_seed) + int(pairs))

def load(side, seed):
    with open(os.path.join(runs, f"{side}-{seed}.json")) as f:
        return {k: v["value"] for k, v in json.load(f)["metrics"].items()}

parent_runs = [load("parent", s) for s in seeds]
change_runs = [load("change", s) for s in seeds]

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

metrics = {}
print(f"{'metric':<26} {'parent median':>14} {'IQR':>10} {'change median':>14} "
      f"{'IQR':>10} {'won':>6}  identical", file=sys.stderr)
for name in better:
    if name not in parent_runs[0]:
        continue
    p = [r[name] for r in parent_runs]
    c = [r[name] for r in change_runs]
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    won = sum((b > a) if better[name] == "higher" else (b < a) for a, b in zip(p, c))
    identical = p == c
    metrics[name] = {
        "better": better[name],
        "parent_median": pmed, "parent_iqr": pq3 - pq1,
        "change_median": cmed, "change_iqr": cq3 - cq1,
        "pairs_won_by_change": won, "identical_per_seed": identical,
    }
    print(f"{name:<26} {pmed:>14.4g} {pq3 - pq1:>10.3g} {cmed:>14.4g} {cq3 - cq1:>10.3g} "
          f"{won:>3}/{len(p):<2}  {'yes' if identical else 'no'}", file=sys.stderr)

print(json.dumps({
    "workload": workload, "parent": parent, "seconds": float(seconds),
    "seeds": list(seeds), "pairs": len(p), "nproc": os.cpu_count(),
    "metrics": metrics,
}))
PY
