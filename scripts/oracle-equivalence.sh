#!/usr/bin/env bash
# Differential-oracle equivalence: every alternate execution path must
# reproduce the published artefacts byte for byte.
#
#   * decode cache on/off (MABFUZZ_DECODE_CACHE): pre-decoded execution
#     against the interpreter oracle;
#   * snapshot reset on/off (MABFUZZ_SNAPSHOT_RESET): dirty-state restore
#     against the full-reinit oracle;
#   * the edge-coverage signal: its golden report, a shard-count invariant
#     event stream, the untouched point-signal golden and the static
#     analysis golden.
#
# Run from the repository root:
#
#   scripts/oracle-equivalence.sh
#
# Outputs land in target/oracle-equivalence/ (kept for inspection when a
# comparison fails).
set -euo pipefail

OUT=target/oracle-equivalence
mkdir -p "$OUT"

echo "== in-process differential suites"
cargo test --release --test decode_cache_equivalence
cargo test --release --test snapshot_reset_equivalence
cargo test --release --test cfg_consistency --test golden_edge --test golden_analyze

cargo build --release
EXP=./target/release/experiments
SMOKE="all --tests 120 --cap 250 --repeats 1 --seed 7 --json"
GOLDEN=tests/golden/experiments_smoke.json

echo "== decode cache vs interpreter"
MABFUZZ_DECODE_CACHE=on $EXP $SMOKE > "$OUT/smoke-cached.json"
MABFUZZ_DECODE_CACHE=off $EXP $SMOKE > "$OUT/smoke-interpreted.json"
cmp "$OUT/smoke-cached.json" "$GOLDEN"
cmp "$OUT/smoke-interpreted.json" "$GOLDEN"
echo "pre-decoded execution and the interpreter oracle are byte-identical"

echo "== snapshot reset vs full reinit"
MABFUZZ_SNAPSHOT_RESET=on $EXP $SMOKE > "$OUT/smoke-restored.json"
MABFUZZ_SNAPSHOT_RESET=off $EXP $SMOKE > "$OUT/smoke-reinitialised.json"
cmp "$OUT/smoke-restored.json" "$GOLDEN"
cmp "$OUT/smoke-reinitialised.json" "$GOLDEN"
echo "snapshot/dirty restore and the full-reinit oracle are byte-identical"

echo "== edge-coverage signal"
RUN="run --spec tests/golden/campaign_spec.json --coverage-signal edge"
$EXP $RUN --json > "$OUT/edge-smoke.json"
cmp "$OUT/edge-smoke.json" tests/golden/experiments_edge_smoke.json
$EXP $RUN --events "$OUT/edge-events-shards1.jsonl" --shards 1 --json > /dev/null
$EXP $RUN --events "$OUT/edge-events-shards4.jsonl" --shards 4 --json > /dev/null
cmp "$OUT/edge-events-shards1.jsonl" "$OUT/edge-events-shards4.jsonl"
echo "edge-signal report is golden-pinned; its event stream is shard-count invariant"

$EXP run --spec tests/golden/campaign_spec.json --coverage-signal point --json \
  > "$OUT/point-smoke.json"
cmp "$OUT/point-smoke.json" tests/golden/spec_campaign_smoke.json
echo "the point signal (default and explicit) leaves the published golden untouched"

$EXP analyze --spec tests/golden/campaign_spec.json > "$OUT/analyze-smoke.json"
cmp "$OUT/analyze-smoke.json" tests/golden/experiments_analyze_smoke.json
echo "the static-analysis report matches tests/golden/experiments_analyze_smoke.json"
