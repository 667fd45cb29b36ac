#!/usr/bin/env bash
# The "nothing moved" gate for refactors: every deterministic row the
# benches record must EQUAL its committed baseline — not stay under a
# ceiling or over a floor.
#
#   search_sensitivity  19 `evaluations` rows (seeding, caches, the six
#                       regimes × {quality, ratio})
#   scenarios           12 `ratio` rows (regime × {sz, szx})
#   store_throughput    store_tuning/ratio_warm_start (warm and cold counts)
#
# Evaluation counts are exact only when region races and chunk tasks run
# serially, so the benches are pinned to one CPU (which sizes the global
# pool to 1).  Timing rows in the same files are ignored here; their floors
# are perf_smoke_check.py's business.
#
#   scripts/nothing_moved.sh            exit 0 = all 32 rows equal
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

record="$(mktemp -d)"
trap 'rm -rf "$record"' EXIT
export FRAZ_BENCH_SMOKE=1 FRAZ_BENCH_RECORD_DIR="$record"

pin=()
if command -v taskset >/dev/null; then
    pin=(taskset -c 0)
else
    echo "nothing_moved: taskset not found; counts may vary with more than one CPU" >&2
fi
for bench in search_sensitivity scenarios store_throughput; do
    "${pin[@]}" cargo bench -q -p fraz-bench --bench "$bench" >/dev/null
done

python3 - "$record" "$root/baselines" <<'PY'
import json
import sys

DETERMINISTIC = ("evaluations", "cold_evaluations", "ratio")
recorded_dir, baseline_dir = sys.argv[1:3]


def rows(path):
    """(group, id) -> deterministic fields, last row wins (as the benches append)."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in filter(str.strip, fh):
            row = json.loads(line)
            fields = {k: row[k] for k in DETERMINISTIC if k in row}
            if fields:
                out[(row["group"], row["id"])] = fields
    return out


checked, moved = 0, []
for name in ("search_sensitivity", "scenarios", "store_throughput"):
    baseline = rows(f"{baseline_dir}/{name}.jsonl")
    recorded = rows(f"{recorded_dir}/{name}.jsonl")
    for key, want in sorted(baseline.items()):
        checked += 1
        got = recorded.get(key)
        if got != want:
            moved.append(f"  {key[0]}/{key[1]}: baseline {want}, recorded {got}")
    moved += [f"  {g}/{i}: recorded but not in the baseline" for g, i in sorted(set(recorded) - set(baseline))]

if moved:
    print(f"nothing_moved: {len(moved)} of {checked} deterministic rows moved:", file=sys.stderr)
    print("\n".join(moved), file=sys.stderr)
    sys.exit(1)
print(f"nothing_moved: all {checked} deterministic rows equal their baselines")
PY
