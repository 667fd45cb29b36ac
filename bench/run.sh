#!/usr/bin/env bash
# Build fraz-e2e from source and run it.  See README.md.
#
#   bench/run.sh [--seed N] [--reps N] [--seconds S] [--quick]
#       every workload, each in its own process, untraced and traced;
#       prints one JSON document; exits non-zero if any answer is wrong
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line is its result (the form
#       BENCHMARK.json's driver calls)
#   bench/run.sh compare A.json B.json
#       two full reports, one row per (end-to-end metric, workload)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

start_ns=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
build_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))

# A relative CARGO_TARGET_DIR is relative to the caller's directory, which
# is also where the binary runs from.
export FRAZ_E2E_BUILD_S="$(printf '%d.%03d' $((build_ms / 1000)) $((build_ms % 1000)))"
export FRAZ_E2E_OUT="$here/out"
exec "${CARGO_TARGET_DIR:-$here/target}/release/fraz-e2e" "$@"
