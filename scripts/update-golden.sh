#!/usr/bin/env bash
# Regenerate the pinned metrics-snapshot golden files that CI diffs exactly.
#
# Run this ONLY when a change intentionally alters the pinned scenario's
# metrics (new counters, renamed spans, changed accounting) — then commit the
# updated goldens alongside the change. The pinned scenario runs twice:
#
#   tests/golden/metrics_pinned.json       Modeled fidelity (tests/obs.rs
#                                          re-runs it in-process and must agree)
#   tests/golden/metrics_pinned_real.json  --real: real codecs and pools, so
#                                          the migration engine's batches run
#
# Both are deterministic, so each file is byte-identical on every host and at
# every --migration-workers setting.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --locked

pinned=(--windows 6 --accesses 50000 --migration-workers 2 --fault-rate 0.1)
./target/release/tierscape-cli run "${pinned[@]}" \
  --metrics-out tests/golden/metrics_pinned.json
./target/release/tierscape-cli run --real "${pinned[@]}" \
  --metrics-out tests/golden/metrics_pinned_real.json

echo "updated tests/golden/metrics_pinned.json and tests/golden/metrics_pinned_real.json"
