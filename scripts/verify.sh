#!/usr/bin/env bash
# Offline tier-1 gate: formatting, the full workspace test suite, a
# warnings-as-errors clippy pass (which also enforces the determinism rules
# in clippy.toml) and three source rules clippy cannot express (DESIGN §5g).
# Everything runs against the vendored in-repo dependency shims
# (crates/shims/), so no network access is needed or attempted; --locked
# guards against silent lockfile drift.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt (check) =="
cargo fmt --all --check

echo "== cargo test (offline) =="
cargo test --workspace --offline --locked

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

# Each rule fails when grep finds a match, and prints the offending lines.
rule() {
  local name=$1
  shift
  if grep -rnE --include='*.rs' --exclude-dir=target "$@"; then
    echo "verify: source rule '$name' violated (see DESIGN §5g)" >&2
    exit 1
  fi
}

echo "== source rules (grep) =="
# no-bare-unwrap: clippy::unwrap_used covers `.unwrap()`; a message-less
# expect names no invariant either.
rule no-empty-expect '\.expect\(""\)' .
# float-ordering: order solver/policy floats with total_cmp, never
# partial_cmp, and never compare them to a float literal with ==/!=
# (clippy::float_cmp skips comparisons against zero).
rule no-partial-cmp 'partial_cmp' crates/solver/src crates/core/src
rule no-float-literal-eq \
  '[!=]=\s*-?[0-9][0-9_]*\.[0-9]|(^|[^0-9A-Za-z_.])[0-9][0-9_]*\.[0-9][0-9_]*([eE][-+]?[0-9]+)?(_?f(32|64))?\s*[!=]=' \
  crates/solver/src crates/core/src

echo "verify: OK"
