#!/usr/bin/env bash
# Engine differential smoke for CI: w2c must print byte-identical
# results under -engine interp and -engine compiled on saxpy and a
# Livermore kernel.  (How fast each engine runs is the repo benchmark's
# to say: benchmark/run.sh --workload sim-steady.)
#
#   bash scripts/sim_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go run ./scripts/simcheck -emit-kernel k1-hydro -o "$tmp/k1-hydro.w2"

for src in testdata/saxpy.w2 "$tmp/k1-hydro.w2"; do
  go run ./cmd/w2c -run -engine interp "$src" >"$tmp/interp.txt"
  go run ./cmd/w2c -run -engine compiled "$src" >"$tmp/compiled.txt"
  if ! diff -u "$tmp/interp.txt" "$tmp/compiled.txt"; then
    echo "sim_smoke: engines diverge on $src" >&2
    exit 1
  fi
  echo "sim_smoke: engines agree on $src"
done
