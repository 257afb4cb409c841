#!/usr/bin/env bash
# Array-partitioning smoke for CI: cut saxpy and a Livermore kernel
# across a 2-cell array with full verification (per-cell provenance
# against the single-cell reference plus one simulated array run).  Then
# run the full array measurement (warpbench -array) at width 2 and hold
# the checked-in acceptance bar: every row verified and at least one
# kernel at >= 1.5x single-cell throughput.
#
#   bash scripts/array_smoke.sh [BENCH_array_ci.json]
set -euo pipefail
cd "$(dirname "$0")/.."

array_json="${1:-BENCH_array_ci.json}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go run ./scripts/simcheck -emit-kernel k12-first-difference -o "$tmp/k12.w2"

for src in testdata/saxpy.w2 "$tmp/k12.w2"; do
  name="$(basename "$src")"
  go run ./cmd/w2c -cells 2 -partition -verify "$src" >"$tmp/$name.out"
  if ! grep -q "verified: partitioned array equivalent" "$tmp/$name.out"; then
    echo "array_smoke: $name did not verify" >&2
    exit 1
  fi
done

go run ./cmd/warpbench -array -cells 2 -arrayout "$array_json"

python3 - "$array_json" <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
s = rep["summary"]
if s["rows"] == 0:
    sys.exit("array_smoke: nothing partitioned at width 2")
if s["verified"] != s["rows"]:
    sys.exit(f"array_smoke: only {s['verified']} of {s['rows']} rows verified")
if s["best_speedup"] < 1.5:
    sys.exit(f"array_smoke: best speedup {s['best_speedup']:.2f}x below the 1.5x bar")
print(f"array_smoke: {s['rows']} rows verified, best {s['best_speedup']:.2f}x "
      f"({s['best_workload']} at {s['best_cells']} cells)")
EOF
