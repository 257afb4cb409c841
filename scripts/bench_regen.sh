#!/usr/bin/env bash
# Regenerate-and-diff for CI: the three checked-in harness reports must
# come out of the current tree byte for byte.  Every row in them is a
# schedule fact (II, cycles, MFLOPS, stall counts) — nothing host-timed —
# so any difference is a behaviour change in the compiler, the simulator
# or the harness's projections, and the fix is either the code or a
# deliberate re-record (copy the regenerated file over the checked-in
# one and say why in the PR).  A report that differs is followed by the
# rows that moved (scripts/rowdiff: "workload/machine: cycles a -> b,
# words c -> d", the worse ones first) and by rowdiff's closing
# "rows moved: N, worse: M", which is what the PR should paste.
#
#   bash scripts/bench_regen.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/warpbench" ./cmd/warpbench

status=0
for report in gap sweep array; do
  "$tmp/warpbench" "-$report" "-${report}out" "$tmp/$report.json" >/dev/null
  if cmp "$tmp/$report.json" "BENCH_$report.json"; then
    echo "bench_regen: BENCH_$report.json regenerates byte-identically"
  else
    echo "bench_regen: BENCH_$report.json differs from warpbench -$report -${report}out; rows that moved:" >&2
    go run ./scripts/rowdiff "BENCH_$report.json" "$tmp/$report.json" | tee "$tmp/$report.rows" >&2
    echo "bench_regen: BENCH_$report.json $(tail -n 1 "$tmp/$report.rows")" >&2
    status=1
  fi
done
exit $status
