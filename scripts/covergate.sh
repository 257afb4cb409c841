#!/usr/bin/env bash
# covergate.sh: run the full test suite with a coverage profile and fail
# if any gated package falls below the floor.
#
#   scripts/covergate.sh [profile-out]
#
# Gated packages (75% statement coverage each): the front end (lang), the
# dependence graph, the scheduler, the pipeliner (II search driver, MVE,
# copy budget), hierarchical reduction, the code generator, the array
# partitioner and the independent object-code verifier — the layers
# whose regressions silently corrupt emitted code; the simulator,
# the single cell semantics the fast path and every array run on; the
# service; and the cache, which owns the accounting invariant (charges
# within MaxBytes, each fixed for its entry's residency) the service's hit
# path rests on.
# The simulator's fast path is differential-tested from
# internal/sim/compiled, so its figure is the union over both test
# packages (a second, small `go test -coverpkg` run).
set -euo pipefail

profile="${1:-coverage.out}"
floor=75.0
gated=(
  softpipe/internal/lang
  softpipe/internal/depgraph
  softpipe/internal/schedule
  softpipe/internal/pipeline
  softpipe/internal/hier
  softpipe/internal/codegen
  softpipe/internal/partition
  softpipe/internal/verify
  softpipe/internal/service
  softpipe/internal/cache
)

summary="$(mktemp)"
trap 'rm -f "$summary"' EXIT

go test -coverprofile="$profile" -covermode=atomic ./... | tee "$summary"

fail=0
gate() { # pkg pct
  if [ -z "$2" ]; then
    echo "covergate: no coverage line for $1" >&2
    fail=1
  elif awk -v p="$2" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
    echo "covergate: $1 at $2% is below the ${floor}% floor" >&2
    fail=1
  else
    echo "covergate: $1 at $2% (floor ${floor}%)"
  fi
}
for pkg in "${gated[@]}"; do
  gate "$pkg" "$(awk -v pkg="$pkg" '$1 == "ok" && $2 == pkg {
    for (i = 3; i <= NF; i++) if ($i ~ /^[0-9.]+%$/) { sub(/%$/, "", $i); print $i; exit }
  }' "$summary")"
done
go test -covermode=atomic -coverpkg=softpipe/internal/sim -coverprofile="$summary" ./internal/sim/... >/dev/null
gate softpipe/internal/sim "$(go tool cover -func="$summary" | awk '$1 == "total:" { sub(/%$/, "", $3); print $3 }')"
exit "$fail"
