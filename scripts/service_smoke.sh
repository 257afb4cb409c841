#!/usr/bin/env bash
# service_smoke.sh: the one thing `go test ./internal/service` cannot see —
# the real softpiped binary: its flags, its listener, the -cache-dir tier
# across a restart, /metrics, and a SIGTERM drain that exits 0.  Driven by
# curl alone; everything else about the service is held by the tests.
set -euo pipefail

addr="127.0.0.1:8575"
work="$(mktemp -d)"
pid=""
trap '[ -z "$pid" ] || kill "$pid" 2>/dev/null || true; rm -rf "$work"' EXIT
go build -o "$work/softpiped" ./cmd/softpiped
python3 -c 'import json,sys; json.dump({"source": open(sys.argv[1]).read()}, sys.stdout)' \
  testdata/saxpy.w2 >"$work/req.json"

start() {
  "$work/softpiped" -addr "$addr" -cache-dir "$work/cache" -quiet &
  pid=$!
  for _ in $(seq 1 50); do
    curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && return
    sleep 0.1
  done
  curl -fsS "http://$addr/healthz" >/dev/null  # liveness gate
}
compile() { # $1 = cold|warm: assert "cached" accordingly, print object_sha256
  curl -fsS -H 'Content-Type: application/json' -d @"$work/req.json" "http://$addr/compile" |
    python3 -c 'import json,sys; r=json.load(sys.stdin); assert r["cached"] == (sys.argv[1] == "warm"), r; print(r["object_sha256"])' "$1"
}
stop() { kill -TERM "$pid"; wait "$pid"; pid=""; }  # a non-zero drain exit fails the script

start
sha="$(compile cold)"
[ "$(compile warm)" = "$sha" ]
stop
start  # same -cache-dir: the disk tier must answer
[ "$(compile warm)" = "$sha" ]
curl -fsS "http://$addr/metrics" | python3 -c \
  'import json,sys; m=json.load(sys.stdin); assert m["panics"]==0 and m["errors"]==0, m'
stop
echo "service smoke OK: softpiped compiled, cached, survived a restart and drained cleanly"
