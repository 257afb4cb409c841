#!/usr/bin/env bash
# service_smoke.sh: the one thing `go test ./internal/service` cannot see —
# the real softpiped binary: its flags, its listener, the same object from
# a second process after a restart, GET /artifact/{key} serving the bytes
# object_sha256 names in both processes, /run of the compiled key and of
# a two-cell partitioned array (each twice, the same cycles both times),
# /metrics, and a SIGTERM drain that exits 0.  Driven by curl alone;
# everything else about the service is held by the tests.
set -euo pipefail

addr="127.0.0.1:8575"
work="$(mktemp -d)"
pid=""
trap '[ -z "$pid" ] || kill "$pid" 2>/dev/null || true; rm -rf "$work"' EXIT
go build -o "$work/softpiped" ./cmd/softpiped
python3 -c 'import json,sys; json.dump({"source": open(sys.argv[1]).read()}, sys.stdout)' \
  testdata/saxpy.w2 >"$work/req.json"
python3 -c 'import json,sys; json.dump({"source": open(sys.argv[1]).read(), "partition": True, "cells": 2}, sys.stdout)' \
  testdata/saxpy.w2 >"$work/part.json"

start() {
  "$work/softpiped" -addr "$addr" -quiet &
  pid=$!
  for _ in $(seq 1 50); do
    curl -fsS "http://$addr/healthz" >/dev/null 2>&1 && return
    sleep 0.1
  done
  curl -fsS "http://$addr/healthz" >/dev/null  # liveness gate
}
compile() { # $1 = cold|warm: assert "cached" accordingly and that GET /artifact/{key} hashes to object_sha256; print both
  local reply
  reply="$(curl -fsS -H 'Content-Type: application/json' -d @"$work/req.json" "http://$addr/compile" |
    python3 -c 'import json,sys; r=json.load(sys.stdin); assert r["cached"] == (sys.argv[1] == "warm"), r; print(r["key"], r["object_sha256"])' "$1")" || exit 1
  set -- $reply  # key, object_sha256
  [ "$(curl -fsS "http://$addr/artifact/$1" | sha256sum | cut -d' ' -f1)" = "$2" ] ||
    { echo "GET /artifact/$1 does not hash to object_sha256 $2" >&2; exit 1; }
  echo "$1 $2"
}
run() { # $1 = curl -d argument: POST /run twice, assert both replies report the same cycles
  local c1 c2
  c1="$(curl -fsS -H 'Content-Type: application/json' -d "$1" "http://$addr/run" |
    python3 -c 'import json,sys; r=json.load(sys.stdin); assert r["cycles"] > 0, r; print(r["cycles"])')"
  c2="$(curl -fsS -H 'Content-Type: application/json' -d "$1" "http://$addr/run" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["cycles"])')"
  [ "$c1" = "$c2" ] || { echo "POST /run $1: $c1 cycles, then $c2" >&2; exit 1; }
}
stop() { kill -TERM "$pid"; wait "$pid"; pid=""; }  # a non-zero drain exit fails the script

start
read -r key sha <<<"$(compile cold)"
[ "$(compile warm)" = "$key $sha" ]
run "{\"key\": \"$key\"}"
run @"$work/part.json"
stop
start  # a new process compiles again and must emit the same object
[ "$(compile cold)" = "$key $sha" ]
curl -fsS "http://$addr/metrics" | python3 -c \
  'import json,sys; m=json.load(sys.stdin); assert m["panics"]==0 and m["errors"]==0, m'
stop
echo "service smoke OK: softpiped compiled, cached, served the object its digest names, ran it and a partitioned array twice each, recompiled the same object after a restart and drained cleanly"
