#!/usr/bin/env bash
# Paired parent/change runs of one benchmark workload: the procedure a
# host-time claim is accepted by (benchmark/README.md, "A/A": the host
# drifts by 15% over minutes, so only runs made back to back compare).
#
#   bash scripts/pairs.sh <parent-ref> <workload> [pairs=10]
#
# The parent is the committed tree of <parent-ref>, unpacked with `git
# archive` into a temporary directory (under $TMPDIR) that is removed on
# exit; the change is this checkout as it stands.  Each pair runs
# `bash benchmark/run.sh --workload <workload> --seed <s> --seconds
# <run_seconds of BENCHMARK.json> --trace 0` once on each side, on one
# seed, back to back; which side goes first alternates from pair to pair,
# and every pair gets a seed of its own (drawn from the clock and printed,
# so no pair repeats a seed used while the change was written).
#
# For every metric an untraced run prints it gives both medians, both
# quartile pairs, the change's median against the parent's, and how many
# pairs the change won, tied and lost.  A claimed gain needs wins on at
# least nine tenths of the pairs (ties counting for neither side) and
# medians further apart than the parent's own quartiles; the last column
# says whether both hold.  Exits non-zero if a run failed an operation.
set -euo pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-ref> <workload> [pairs=10]" >&2
	exit 2
fi
parent_ref="$1"
workload="$2"
pairs="${3:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/out"
git archive "$parent_ref" | tar -x -C "$tmp/parent"
echo "parent: $(git rev-parse --short "$parent_ref")   change: $(git describe --always --dirty)   workload: $workload   $pairs pairs of $seconds s"
first_seed=$(($(date +%s) % 1000000))
for i in $(seq 0 $((pairs - 1))); do
	seed=$((first_seed + i))
	order=(parent change)
	if [ $((i % 2)) -eq 1 ]; then
		order=(change parent)
	fi
	for side in "${order[@]}"; do
		dir="$root"
		if [ "$side" = parent ]; then
			dir="$tmp/parent"
		fi
		bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >"$tmp/out/$side.$i.txt"
	done
	echo "pair $((i + 1))/$pairs: seed $seed, ${order[0]} first"
done
python3 - "$tmp/out" "$pairs" <<'EOF'
import json, re, statistics, sys

out, pairs = sys.argv[1], int(sys.argv[2])
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
line = re.compile(r"^([A-Za-z0-9][A-Za-z0-9_.-]*)\s+(\S+)\s+(\S+)")


def read(path):
    """One run: its result line and every metric it printed by name."""
    lines = open(path).read().splitlines()
    vals = {}
    for l in lines[:-1]:
        m = line.match(l)
        if m:
            try:
                vals[m.group(1)] = float(m.group(2))
            except ValueError:
                pass
    return json.loads(lines[-1]), vals


runs = {s: [read(f"{out}/{s}.{i}.txt") for i in range(pairs)] for s in ("parent", "change")}
bad = False
for s, rs in runs.items():
    for i, (r, _) in enumerate(rs):
        if not r["correct"] or r["failed"]:
            print(f"{s}, pair {i + 1}: failed {r['failed']} of {r['attempted']} operations")
            bad = True

print(f"\n{'metric':<18}{'parent med':>13}{'q1':>13}{'q3':>13}{'change med':>13}{'q1':>13}{'q3':>13}{'change/parent':>14}{'W/T/L':>9}  gain")
for name in runs["parent"][0][1]:
    v = {s: [vals[name] for _, vals in rs] for s, rs in runs.items()}
    med = {s: statistics.median(v[s]) for s in v}
    q = {s: statistics.quantiles(v[s], n=4) if len(v[s]) > 1 else [v[s][0]] * 3 for s in v}
    lower = spec[name]["better"] == "lower" if name in spec else not name.endswith("_per_s")
    sign = -1 if lower else 1
    wins = sum(sign * (c - p) > 0 for p, c in zip(v["parent"], v["change"]))
    ties = sum(c == p for p, c in zip(v["parent"], v["change"]))
    losses = pairs - wins - ties
    ratio = med["change"] / med["parent"] if med["parent"] else float("nan")
    iqr = q["parent"][2] - q["parent"][0]
    gain = wins >= 0.9 * pairs and sign * (med["change"] - med["parent"]) > iqr
    print(f"{name:<18}{med['parent']:>13.7g}{q['parent'][0]:>13.7g}{q['parent'][2]:>13.7g}"
          f"{med['change']:>13.7g}{q['change'][0]:>13.7g}{q['change'][2]:>13.7g}{ratio:>14.3f}"
          f"{f'{wins}/{ties}/{losses}':>9}  {'yes' if gain else 'no'}")
sys.exit(1 if bad else 0)
EOF
