#!/usr/bin/env bash
# A/A check: runs every workload twice over on the same build, the two
# sets interleaved run by run (A B A B ...), each pair of runs on another
# seed, and holds the benchmark to its own bounds.  It reads every metric
# an untraced run prints by name, the gated ones of BENCHMARK.json and
# the throughput and latency lines marked "(not gated)" alike, and gives
# for each, per workload:
#
#   spread A, spread B  distance between the first and third quartile of
#                       a set's values as a share of their median (what
#                       the driver accepts a benchmark on); the seeds
#                       differ inside a set, so drawn inputs and the
#                       host both enter;
#   paired              median over the seeds of |A-B| / mean(A,B): the
#                       two runs of a seed have the same inputs and run
#                       back to back, so this is the host's fast noise
#                       alone, without its drift over minutes;
#   B vs A              how much worse the second set's median is.
#
# Gated metrics: the exact ones (sim_cycles_total, code_words_total) must
# be identical between the two runs of a seed; every spread (setup_s
# excepted) and every B vs A must stay within the bound; a spread above a
# third of the bound is listed as WATCH.  fail_share must be 0.
#
# Metrics that are not gated get the verdict DEMOTE where a spread or B
# vs A exceeds a tenth (ISSUE 11's rule) and "steady" otherwise.  One
# metric has one bound for all workloads, so the summary at the end
# names as fit to gate only those that are steady on every workload.
#
#   bash benchmark/aa.sh [seeds=10] [workload ...]
#
# Exits non-zero on any FAIL.  Raw outputs land in .bench_build/aa/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
seeds="${1:-10}"
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
out=.bench_build/aa
mkdir -p "$out"
for w in "${workloads[@]}"; do
	for seed in $(seq 1 "$seeds"); do
		for set in A B; do
			bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$w.$set.$seed.txt"
		done
	done
done
python3 - "$out" "$seeds" "${workloads[@]}" <<'EOF'
import json, re, statistics, sys

out, seeds, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
exact = {"sim_cycles_total", "code_words_total"}
line = re.compile(r"^([A-Za-z0-9][A-Za-z0-9_.-]*)\s+(\S+)\s+(\S+)")


def read(path):
    """One run: its result line and every metric it printed by name."""
    lines = open(path).read().splitlines()
    vals, units = {}, {}
    for l in lines[:-1]:
        m = line.match(l)
        if m:
            try:
                vals[m.group(1)], units[m.group(1)] = float(m.group(2)), m.group(3)
            except ValueError:
                pass
    return json.loads(lines[-1]), vals, units


def spread(v):
    med = statistics.median(v)
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / med if med else float(any(v))


bad = False
unsteady = {}  # ungated metric -> workloads on which it is not steady
ungated = []
for w in workloads:
    runs = {s: [read(f"{out}/{w}.{s}.{seed}.txt") for seed in range(1, seeds + 1)] for s in "AB"}
    print(f"\n{w}")
    print(f"  {'metric':<18}{'median A':>13}{'median B':>13}{'spread A':>9}{'spread B':>9}{'paired':>8}{'B vs A':>8}{'bound':>6}  verdict")
    for s in "AB":
        for r, _, _ in runs[s]:
            if not r["correct"] or r["failed"]:
                print(f"  set {s}: a run failed {r['failed']} of {r['attempted']} operations")
                bad = True
    names = list(runs["A"][0][1])
    for name in names:
        vals = {s: [v[name] for _, v, _ in runs[s]] for s in "AB"}
        med = {s: statistics.median(vals[s]) for s in "AB"}
        sp = {s: spread(vals[s]) for s in "AB"}
        paired = statistics.median(abs(a - b) / ((a + b) / 2) if a + b else 0.0 for a, b in zip(vals["A"], vals["B"]))
        lower = spec[name]["better"] == "lower" if name in spec else not name.endswith("_per_s")
        worse = (1 if lower else -1) * (med["B"] - med["A"]) / med["A"] if med["A"] else float(med["B"] != 0)
        verdict = []
        if name in spec:
            bound = spec[name]["bound"]
            if name in exact and vals["A"] != vals["B"]:
                verdict.append("FAIL exact values differ between the runs of a seed")
            if name != "setup_s" and max(sp.values()) > bound:
                verdict.append("FAIL spread above bound")
            elif name != "setup_s" and max(sp.values()) > bound / 3:
                verdict.append("WATCH spread above a third of bound")
            if worse > bound:
                verdict.append("FAIL second median worse than first by more than bound")
        elif name == "fail_share":
            bound = 0
            if any(vals["A"] + vals["B"]):
                verdict.append("FAIL operations failed")
        else:
            bound = "-"
            if name not in ungated:
                ungated.append(name)
            if max(sp.values()) > 0.1 or abs(worse) > 0.1:
                verdict.append("DEMOTE " + ("the two runs of a seed disagree" if paired > 0.05 else "pairs agree, the set does not: host drift between pairs, or the seeds' inputs"))
                unsteady.setdefault(name, []).append(w)
            else:
                verdict.append("steady")
        bad = bad or any(v.startswith("FAIL") for v in verdict)
        print(f"  {name:<18}{med['A']:>13.6g}{med['B']:>13.6g}{sp['A']:>9.4f}{sp['B']:>9.4f}{paired:>8.4f}{worse:>+8.4f}{bound:>6}  {'; '.join(verdict) or 'ok'}")

print("\nnot gated, spread or set medians more than a tenth apart (stay demoted):")
for name in ungated:
    if name in unsteady:
        print(f"  {name:<18} on {', '.join(unsteady[name])}")
print("not gated, steady on every workload run (fit to gate):")
print("  " + (", ".join(n for n in ungated if n not in unsteady) or "none"))
sys.exit(1 if bad else 0)
EOF
