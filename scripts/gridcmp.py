"""Compare two `go test -run TestCorpusVerify -grid -v` outputs object by
object; see scripts/gridcmp.sh, which produces them.  Beside the totals and
the worst rows it prints, for every program with an object that got slower
or larger, how many did and by how much ("k5: 79 objects +1 cycle").

    python3 scripts/gridcmp.py parent.txt change.txt [rows=10]
"""
import re
import sys

OBJECT = re.compile(r"^\s+\S+\.go:\d+: (.+? \| .+? \| \S+?): (?:(\d+) cycles, (\d+) words|refused: (.*))$")


def read(path):
    """object name -> (cycles, words), or the refusal text."""
    objs = {}
    for line in open(path):
        m = OBJECT.match(line.rstrip("\n"))
        if m:
            name, cycles, words, refusal = m.groups()
            objs[name] = (int(cycles), int(words)) if cycles else refusal
    return objs


def growth(deltas, unit):
    """'79 objects +1 cycle' or '3 objects +1..+4 words'; '' for none."""
    if not deltas:
        return ""
    lo, hi = min(deltas), max(deltas)
    span = f"+{lo}" if lo == hi else f"+{lo}..+{hi}"
    return f"{len(deltas)} object{'s' * (len(deltas) > 1)} {span} {unit}{'s' * (hi > 1)}"


def by_program(parent, change, moved):
    """For every program with an object that got slower or larger: how many
    objects did, and by how much."""
    worse = {}
    for k in moved:
        slower, larger = worse.setdefault(k.split(" | ")[0], ([], []))
        if change[k][0] > parent[k][0]:
            slower.append(change[k][0] - parent[k][0])
        if change[k][1] > parent[k][1]:
            larger.append(change[k][1] - parent[k][1])
    rows = sorted(((p, s, l) for p, (s, l) in worse.items() if s or l), key=lambda r: (-len(r[1]), -len(r[2]), r[0]))
    if rows:
        print("\nby program, objects slower and objects larger:")
    for prog, slower, larger in rows:
        parts = [growth(slower, "cycle"), growth(larger, "word")]
        print(f"  {prog}: {'; '.join(p for p in parts if p)}")


def main():
    parent, change = read(sys.argv[1]), read(sys.argv[2])
    rows = int(sys.argv[3]) if len(sys.argv) > 3 else 10
    common = [k for k in parent if k in change]
    for side, objs, other in (("parent", parent, change), ("change", change, parent)):
        only = sorted({k.split(" | ")[0] for k in objs if k not in other})
        if only:
            print(f"only the {side} has {sum(k not in other for k in objs)} objects, left out: {' '.join(only)}")

    refused = {side: {k for k in common if isinstance(objs[k], str)} for side, objs in (("parent", parent), ("change", change))}
    same = refused["parent"] == refused["change"]
    both = [k for k in common if k not in refused["parent"] and k not in refused["change"]]
    moved = [k for k in both if parent[k] != change[k]]
    is_moved = set(moved)
    worse_cycles = [k for k in moved if change[k][0] > parent[k][0]]
    worse_words = [k for k in moved if change[k][1] > parent[k][1]]
    print(f"objects: {len(both)}, moved: {len(moved)}, worse cycles: {len(worse_cycles)}, worse words: {len(worse_words)}")
    print(f"refusals: parent {len(refused['parent'])}, change {len(refused['change'])}, {'the same objects' if same else 'NOT the same objects'}")
    for k in sorted(refused["parent"] ^ refused["change"]):
        print(f"  {k}: parent {parent[k]!r:.80}, change {change[k]!r:.80}")

    print(f"\n{'option point':<12}{'objects':>9}{'moved':>8}{'cycles parent':>16}{'change':>14}{'':>8}{'words parent':>15}{'change':>12}")
    points = list(dict.fromkeys(k.rsplit(" | ", 1)[1] for k in both)) + ["all"]
    for pt in points:
        ks = [k for k in both if pt == "all" or k.endswith(" | " + pt)]
        pc, cc = sum(parent[k][0] for k in ks), sum(change[k][0] for k in ks)
        pw, cw = sum(parent[k][1] for k in ks), sum(change[k][1] for k in ks)
        n = sum(k in is_moved for k in ks)
        print(f"{pt:<12}{len(ks):>9}{n:>8}{pc:>16}{cc:>14}{100 * (cc - pc) / pc:>+7.1f}%{pw:>15}{cw:>12}{100 * (cw - pw) / pw:>+7.1f}%")

    def show(title, ks):
        if ks:
            print(f"\n{title}")
        for k in ks:
            (pc, pw), (cc, cw) = parent[k], change[k]
            print(f"  {k}: cycles {pc} -> {cc}, words {pw} -> {cw}")

    by_program(parent, change, moved)
    show("more cycles:", sorted(worse_cycles, key=lambda k: parent[k][0] - change[k][0]))
    grown = sorted(worse_words, key=lambda k: parent[k][1] - change[k][1])
    shown = grown if rows == 0 else grown[:rows]
    show(f"more words ({len(shown)} of {len(grown)}, largest growth first):", shown)
    sys.exit(0 if same and not worse_cycles else 1)


main()
