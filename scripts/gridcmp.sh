#!/usr/bin/env bash
# Object-by-object comparison of a parent commit and this checkout over the
# whole digest grid (programs x machines x option points, every object
# through Object.Verify): the procedure a change that is meant to move
# emitted code shows "no object got worse" by.
#
#   bash scripts/gridcmp.sh <parent-ref> [rows=10]
#
# The parent is the committed tree of <parent-ref>, unpacked with `git
# archive` into a temporary directory (under $TMPDIR) that is removed on
# exit; the change is this checkout as it stands.  A parent from before
# TestCorpusVerify had -grid gets this checkout's corpus_digest_test.go.
# Both sides run `go test -run 'TestCorpusVerify$' -grid -v .` (about four
# minutes each), one line an object: "prog | machine | option: N cycles, M
# words" or "... refused: why".  Objects only one side has (a program one
# side's test file lacks) are counted and left out.
#
# Prints "objects: N, moved: M, worse cycles: C, worse words: W", the
# refusals of each side and whether they are the same objects, totals by
# option point, for every program with an object that got slower or
# larger how many did and by how much, and the worst rows: every object
# that takes more cycles, then the <rows> largest growths in words with
# their cycles (rows=0: all of them).  Exits non-zero if either side
# fails, the refusals differ or an object takes more cycles.
set -euo pipefail
if [ $# -lt 1 ]; then
	echo "usage: $0 <parent-ref> [rows=10]" >&2
	exit 2
fi
parent_ref="$1"
rows="${2:-10}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent_ref" | tar -x -C "$tmp/parent"
if ! grep -q '"grid"' "$tmp/parent/corpus_digest_test.go" 2>/dev/null; then
	cp corpus_digest_test.go "$tmp/parent/"
	echo "parent has no -grid: using this checkout's corpus_digest_test.go"
fi
echo "parent: $(git rev-parse --short "$parent_ref")   change: $(git describe --always --dirty)"
for side in parent change; do
	dir="$root"
	if [ "$side" = parent ]; then
		dir="$tmp/parent"
	fi
	if ! (cd "$dir" && go test -run 'TestCorpusVerify$' -grid -v -timeout 30m . >"$tmp/$side.txt" 2>&1); then
		echo "$side: TestCorpusVerify -grid failed:" >&2
		grep -v ' cycles, \| refused: ' "$tmp/$side.txt" | tail -n 20 >&2
		exit 1
	fi
	echo "$side: $(grep -c ' | ' "$tmp/$side.txt") objects"
done
python3 scripts/gridcmp.py "$tmp/parent.txt" "$tmp/change.txt" "$rows"
