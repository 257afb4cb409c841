// Command rowdiff prints which rows of a harness report moved between
// two versions of it (BENCH_gap.json, BENCH_sweep.json, BENCH_array.json
// or any JSON of the same habit), one line per row:
//
//	k2-iccg/gen:fa1,fm1,mem1,lat7/7/3,fr62: cycles 715 -> 549, words 435 -> 399
//	k2-iccg/gen:fa1,fm1,mem1,lat7/7/3,fr62/loop 3: pipelined false -> true, ii (none) -> 5
//
// A row is a JSON object; its name is the workload, machine, cells and
// loop fields met on the way down to it, its values are its scalar
// fields.  A row is worse when its cycles, array_cycles or words rose;
// the worse rows print first, and the last line is
//
//	rows moved: 2, worse: 0
//
// A field that no row of one report has is a schema change, not a row
// moving: it prints once, as "fields: engine dropped", before the rows.
//
// scripts/bench_regen.sh runs it when a report does not regenerate
// byte-identically, so "did any row get worse" is that line.
//
// Usage: rowdiff old.json new.json
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// naming lists the fields that name a row, in the order they print.
var naming = []string{"workload", "machine", "cells", "loop"}

// costs lists the fields whose rise makes a row worse.
var costs = []string{"cycles", "array_cycles", "words"}

// rows flattens a report: row name -> field -> rendered scalar.  Lists of
// scalars (cell_ii, stall_cycles) render as one value.
func rows(v any, path [4]string, out map[string]map[string]string) {
	switch v := v.(type) {
	case []any:
		for _, e := range v {
			rows(e, path, out)
		}
	case map[string]any:
		for i, k := range naming {
			if f, ok := v[k]; ok {
				path[i] = fmt.Sprint(f)
				if k == "cells" || k == "loop" {
					path[i] = k + " " + path[i]
				}
			}
		}
		var parts []string
		for _, p := range path {
			if p != "" {
				parts = append(parts, p)
			}
		}
		name := strings.Join(parts, "/")
		for k, f := range v {
			switch f := f.(type) {
			case map[string]any:
				rows(f, path, out)
			case []any:
				if len(f) > 0 {
					if _, nested := f[0].(map[string]any); nested {
						rows(f, path, out)
						continue
					}
				}
				set(out, name, k, fmt.Sprint(f))
			default:
				set(out, name, k, fmt.Sprint(f))
			}
		}
	}
}

func set(out map[string]map[string]string, row, field, val string) {
	if out[row] == nil {
		out[row] = map[string]string{}
	}
	out[row][field] = val
}

func load(path string) map[string]map[string]string {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	out := map[string]map[string]string{}
	rows(doc, [4]string{}, out)
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rowdiff: ")
	if len(os.Args) != 3 {
		log.Fatal("usage: rowdiff old.json new.json")
	}
	old, cur := load(os.Args[1]), load(os.Args[2])
	oldF, curF := fieldSet(old), fieldSet(cur)
	var schema []string
	for f := range oldF {
		if !curF[f] {
			schema = append(schema, f+" dropped")
		}
	}
	for f := range curF {
		if !oldF[f] {
			schema = append(schema, f+" added")
		}
	}
	if len(schema) > 0 {
		slices.Sort(schema)
		fmt.Printf("fields: %s\n", strings.Join(schema, ", "))
	}
	names := map[string]bool{}
	for n := range old {
		names[n] = true
	}
	for n := range cur {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	slices.Sort(sorted)
	var worse, rest []string
	for _, n := range sorted {
		fields := map[string]bool{}
		for f := range old[n] {
			fields[f] = true
		}
		for f := range cur[n] {
			fields[f] = true
		}
		var moved []string
		rose := false
		for f := range fields {
			if slices.Contains(naming, f) || !oldF[f] || !curF[f] {
				continue // part of the row's name, or a schema change
			}
			a, inOld := old[n][f]
			b, inCur := cur[n][f]
			if !inOld {
				a = "(none)"
			}
			if !inCur {
				b = "(none)"
			}
			if a != b {
				moved = append(moved, fmt.Sprintf("%s %s -> %s", f, a, b))
				rose = rose || slices.Contains(costs, f) && number(b) > number(a)
			}
		}
		if len(moved) == 0 {
			continue
		}
		// cycles and words first: they are what a reader greps for.
		slices.SortFunc(moved, func(a, b string) int { return strings.Compare(rank(a), rank(b)) })
		if n == "" {
			n = "(report)"
		}
		line := fmt.Sprintf("%s: %s", n, strings.Join(moved, ", "))
		if rose {
			worse = append(worse, line)
		} else {
			rest = append(rest, line)
		}
	}
	for _, line := range append(worse, rest...) {
		fmt.Println(line)
	}
	fmt.Printf("rows moved: %d, worse: %d\n", len(worse)+len(rest), len(worse))
}

// fieldSet is every field some row of a report has.
func fieldSet(rep map[string]map[string]string) map[string]bool {
	out := map[string]bool{}
	for _, row := range rep {
		for f := range row {
			out[f] = true
		}
	}
	return out
}

// number reads a rendered field as a number; anything else (a missing
// field, a list) is NaN and so neither rose nor fell.
func number(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

func rank(moved string) string {
	switch f, _, _ := strings.Cut(moved, " "); f {
	case "cycles", "array_cycles":
		return "0" + moved
	case "words":
		return "1" + moved
	default:
		return "2" + moved
	}
}
