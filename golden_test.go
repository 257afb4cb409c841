package softpipe_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/workloads"
)

// update regenerates the golden schedule files:
//
//	go test -run TestGoldenSchedules -update
var update = flag.Bool("update", false, "rewrite testdata/golden/*.golden from the current compiler output")

// goldenCase is one example program whose emitted schedule is pinned.
// The sources mirror examples/ (which are package main and cannot be
// imported).
type goldenCase struct {
	name string
	src  string
	// adjust sets a comparison point in the back end's options.
	adjust func(*codegen.Options)
	init   func(p *softpipe.Program)
}

func initAll(v func(i int) float64) func(p *softpipe.Program) {
	return func(p *softpipe.Program) {
		for _, a := range p.Arrays {
			for i := 0; i < a.Size; i++ {
				a.InitF = append(a.InitF, v(i))
			}
		}
	}
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			name: "saxpy",
			src: `
program saxpy;
const n = 200;
var x, y: array [0..199] of real;
    a: real;
    i: int;
begin
  a := 3.0;
  for i := 0 to n-1 do
    y[i] := y[i] + a * x[i];
end.
`,
			init: initAll(func(i int) float64 { return float64(i % 11) }),
		},
		{
			name: "clip",
			src: `
program clip;
const n = 300;
var a, c: array [0..299] of real;
    i: int;
begin
  for i := 0 to n-1 do
    if a[i] > 0.0 then
      c[i] := a[i] * 1.5
    else
      c[i] := a[i] + 1.5;
end.
`,
			init: initAll(func(i int) float64 { return float64(i%9) - 4 }),
		},
		{
			name: "dot",
			src: `
program dot;
var x, z: array [0..499] of real;
    q: real;
    k: int;
begin
  q := 0.0;
  for k := 0 to 499 do
    q := q + z[k]*x[k];
end.
`,
			init: initAll(func(i int) float64 { return float64(i%13) * 0.25 }),
		},
		{
			name: "vmac",
			src: `
program vmac;
var x, z, y: array [0..499] of real;
    k: int;
begin
  for k := 0 to 499 do
    y[k] := y[k] + z[k]*x[k];
end.
`,
			init: initAll(func(i int) float64 { return float64(i%13) * 0.25 }),
		},
		{
			name: "fir",
			src: `
program fir;
const n = 512;
var a: array [0..515] of real;
    w: array [0..3] of real;
    c: array [0..511] of real;
    s: real;
    i, j: int;
begin
  for i := 0 to n-1 do begin
    s := 0.0;
    for j := 0 to 3 do
      s := s + a[i+j]*w[j];
    c[i] := s;
  end;
end.
`,
			init: initAll(func(i int) float64 { return float64(i%7) * 0.5 }),
		},
		{
			name: "fir-unrolled",
			src: `
program fir;
const n = 512;
var a: array [0..515] of real;
    w: array [0..3] of real;
    c: array [0..511] of real;
    s: real;
    i, j: int;
begin
  for i := 0 to n-1 do begin
    s := 0.0;
    for j := 0 to 3 do
      s := s + a[i+j]*w[j];
    c[i] := s;
  end;
end.
`,
			adjust: func(o *codegen.Options) { o.UnrollInnerTrip = 4 },
			init:   initAll(func(i int) float64 { return float64(i%7) * 0.5 }),
		},
		{
			name: "edges",
			src: `
program edges;
const n = 48;
var img:    array [0..49] of array [0..49] of real;
    smooth: array [0..48] of array [0..48] of real;
    out:    array [0..47] of array [0..47] of real;
    i, j: int;
begin
  for i := 0 to n do
    for j := 0 to n do
      smooth[i][j] := 0.25*img[i][j] + 0.25*img[i][j+1] +
                      0.25*img[i+1][j] + 0.25*img[i+1][j+1];
  for i := 0 to n-1 do
    for j := 0 to n-1 do
      out[i][j] := abs(smooth[i][j] - smooth[i+1][j+1]) +
                   abs(smooth[i][j+1] - smooth[i+1][j]);
end.
`,
			init: initAll(func(i int) float64 { return float64(i%13) * 0.25 }),
		},
		{
			name: "systolic-cell",
			src:  workloads.SystolicMatmulSource(100, 10),
		},
	}
}

// renderGolden produces the diff-friendly text pinned by the golden
// files: per-loop scheduling facts (II, MVE unroll, kernel depth) plus
// the kernel rows themselves, and a digest of the full disassembly so
// any change to emitted code — even outside kernels — shows up.
func renderGolden(c goldenCase, obj *softpipe.Object) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# golden schedule for %s on machine warp\n", c.name)
	b.WriteString("# regenerate: go test -run TestGoldenSchedules -update\n")
	fmt.Fprintf(&b, "program %s: %d instrs, %d fregs, %d iregs\n",
		obj.Binary.Name, len(obj.Binary.Instrs), obj.Report.FRegsUsed, obj.Report.IRegsUsed)
	loops := append([]softpipe.LoopInfo(nil), obj.Report.Loops...)
	sort.Slice(loops, func(i, j int) bool { return loops[i].LoopID < loops[j].LoopID })
	for _, lr := range loops {
		fmt.Fprintf(&b, "loop %d: trip=%d pipelined=%v", lr.LoopID, lr.TripCount, lr.Pipelined)
		if lr.Pipelined {
			fmt.Fprintf(&b, " II=%d MII=%d met=%v unroll=%d stages=%d", lr.II, lr.MII, lr.MetLower, lr.Unroll, lr.Stages)
		} else if lr.Reason != "" {
			fmt.Fprintf(&b, " reason=%q", lr.Reason)
		}
		b.WriteByte('\n')
		if lr.Kernel != "" {
			for _, line := range strings.Split(strings.TrimRight(lr.Kernel, "\n"), "\n") {
				fmt.Fprintf(&b, "  %s\n", line)
			}
		}
	}
	fmt.Fprintf(&b, "digest: sha256:%x\n", sha256.Sum256([]byte(obj.Disassemble())))
	return b.String()
}

// TestGoldenSchedules pins II, MVE unroll factor, kernel depth and a
// schedule digest for every example program, so scheduler refactors
// cannot silently change emitted code.  Run with -update to accept an
// intended change; the diff of the .golden file is the review artifact.
func TestGoldenSchedules(t *testing.T) {
	warp := softpipe.Warp()
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prog, err := softpipe.ParseSource(c.src)
			if err != nil {
				t.Fatal(err)
			}
			if c.init != nil {
				c.init(prog)
			}
			obj, err := softpipe.CompileWith(prog, warp, softpipe.Options{}, c.adjust)
			if err != nil {
				t.Fatal(err)
			}
			got := renderGolden(c, obj)
			path := filepath.Join("testdata", "golden", c.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run TestGoldenSchedules -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("schedule changed for %s.\n--- got ---\n%s--- want ---\n%s(run with -update if the change is intended)",
					c.name, got, want)
			}
		})
	}
}
