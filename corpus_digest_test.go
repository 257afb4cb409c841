package softpipe_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/pipeline"
	"softpipe/internal/workloads"
)

// The eight goldens pin eight programs on warp at default options.  The
// corpus digest pins everything the back end emits: one SHA-256 over the
// disassembly and the per-loop scheduling facts of every corpus program
// on every digest machine at every option point, and of each object the
// II search's branch-and-bound works hardest on (exactObjects, at the
// default options).  A refactor of codegen,
// pipeline or hier that changes a single emitted word, register number
// or loop verdict anywhere in that product changes the digest;
// regenerate with
//
//	go test -run TestCorpusDigest -update
//
// and review the per-program lines of testdata/corpus.digest that moved.
// The digest says an object changed, not that it is still right:
// TestCorpusVerify puts the same product through Object.Verify, a slice
// of it in tier-1 and all of it (≈ 4 min) with
//
//	go test -run TestCorpusVerify -grid -v
//
// whose -v output is one line an object (cycles and words, or the
// refusal), so two commits are compared by diffing two runs.

var grid = flag.Bool("grid", false, "TestCorpusVerify: verify every digest object, not the tier-1 slice")

// digestShapes are hand-written loop shapes the generated corpora do not
// reach: run-time trip counts (the two-version scheme, with and without a
// masked remainder, straight and conditional bodies), pipelined inner
// loops with a remainder emitted through loop reduction, several reduced
// loops in one outer body, the shapes reduction must refuse, and — the
// lift-* shapes — each legal and illegal neighbour of lifting an
// operation out of a reduced conditional's arm.
var digestShapes = []struct{ name, src string }{
	{"rt-straight", `
program rtstraight;
var a, c: array [0..99] of real;
    cnt: array [0..1] of int;
    i, m: int;
begin
  m := cnt[0];
  for i := 0 to m do
    c[i] := a[i]*2.0 + 1.0;
end.
`},
	{"rt-longlived", `
program rtlong;
var a, c: array [0..99] of real;
    cnt: array [0..1] of int;
    x: real;
    i, m: int;
begin
  m := cnt[0];
  for i := 0 to m do begin
    x := a[i];
    c[i] := (x*2.0 + 1.0)*x + x;
  end;
end.
`},
	{"rt-cond", `
program rtcond;
var a, c: array [0..99] of real;
    cnt: array [0..1] of int;
    x: real;
    i, m: int;
begin
  m := cnt[0];
  for i := 0 to m do begin
    x := a[i];
    if x > 0.5 then
      c[i] := (x*2.0 + 1.0)*x
    else
      c[i] := x + 1.5;
  end;
end.
`},
	{"rt-outer", `
program rtouter;
var a, c: array [0..15] of array [0..36] of real;
    cnt: array [0..1] of int;
    i, j, m: int;
begin
  m := cnt[0];
  for i := 0 to m do
    for j := 0 to 36 do
      c[i][j] := a[i][j]*0.5 + c[i][j];
end.
`},
	{"nest-scale", `
program nestscale;
var a, c: array [0..11] of array [0..39] of real;
    s: real;
    i, j: int;
begin
  s := 1.5;
  for i := 0 to 11 do
    for j := 0 to 39 do
      c[i][j] := a[i][j]*s + 2.0;
end.
`},
	{"nest-remainder", `
program nestrem;
var a, c: array [0..9] of array [0..40] of real;
    x: real;
    i, j: int;
begin
  for i := 0 to 9 do
    for j := 0 to 36 do begin
      x := a[i][j];
      c[i][j] := (x*2.0 + 1.0)*x + x;
    end;
end.
`},
	{"nest-two-inner", `
program nesttwo;
var a, b, c: array [0..7] of array [0..47] of real;
    r: array [0..7] of real;
    s: real;
    i, j: int;
begin
  for i := 0 to 7 do begin
    s := r[i]*0.5;
    for j := 0 to 47 do
      b[i][j] := a[i][j]*s + 1.0;
    s := s + 2.0;
    for j := 0 to 44 do
      c[i][j] := b[i][j]*s - a[i][j+1];
    r[i] := s;
  end;
end.
`},
	{"nest-cond-inner", `
program nestcond;
var a, c: array [0..7] of array [0..40] of real;
    x: real;
    i, j: int;
begin
  for i := 0 to 7 do
    for j := 0 to 36 do begin
      x := a[i][j];
      if x > 0.5 then
        c[i][j] := (x*2.0 + 1.0)*x
      else
        c[i][j] := x + 1.5;
    end;
end.
`},
	// s is read by every pass of a one-row kernel and bumped after the
	// inner loop: the add may not issue until the kernel's last pass.
	{"nest-fill-invariant", `
program nestfill;
var a: array [0..7] of array [0..63] of real;
    s: real;
    i, j: int;
begin
  s := 1.0;
  for i := 0 to 7 do begin
    for j := 0 to 63 do
      a[i][j] := s;
    s := s + 2.0;
  end;
end.
`},
	{"nest-three", `
program nestthree;
var a, c: array [0..5] of array [0..30] of real;
    i, j, k: int;
begin
  for i := 0 to 3 do
    for j := 0 to 5 do
      for k := 0 to 30 do
        c[j][k] := a[j][k]*a[i][k] + c[j][k];
end.
`},
	{"static-cond-remainder", `
program condrem;
var a, c: array [0..99] of real;
    x: real;
    i: int;
begin
  for i := 0 to 92 do begin
    x := a[i];
    if x > 0.5 then
      c[i] := (x*2.0 + 1.0)*x
    else
      c[i] := x + 1.5;
  end;
end.
`},
	{"directives", `
program directives;
var a, c: array [0..99] of real;
    i: int;
begin
  nopipeline for i := 0 to 98 do
    c[i] := a[i]*2.0 + c[i+1];
  independent for i := 1 to 98 do
    c[i] := c[i-1]*0.5 + a[i];
  for i := 0 to 2 do
    a[i] := a[i] + 1.0;
end.
`},
	// A private chain feeding a store: the chain leaves, the store stays.
	{"lift-chain", `
program liftchain;
var a, c: array [0..99] of real;
    x: real;
    i: int;
begin
  for i := 0 to 95 do begin
    x := a[i];
    if x > 0.5 then
      c[i] := (x*2.0 + 1.0)*(x - 3.0);
  end;
end.
`},
	// s is read after the conditional and by the next iteration: the
	// write to it stays, the product feeding it leaves.
	{"lift-liveout", `
program liftliveout;
var a, c: array [0..99] of real;
    x, s: real;
    i: int;
begin
  s := 1.0;
  for i := 0 to 95 do begin
    x := a[i];
    if x > 0.5 then
      s := x*2.0 + s;
    c[i] := s;
  end;
end.
`},
	// The load is guarded by its own condition and stays; so does the
	// product of what it loaded.
	{"lift-guarded-load", `
program liftload;
var a, c: array [0..99] of real;
    idx: array [0..99] of int;
    i, k: int;
begin
  for i := 0 to 95 do begin
    k := idx[i];
    if k < 100 then
      c[i] := a[k]*2.0 + 1.0;
  end;
end.
`},
	// The inner condition and both inner chains are private to the outer
	// arm: they cascade out of both windows.
	{"lift-nested", `
program liftnested;
var a, c: array [0..99] of real;
    x: real;
    i: int;
begin
  for i := 0 to 95 do begin
    x := a[i];
    if x > 0.5 then begin
      if x*x > 2.0 then
        c[i] := x*x*3.0
      else
        c[i] := x*x - 1.0;
    end else
      c[i] := x + 1.5;
  end;
end.
`},
	// y is assigned from a load earlier in the arm, so what reads it stays
	// behind the load.
	{"lift-redefined-source", `
program liftsource;
var a, b, c: array [0..99] of real;
    x, y: real;
    i: int;
begin
  for i := 0 to 95 do begin
    x := a[i];
    if x > 0.5 then begin
      y := b[i];
      c[i] := y*2.0 + x;
    end;
  end;
end.
`},
}

// liftEmptyArm is the one lift shape W2 text cannot say (every W2
// statement stores or assigns a named scalar, and neither leaves an arm):
// the THEN arm holds only a private chain nobody reads, so lifting
// empties it entirely and the window is the ELSE arm's store.
func liftEmptyArm() *softpipe.Program {
	b := softpipe.NewBuilder("liftempty")
	b.Array("a", ir.KindFloat, 100)
	b.Array("c", ir.KindFloat, 100)
	half := b.FConst(0.5)
	b.ForN(96, func(l *ir.LoopCtx) {
		v := b.Load("a", l.Pointer(0, 1), ir.Aff(l.ID, 1, 0))
		b.If(b.FCmp(ir.PredGT, v, half), func() {
			b.FAdd(b.FMul(v, v), half)
		}, func() {
			b.Store("c", l.Pointer(0, 1), v, ir.Aff(l.ID, 1, 0))
		})
	})
	return b.P
}

type digestProgram struct {
	name string
	prog *softpipe.Program
}

func digestPrograms(t *testing.T) []digestProgram {
	t.Helper()
	var out []digestProgram
	for _, sp := range workloads.Suite() {
		out = append(out, digestProgram{"suite/" + sp.Name, sp.Prog})
	}
	for _, k := range workloads.Livermore() {
		p, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestProgram{"livermore/" + k.Name, p})
	}
	for _, a := range workloads.Apps() {
		p, err := a.Build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestProgram{"apps/" + a.Name, p})
	}
	for _, seed := range workloads.CorpusSeeds() {
		out = append(out, digestProgram{fmt.Sprintf("fuzz/%d", seed), workloads.RandomProgram(seed)})
	}
	for seed := int64(1000); seed < 1080; seed++ {
		out = append(out, digestProgram{fmt.Sprintf("draw/%d", seed), workloads.RandomProgram(seed)})
	}
	for seed := int64(1); seed <= 20; seed++ {
		out = append(out, digestProgram{fmt.Sprintf("chain/%d", seed), workloads.RandomChainProgram(seed)})
		p, err := softpipe.ParseSource(workloads.RandomSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestProgram{fmt.Sprintf("source/%d", seed), p})
	}
	for _, c := range goldenCases() {
		p, err := softpipe.ParseSource(c.src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestProgram{"golden/" + c.name, p})
	}
	for _, s := range digestShapes {
		p, err := softpipe.ParseSource(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		out = append(out, digestProgram{"shape/" + s.name, p})
	}
	out = append(out, digestProgram{"shape/lift-empty-arm", liftEmptyArm()})
	return out
}

// digestMachines: the hand-written cells, the sweep grid with its
// rotating twins, and a 24-register pair where the copy budget binds.
func digestMachines(t *testing.T) []*softpipe.Machine {
	t.Helper()
	ms := []*softpipe.Machine{softpipe.Warp(), softpipe.Wide(2)}
	grid := machine.DefaultGrid()
	grid = append(grid,
		machine.Gen{FAdds: 2, FMuls: 2, MemPorts: 2, FloatRegs: 24},
		machine.Gen{FAdds: 2, FMuls: 2, MemPorts: 2, FloatRegs: 24, RotatingRegs: true})
	for _, g := range grid {
		m, err := g.Machine()
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// digestOptions are the option points.  Every one runs the II search's
// branch-and-bound, within its node budget, so every verdict is
// deterministic.  The paper's ablations and the inner-loop unroll
// threshold are not product options; adjust sets them in the back end's.
type digestOption struct {
	name   string
	opts   softpipe.Options
	adjust func(*codegen.Options)
}

var digestOptions = []digestOption{
	{name: "default"},
	{name: "baseline", opts: softpipe.Options{Baseline: true}},
	{name: "nomve", adjust: func(o *codegen.Options) { o.DisableMVE = true }},
	{name: "nohier", adjust: func(o *codegen.Options) { o.DisableHier = true }},
	{name: "noloopred", adjust: func(o *codegen.Options) { o.DisableLoopReduction = true }},
	{name: "lcm", adjust: func(o *codegen.Options) { o.Policy = pipeline.PolicyLCM }},
	{name: "unroll4", adjust: func(o *codegen.Options) { o.UnrollInnerTrip = 4 }},
}

// compile is the one compile of p at this option point, for the digest
// and the verify grid alike.
func (o digestOption) compile(p *softpipe.Program, m *softpipe.Machine) (*softpipe.Object, error) {
	return softpipe.CompileWith(p, m, o.opts, o.adjust)
}

// digestObject renders what the digest covers of one compile: the error
// text of a refused compile, or the disassembly and each loop's
// scheduling verdict in report order.
func digestObject(p *softpipe.Program, m *softpipe.Machine, o digestOption) string {
	obj, err := o.compile(p, m)
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	var b strings.Builder
	b.WriteString(obj.Disassemble())
	for _, lr := range obj.Report.Loops {
		fmt.Fprintf(&b, "loop %d pipelined=%v II=%d MII=%d unroll=%d stages=%d reason=%q\n%s",
			lr.LoopID, lr.Pipelined, lr.II, lr.MII, lr.Unroll, lr.Stages, lr.Reason, lr.Kernel())
	}
	return b.String()
}

// eachProgram calls f(i) for i in [0, n) on a small pool; Compile treats
// its program as read-only.
func eachProgram(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func TestCorpusDigest(t *testing.T) {
	progs := digestPrograms(t)
	machines := digestMachines(t)

	// One digest per program (over machines × option points, in order).
	sums := make([][sha256.Size]byte, len(progs))
	objects := len(progs) * len(machines) * len(digestOptions)
	eachProgram(len(progs), func(i int) {
		h := sha256.New()
		for _, m := range machines {
			for _, o := range digestOptions {
				fmt.Fprintf(h, "== %s | %s | %s\n%s", progs[i].name, m.Name, o.name,
					digestObject(progs[i].prog, m, o))
			}
		}
		h.Sum(sums[i][:0])
	})

	// One digest per exact object.
	exactNames, exactProgs, exactMachs := exactObjects(t)
	exactSums := make([][sha256.Size]byte, len(exactNames))
	eachProgram(len(exactNames), func(i int) {
		exactSums[i] = sha256.Sum256([]byte(digestObject(exactProgs[i], exactMachs[i], digestOptions[0])))
	})

	total := sha256.New()
	var lines strings.Builder
	for i, p := range progs {
		total.Write(sums[i][:])
		fmt.Fprintf(&lines, "%s sha256:%x\n", p.name, sums[i])
	}
	for i, name := range exactNames {
		total.Write(exactSums[i][:])
		fmt.Fprintf(&lines, "exact/%s sha256:%x\n", name, exactSums[i])
	}
	got := fmt.Sprintf("# corpus digest: %d programs x %d machines x %d option points = %d objects, and %d exact objects\n"+
		"# regenerate: go test -run TestCorpusDigest -update\n"+
		"total sha256:%x\n%s", len(progs), len(machines), len(digestOptions), objects, len(exactNames), total.Sum(nil), lines.String())

	path := filepath.Join("testdata", "corpus.digest")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest file (run `go test -run TestCorpusDigest -update`): %v", err)
	}
	if got == string(want) {
		return
	}
	wantLines := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		wantLines[l] = true
	}
	var moved []string
	for _, l := range strings.Split(got, "\n") {
		if !wantLines[l] && !strings.HasPrefix(l, "total ") {
			moved = append(moved, strings.Fields(l)[0])
		}
	}
	t.Errorf("emitted code or loop verdicts changed for %d corpus programs or exact objects: %s\n(run with -update if the change is intended)",
		len(moved), strings.Join(moved, " "))
}

// corpusRefusal reports whether err is one of the refusals the grid has
// for reasons of its own: a program that receives has no input tape to be
// verified against, shape/directives asserts an `independent` that is
// false (so the verifier must object wherever the loop was pipelined on
// the strength of it), and on the 24-register machines some compiles run
// out of float registers.
func corpusRefusal(prog string, m *softpipe.Machine, err error) bool {
	switch msg := err.Error(); {
	case prog == "golden/systolic-cell":
		return strings.Contains(msg, "receive beyond end of input")
	case prog == "shape/directives":
		return strings.Contains(msg, "provenance mismatch")
	default:
		return m.FloatRegs == 24 && strings.Contains(msg, "float registers needed")
	}
}

// TestCorpusVerify: every object of the slice compiles, passes the
// independent verifier and matches the reference interpreter, or is
// refused for a listed reason.  Tier-1 takes every program on warp and on
// one rotating grid point at default, baseline and nohier; -grid takes
// the digest's whole product.
func TestCorpusVerify(t *testing.T) {
	progs := digestPrograms(t)
	machines := digestMachines(t)
	options := digestOptions
	if !*grid {
		rot := slices.IndexFunc(machines, func(m *softpipe.Machine) bool { return m.RotatingRegs })
		machines = []*softpipe.Machine{machines[0], machines[rot]}
		options = slices.DeleteFunc(slices.Clone(options), func(o digestOption) bool {
			return o.name != "default" && o.name != "baseline" && o.name != "nohier"
		})
	}
	lines := make([][]string, len(progs))
	eachProgram(len(progs), func(i int) {
		for _, m := range machines {
			for _, o := range options {
				at := fmt.Sprintf("%s | %s | %s", progs[i].name, m.Name, o.name)
				obj, err := o.compile(progs[i].prog, m)
				var res *softpipe.Result
				if err == nil {
					res, err = obj.Verify()
				}
				switch {
				case err == nil:
					lines[i] = append(lines[i], fmt.Sprintf("%s: %d cycles, %d words", at, res.Cycles, len(obj.Binary.Instrs)))
				case corpusRefusal(progs[i].name, m, err):
					lines[i] = append(lines[i], fmt.Sprintf("%s: refused: %v", at, err))
				default:
					t.Errorf("%s: %v", at, err)
				}
			}
		}
	})
	for _, ls := range lines {
		for _, l := range ls {
			t.Log(l)
		}
	}
}
