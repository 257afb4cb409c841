package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"softpipe"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/partition"
	"softpipe/internal/verify"
	"softpipe/internal/vliw"
	"softpipe/internal/workloads"
)

const (
	systolicN     = 48
	systolicCells = 4
)

var arrayWidths = []int{2, 4}

// pair is one (program, array width) point.
type pair struct {
	name   string
	prog   *ir.Program
	cells  []*machine.Machine
	fixed  bool
	single int64 // cycles of the single-cell compile of prog
	// skipped marks a pair CompilePartitioned declined in the warm-up
	// pass; such a pair is counted, not timed and not a failure.
	skipped bool

	first, last *softpipe.ArrayObject
	res         *softpipe.ArrayResult
}

// arrayWL is array-partition: one operation partitions a program across
// 2 or 4 cells, compiles every fragment, proves the array equivalent to
// the source (ArrayObject.Verify) and runs it.  One more operation per
// pass is the hand-partitioned systolic matrix multiplication.
type arrayWL struct {
	pairs []*pair
	a, b  []float64 // systolic operands
	want  []float64 // their product
	sys   struct {
		cycles int64
		words  int
	}
	planAdmitted time.Duration // partition.plan replay time on pairs that partition
	warmed       bool          // the warm-up pass has decided which pairs are skipped
}

func (w *arrayWL) setup(seed int64, scale float64) error {
	warp := machine.Warp()
	type source struct {
		name  string
		prog  *ir.Program
		fixed bool
	}
	var srcs []source
	paper := paperSources(warp)
	for _, u := range paper[:scaled(len(paper), scale)] {
		p, err := u.lower(nil)
		if err != nil {
			return err
		}
		srcs = append(srcs, source{u.name, p, true})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, s := range drawPairs(chainPool, rng, scale) {
		srcs = append(srcs, source{fmt.Sprintf("chain%d", s), workloads.RandomChainProgram(s), false})
	}
	for _, s := range srcs {
		obj, err := softpipe.Compile(s.prog, warp, softpipe.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		res, err := obj.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		for _, n := range arrayWidths {
			w.pairs = append(w.pairs, &pair{name: fmt.Sprintf("%s@%d", s.name, n), prog: s.prog, cells: softpipe.Machines(warp, n), fixed: s.fixed, single: res.Cycles})
		}
	}
	n := systolicN
	if scale < 1 {
		n = 8
	}
	w.a, w.b, w.want = make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range w.a {
		w.a[i], w.b[i] = rng.Float64(), rng.Float64()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				w.want[i*n+j] += w.a[i*n+k] * w.b[k*n+j]
			}
		}
	}
	return nil
}

func (w *arrayWL) close() {}

func (w *arrayWL) pass(r *run, tr *tracer) {
	for _, p := range w.pairs {
		if !p.skipped {
			tr.nextOp()
			t0 := time.Now()
			tr.begin("op")
			declined, err := w.op(p, tr)
			tr.end()
			if declined && !w.warmed {
				p.skipped = true
			} else {
				r.observe(time.Since(t0), err)
			}
		}
		if tr != nil {
			w.replay(p, tr)
		}
	}
	w.warmed = true
	tr.nextOp()
	t0 := time.Now()
	tr.begin("op")
	err := w.systolic(tr)
	tr.end()
	r.observe(time.Since(t0), err)
}

// op reports declined when CompilePartitioned itself returned the error.
func (w *arrayWL) op(p *pair, tr *tracer) (declined bool, err error) {
	tr.begin("softpipe.compile_partitioned")
	ao, err := softpipe.CompilePartitioned(p.prog, p.cells, softpipe.Options{})
	tr.end()
	if err != nil {
		return true, fmt.Errorf("%s: %w", p.name, err)
	}
	if p.first == nil {
		p.first = ao
	}
	p.last = ao
	tr.begin("array.verify")
	err = ao.Verify(nil)
	tr.end()
	if err != nil {
		return false, fmt.Errorf("%s: ArrayObject.Verify: %w", p.name, err)
	}
	tr.begin("sim.array")
	p.res, err = ao.RunArray(nil, softpipe.EngineInterp)
	tr.end()
	if err != nil {
		return false, fmt.Errorf("%s: RunArray: %w", p.name, err)
	}
	return false, nil
}

// replay times the planner alone on every pair, the declined ones too,
// and the array verifier alone on the pairs that partition.
func (w *arrayWL) replay(p *pair, tr *tracer) {
	tr.beginReplay()
	defer tr.endReplay()
	tr.begin("partition.plan")
	_, err := partition.Partition(p.prog, p.cells)
	d := tr.end()
	if err != nil || p.last == nil {
		return
	}
	w.planAdmitted += d
	ao := p.last
	bins := make([]*vliw.Program, len(ao.Cells))
	for i, c := range ao.Cells {
		bins[i] = c.Binary
	}
	plan := verify.ArrayPlan{Fragments: ao.Plan.Fragments, ArrayOwner: ao.Plan.ArrayOwner, ResultOwner: ao.Plan.ResultOwner}
	tr.begin("verify.array")
	_ = verify.Array(p.prog, plan, bins, p.cells, verify.Options{}) // timed as a layer; ArrayObject.Verify in the operation is the verdict
	tr.end()
}

func (w *arrayWL) systolic(tr *tracer) error {
	n := int(math.Sqrt(float64(len(w.a))))
	tr.begin("workloads.systolic_matmul")
	c, st, bin, err := workloads.SystolicMatmul(machine.Warp(), n, systolicCells, w.a, w.b)
	tr.end()
	if err != nil {
		return fmt.Errorf("systolic matmul: %w", err)
	}
	w.sys.cycles, w.sys.words = st.Cycles, len(bin.Instrs)
	for i := range c {
		if math.Abs(c[i]-w.want[i]) > 1e-9*math.Abs(w.want[i]) {
			return fmt.Errorf("systolic matmul: c[%d] = %v, want %v", i, c[i], w.want[i])
		}
	}
	return nil
}

func disassembly(ao *softpipe.ArrayObject) [sha256.Size]byte {
	var b strings.Builder
	for _, c := range ao.Cells {
		b.WriteString(c.Disassemble())
	}
	return sha256.Sum256([]byte(b.String()))
}

func (w *arrayWL) check(r *run) (cycles, words, seeded int64) {
	for _, p := range w.pairs {
		if p.skipped || p.last == nil || p.res == nil {
			continue // a failed operation was reported by its pass
		}
		r.violation(disassembly(p.first) == disassembly(p.last), "%s: cell disassembly differs between the warm-up pass and the last pass", p.name)
		if !p.fixed {
			seeded += p.res.Cycles
			continue
		}
		cycles += p.res.Cycles
		for _, c := range p.last.Cells {
			words += int64(len(c.Binary.Instrs))
		}
	}
	return cycles + w.sys.cycles, words + int64(w.sys.words), seeded
}

func (w *arrayWL) layers(tr *tracer, out map[string]float64) {
	passes := float64(tr.calls("workloads.systolic_matmul"))
	var partitioned, iiSum, cutSum, cellCycles, stalls int64
	maxQueue, logSpeedup := 0, 0.0
	for _, p := range w.pairs {
		if p.skipped || p.last == nil || p.res == nil {
			continue
		}
		partitioned++
		maxII := 0
		for _, ii := range p.last.CellII() {
			maxII = max(maxII, ii)
		}
		iiSum += int64(maxII)
		for _, cw := range p.last.Plan.CutWidths {
			cutSum += int64(cw)
		}
		cellCycles += p.res.Cycles * int64(len(p.cells))
		for _, cs := range p.res.CellStats {
			stalls += cs.StallCycles
			maxQueue = max(maxQueue, cs.MaxInQueue)
		}
		logSpeedup += math.Log(float64(p.single) / float64(p.res.Cycles))
	}
	out["partition.attempted"] = float64(len(w.pairs))
	out["partition.partitioned"] = float64(partitioned)
	out["partition.skipped"] = float64(int64(len(w.pairs)) - partitioned)
	out["partition.max_cell_ii_sum"] = float64(iiSum)
	out["partition.cut_width_sum"] = float64(cutSum)
	out["partition.cells_compile_ms"] = (tr.ms("softpipe.compile_partitioned") - float64(w.planAdmitted)/1e6) / passes
	out["sim.array_stall_cycles"] = float64(stalls)
	out["sim.array_max_in_queue"] = float64(maxQueue)
	if partitioned > 0 {
		out["partition.speedup_geomean"] = math.Exp(logSpeedup / float64(partitioned))
		out["sim.array_ns_per_cell_cycle"] = tr.ms("sim.array") * 1e6 / passes / float64(cellCycles)
	}
}
