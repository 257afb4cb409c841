package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"softpipe"
	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
	"softpipe/internal/workloads"
)

// The gap report measures how far Lam's heuristic lands from the true
// minimum initiation interval: every corpus loop is compiled twice, once
// per scheduler backend, and the per-loop IIs are compared.  MII is only
// a lower bound, so "efficiency ≥ 95%" style claims from Table 4-2
// understate the heuristic wherever MII itself is unachievable; the
// exact backend closes that measurement gap by either finding a smaller
// schedule or proving none exists.

// saxpySource mirrors testdata/saxpy.w2 so the gap runner does not
// depend on the working directory.
const saxpySource = `
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
`

// GapWorkload is one program of the gap corpus.
type GapWorkload struct {
	Name string
	Prog *ir.Program
}

// Gap corpus set names.
const (
	GapSetFull  = "full"  // saxpy + every Livermore kernel + the checked-in fuzz corpus
	GapSetSmoke = "smoke" // saxpy + one resource-bound Livermore kernel (CI smoke)
)

// saxpyWorkload compiles the embedded saxpy source and fills its arrays
// (shared by the gap and sweep corpora).
func saxpyWorkload() (GapWorkload, error) {
	saxpy, err := lang.Compile(saxpySource)
	if err != nil {
		return GapWorkload{}, fmt.Errorf("bench: compile saxpy: %w", err)
	}
	for _, a := range saxpy.Arrays {
		for i := 0; i < a.Size; i++ {
			a.InitF = append(a.InitF, float64(i%11))
		}
	}
	return GapWorkload{Name: "saxpy", Prog: saxpy}, nil
}

// GapWorkloads builds the named gap corpus ("" means full).
func GapWorkloads(set string) ([]GapWorkload, error) {
	saxpy, err := saxpyWorkload()
	if err != nil {
		return nil, err
	}
	out := []GapWorkload{saxpy}
	kernels := workloads.Livermore()
	switch set {
	case GapSetSmoke:
		for _, k := range kernels {
			if k.ID != 18 {
				continue
			}
			p, err := k.Build()
			if err != nil {
				return nil, err
			}
			out = append(out, GapWorkload{Name: k.Name, Prog: p})
		}
	case "", GapSetFull:
		for _, k := range kernels {
			p, err := k.Build()
			if err != nil {
				return nil, err
			}
			out = append(out, GapWorkload{Name: k.Name, Prog: p})
		}
		for _, seed := range workloads.CorpusSeeds() {
			out = append(out, GapWorkload{
				Name: fmt.Sprintf("fuzz%d", seed),
				Prog: workloads.RandomProgram(seed),
			})
		}
	default:
		return nil, fmt.Errorf("bench: unknown gap set %q (want %q or %q)", set, GapSetFull, GapSetSmoke)
	}
	return out, nil
}

// GapLoop is one pipelined loop measured under both backends.
type GapLoop struct {
	Workload string `json:"workload"`
	Loop     int    `json:"loop"`
	MII      int    `json:"mii"`
	ResMII   int    `json:"res_mii"`
	RecMII   int    `json:"rec_mii"`
	HeurII   int    `json:"heuristic_ii"`
	ExactII  int    `json:"exact_ii"`
	// Gap is HeurII − ExactII: cycles per iteration the heuristic left
	// on the table (0 when the heuristic was already optimal).
	Gap int `json:"gap"`
	// Proved means the exact backend refuted every interval below
	// ExactII, so ExactII is the true minimum, not just an improvement.
	Proved bool `json:"proved"`
	// FellBack means the exact search ran out of budget and kept the
	// heuristic schedule; the gap is then an upper bound.
	FellBack bool `json:"fell_back,omitempty"`
}

// Bound names the binding constraint of the loop's lower bound.
func (l GapLoop) Bound() string {
	if l.RecMII > l.ResMII {
		return "recurrence"
	}
	return "resource"
}

// GapSummary aggregates the corpus.
type GapSummary struct {
	Loops int `json:"loops"`
	// GapClosed counts loops where the exact backend beat the heuristic.
	GapClosed int `json:"gap_closed"`
	// ProvedOptimal counts loops whose final II carries an optimality
	// proof (including heuristic schedules the exact search confirmed).
	ProvedOptimal int `json:"proved_optimal"`
	// AboveMII counts loops proved optimal strictly above the MII lower
	// bound — cases where Table 4-2's efficiency metric undercounts.
	AboveMII int `json:"proved_above_mii"`
	FellBack int `json:"fell_back"`
	MaxGap   int `json:"max_gap"`
	TotalGap int `json:"total_gap"`
	// Mean MII/II over the corpus loops, per backend (the Table 4-2
	// efficiency metric, un-weighted).
	HeurEfficiency  float64 `json:"heuristic_efficiency"`
	ExactEfficiency float64 `json:"exact_efficiency"`
}

// GapReport is the artifact behind BENCH_gap.json.
type GapReport struct {
	Machine  string     `json:"machine"`
	Set      string     `json:"set"`
	BudgetMS int64      `json:"budget_ms"`
	Loops    []GapLoop  `json:"loops"`
	Summary  GapSummary `json:"summary"`
}

// GapOpts tunes a gap run.
type GapOpts struct {
	// Set names the corpus (GapSetFull or GapSetSmoke; "" = full).
	Set string
	// Budget bounds the exact search per compile (0 = the backend's
	// default).
	Budget time.Duration
	// Workers sizes the pool (≤ 0 means GOMAXPROCS).
	Workers int
	// Verify runs the independent object-code verifier on both compiles
	// and checks both simulations against the interpreter.
	Verify bool
}

// MeasureGap compiles the corpus under both backends and reports the
// per-loop IIs.  It fails if any exact II exceeds the heuristic II (the
// exact backend must never be worse: it keeps the heuristic schedule as
// its fallback), or if the two backends disagree on which loops
// pipeline at all.
func MeasureGap(m *machine.Machine, o GapOpts) (*GapReport, error) {
	ws, err := GapWorkloads(o.Set)
	if err != nil {
		return nil, err
	}
	return MeasureGapWorkloads(m, ws, o)
}

// MeasureGapWorkloads is MeasureGap over an explicit corpus.
func MeasureGapWorkloads(m *machine.Machine, ws []GapWorkload, o GapOpts) (*GapReport, error) {
	budget := o.Budget
	if budget == 0 {
		budget = schedule.DefaultExactBudget
	}
	perWorkload := make([][]GapLoop, len(ws))
	err := ForEach(context.Background(), len(ws), o.Workers, func(i int) error {
		rows, err := gapOne(ws[i], m, o, budget)
		if err != nil {
			return err
		}
		perWorkload[i] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &GapReport{
		Machine:  m.Name,
		Set:      o.Set,
		BudgetMS: budget.Milliseconds(),
	}
	if rep.Set == "" {
		rep.Set = GapSetFull
	}
	for _, rows := range perWorkload {
		rep.Loops = append(rep.Loops, rows...)
	}
	rep.Summary = summarizeGap(rep.Loops)
	return rep, nil
}

func gapOne(w GapWorkload, m *machine.Machine, o GapOpts, budget time.Duration) ([]GapLoop, error) {
	runner := run
	if o.Verify {
		runner = runVerified
	}
	heur, err := runner(w.Prog, m, codegen.Options{Mode: codegen.ModePipelined, VerifyEmitted: o.Verify}, softpipe.EngineInterp)
	if err != nil {
		return nil, fmt.Errorf("bench: gap %s (heuristic): %w", w.Name, err)
	}
	exact, err := runner(w.Prog, m, codegen.Options{
		Mode:          codegen.ModePipelined,
		Pipeline:      pipelineOpts(schedule.EffortExact, budget),
		VerifyEmitted: o.Verify,
	}, softpipe.EngineInterp)
	if err != nil {
		return nil, fmt.Errorf("bench: gap %s (exact): %w", w.Name, err)
	}
	if len(heur.Report.Loops) != len(exact.Report.Loops) {
		return nil, fmt.Errorf("bench: gap %s: backend loop counts differ (%d vs %d)", w.Name, len(heur.Report.Loops), len(exact.Report.Loops))
	}
	var rows []GapLoop
	for i, hl := range heur.Report.Loops {
		el := exact.Report.Loops[i]
		if hl.Pipelined && !el.Pipelined {
			// The exact backend keeps the heuristic as its fallback at
			// every level, so it must pipeline whatever the heuristic can.
			return nil, fmt.Errorf("bench: gap %s loop %d: pipelined under heuristic effort but not exact", w.Name, hl.LoopID)
		}
		if !hl.Pipelined {
			// A loop only the exact backend pipelines has no heuristic II
			// to compare against; it is a win, not a gap row.
			continue
		}
		if el.II > hl.II {
			return nil, fmt.Errorf("bench: gap %s loop %d: exact II %d exceeds heuristic II %d", w.Name, hl.LoopID, el.II, hl.II)
		}
		rows = append(rows, GapLoop{
			Workload: w.Name,
			Loop:     hl.LoopID,
			MII:      el.MII,
			ResMII:   el.ResMII,
			RecMII:   el.RecMII,
			HeurII:   hl.II,
			ExactII:  el.II,
			Gap:      hl.II - el.II,
			Proved:   el.Proved,
			FellBack: el.FellBack,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Loop < rows[j].Loop })
	return rows, nil
}

func summarizeGap(loops []GapLoop) GapSummary {
	s := GapSummary{Loops: len(loops)}
	var heurEff, exactEff float64
	for _, l := range loops {
		if l.Gap > 0 {
			s.GapClosed++
		}
		if l.Proved {
			s.ProvedOptimal++
			if l.ExactII > l.MII {
				s.AboveMII++
			}
		}
		if l.FellBack {
			s.FellBack++
		}
		if l.Gap > s.MaxGap {
			s.MaxGap = l.Gap
		}
		s.TotalGap += l.Gap
		heurEff += float64(l.MII) / float64(l.HeurII)
		exactEff += float64(l.MII) / float64(l.ExactII)
	}
	if s.Loops > 0 {
		s.HeurEfficiency = heurEff / float64(s.Loops)
		s.ExactEfficiency = exactEff / float64(s.Loops)
	}
	return s
}

// FormatGapReport renders the report as the fixed-width table printed by
// `warpbench -gap` (and pinned by the golden gap test).
func FormatGapReport(rep *GapReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimality gap on %s (%s corpus)\n", rep.Machine, rep.Set)
	fmt.Fprintf(&b, "%-10s %4s  %3s (res/rec)  %4s %5s  %3s  %s\n",
		"workload", "loop", "MII", "heur", "exact", "gap", "status")
	for _, l := range rep.Loops {
		status := "unproved"
		switch {
		case l.FellBack:
			status = "budget-exhausted"
		case l.Proved && l.ExactII == l.MII:
			status = "optimal, at bound"
		case l.Proved:
			status = fmt.Sprintf("optimal, %s-bound MII unachievable", l.Bound())
		}
		fmt.Fprintf(&b, "%-10s %4d  %3d (%3d/%3d)  %4d %5d  %3d  %s\n",
			l.Workload, l.Loop, l.MII, l.ResMII, l.RecMII, l.HeurII, l.ExactII, l.Gap, status)
	}
	s := rep.Summary
	fmt.Fprintf(&b, "loops %d  gap-closed %d  proved-optimal %d (above MII %d)  fell-back %d  max-gap %d  total-gap %d\n",
		s.Loops, s.GapClosed, s.ProvedOptimal, s.AboveMII, s.FellBack, s.MaxGap, s.TotalGap)
	fmt.Fprintf(&b, "mean efficiency vs MII: heuristic %.3f  exact %.3f\n", s.HeurEfficiency, s.ExactEfficiency)
	return b.String()
}
