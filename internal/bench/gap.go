package bench

import (
	"fmt"
	"sort"
	"strings"

	"softpipe"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
)

// The gap report measures how far Lam's heuristic lands from the true
// minimum initiation interval: every corpus loop is compiled twice, once
// per scheduler backend, and the per-loop IIs are compared.  MII is only
// a lower bound, so "efficiency ≥ 95%" style claims from Table 4-2
// understate the heuristic wherever MII itself is unachievable; the
// exact backend closes that measurement gap by either finding a smaller
// schedule or proving none exists.

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

// MeasureGap compiles the named corpus (Corpus(set, true)) under both
// backends and reports the per-loop IIs; see MeasureGapWorkloads.
func MeasureGap(m *machine.Machine, set string, cfg Config) (*GapReport, error) {
	ws, err := Corpus(set, true)
	if err != nil {
		return nil, err
	}
	return MeasureGapWorkloads(m, set, ws, cfg)
}

// MeasureGapWorkloads measures the gap over an explicit corpus: every
// workload is one Measure job per backend, cfg.Options with Effort
// overridden, cfg.Options.EffortBudget (0 = the backend's default)
// bounding the exact search per compile.  It fails if any exact II
// exceeds the heuristic II (the exact backend must never be worse: it
// keeps the heuristic schedule as its fallback), or if the two backends
// disagree on which loops pipeline at all.
func MeasureGapWorkloads(m *machine.Machine, set string, ws []Workload, cfg Config) (*GapReport, error) {
	heur, exact := cfg.Options, cfg.Options
	heur.Effort = softpipe.EffortHeuristic
	exact.Effort = softpipe.EffortExact
	if exact.EffortBudget == 0 {
		exact.EffortBudget = schedule.DefaultExactBudget
	}
	var jobs []Job
	for _, w := range ws {
		jobs = append(jobs,
			Job{"gap " + w.Name + " (heuristic)", w.Prog, m, heur},
			Job{"gap " + w.Name + " (exact)", w.Prog, m, exact})
	}
	res, err := Measure(cfg, jobs)
	if err != nil {
		return nil, err
	}
	rep := &GapReport{Machine: m.Name, Set: set, BudgetMS: exact.EffortBudget.Milliseconds()}
	for i, w := range ws {
		rows, err := gapRows(w.Name, res[2*i].Report, res[2*i+1].Report)
		if err != nil {
			return nil, err
		}
		rep.Loops = append(rep.Loops, rows...)
	}
	rep.Summary = summarizeGap(rep.Loops)
	return rep, nil
}

// gapRows pairs one workload's loops across the two backends' reports.
func gapRows(name string, heur, exact *softpipe.Report) ([]GapLoop, error) {
	if len(heur.Loops) != len(exact.Loops) {
		return nil, fmt.Errorf("bench: gap %s: backend loop counts differ (%d vs %d)", name, len(heur.Loops), len(exact.Loops))
	}
	var rows []GapLoop
	for i, hl := range heur.Loops {
		el := exact.Loops[i]
		if hl.Pipelined && !el.Pipelined {
			// The exact backend keeps the heuristic as its fallback at
			// every level, so it must pipeline whatever the heuristic can.
			return nil, fmt.Errorf("bench: gap %s loop %d: pipelined under heuristic effort but not exact", name, hl.LoopID)
		}
		if !hl.Pipelined {
			// A loop only the exact backend pipelines has no heuristic II
			// to compare against; it is a win, not a gap row.
			continue
		}
		if el.II > hl.II {
			return nil, fmt.Errorf("bench: gap %s loop %d: exact II %d exceeds heuristic II %d", name, hl.LoopID, el.II, hl.II)
		}
		rows = append(rows, GapLoop{
			Workload: name,
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
