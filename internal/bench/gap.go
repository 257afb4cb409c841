package bench

import (
	"fmt"
	"sort"
	"strings"

	"softpipe/internal/machine"
	"softpipe/internal/schedule"
)

// The gap report measures how far Lam's heuristic lands from the true
// minimum initiation interval: every corpus workload is compiled at the
// default and with the heuristic alone (codegen.Options.HeuristicOnly),
// and the per-loop IIs and the workloads' cycles are compared.  MII is
// only a lower bound, so Table 4-2's efficiency understates the heuristic
// wherever MII is unachievable; the search closes that gap by finding a
// smaller schedule or proving none exists.  A smaller II is not always
// fewer cycles at a loop's count, so the cycles sit beside the IIs.

// GapLoop is one pipelined loop measured both ways.
type GapLoop struct {
	Workload string `json:"workload"`
	Loop     int    `json:"loop"`
	MII      int    `json:"mii"`
	ResMII   int    `json:"res_mii"`
	RecMII   int    `json:"rec_mii"`
	HeurII   int    `json:"heuristic_ii"`
	II       int    `json:"ii"` // of the plan the default kept
	// Gap is HeurII − II, the cycles an iteration the default took back.
	Gap int `json:"gap"`
	// Proved means the search refuted every interval below II; FellBack
	// that it ran out of its node budget (the gap is then an upper bound).
	Proved   bool `json:"proved"`
	FellBack bool `json:"fell_back,omitempty"`
	// HeurCycles and Cycles are the workload's simulated cycles with the
	// heuristic alone and at the default.
	HeurCycles int64 `json:"heuristic_cycles"`
	Cycles     int64 `json:"cycles"`
}

// GapSummary aggregates the corpus.
type GapSummary struct {
	Loops int `json:"loops"`
	// GapClosed counts loops the default keeps below the heuristic's II.
	GapClosed int `json:"gap_closed"`
	// ProvedOptimal counts loops whose kept II carries an optimality
	// proof (including heuristic schedules the search confirmed).
	ProvedOptimal int `json:"proved_optimal"`
	// AboveMII counts loops proved optimal strictly above the MII lower
	// bound — cases where Table 4-2's efficiency metric undercounts.
	AboveMII int `json:"proved_above_mii"`
	FellBack int `json:"fell_back"`
	MaxGap   int `json:"max_gap"`
	TotalGap int `json:"total_gap"`
	// Mean MII/II (Table 4-2's efficiency, un-weighted) and total cycles,
	// with the heuristic alone and at the default.
	HeurEfficiency float64 `json:"heuristic_efficiency"`
	Efficiency     float64 `json:"efficiency"`
	HeurCycles     int64   `json:"heuristic_cycles"`
	Cycles         int64   `json:"cycles"`
}

// GapReport is the artifact behind BENCH_gap.json.
type GapReport struct {
	Machine    string     `json:"machine"`
	Set        string     `json:"set"`
	NodeBudget int64      `json:"node_budget"` // schedule.NodeBudget
	Loops      []GapLoop  `json:"loops"`
	Summary    GapSummary `json:"summary"`
}

// MeasureGap compiles the named corpus (Corpus(set, true)) both ways and
// reports the per-loop IIs; see MeasureGapWorkloads.
func MeasureGap(m *machine.Machine, set string, cfg Config) (*GapReport, error) {
	ws, err := Corpus(set, true)
	if err != nil {
		return nil, err
	}
	return MeasureGapWorkloads(m, set, ws, cfg)
}

// MeasureGapWorkloads measures the gap over an explicit corpus: every
// workload is one Measure job at cfg and one with cfg.HeuristicOnly set.
// It fails if the default keeps a II above the heuristic's, takes more
// cycles than the heuristic alone, or pipelines a loop less.
func MeasureGapWorkloads(m *machine.Machine, set string, ws []Workload, cfg Config) (*GapReport, error) {
	var jobs []Job
	for _, w := range ws {
		jobs = append(jobs, Job{"gap " + w.Name, w.Prog, m, cfg.Options})
	}
	kept, err := Measure(cfg, jobs)
	if err != nil {
		return nil, err
	}
	hcfg := cfg
	hcfg.HeuristicOnly = true
	heur, err := Measure(hcfg, jobs)
	if err != nil {
		return nil, err
	}
	rep := &GapReport{Machine: m.Name, Set: set, NodeBudget: schedule.NodeBudget}
	for i, w := range ws {
		rows, err := gapRows(w.Name, heur[i], kept[i])
		if err != nil {
			return nil, err
		}
		rep.Loops = append(rep.Loops, rows...)
		rep.Summary.HeurCycles += heur[i].Result.Cycles
		rep.Summary.Cycles += kept[i].Result.Cycles
	}
	summarizeGap(&rep.Summary, rep.Loops)
	return rep, nil
}

// gapRows pairs one workload's loops across its two compiles.
func gapRows(name string, heur, kept *RunResult) ([]GapLoop, error) {
	if heur.Result.Cycles < kept.Result.Cycles {
		return nil, fmt.Errorf("bench: gap %s: %d cycles at the default, %d with the heuristic alone", name, kept.Result.Cycles, heur.Result.Cycles)
	}
	hr, kr := heur.Report, kept.Report
	if len(hr.Loops) != len(kr.Loops) {
		return nil, fmt.Errorf("bench: gap %s: loop counts differ (%d vs %d)", name, len(hr.Loops), len(kr.Loops))
	}
	var rows []GapLoop
	for i, hl := range hr.Loops {
		kl := kr.Loops[i]
		if hl.Pipelined && !kl.Pipelined {
			// The default keeps the heuristic's plan wherever the other is
			// refused, so it must pipeline whatever the heuristic can.
			return nil, fmt.Errorf("bench: gap %s loop %d: pipelined by the heuristic alone but not at the default", name, hl.LoopID)
		}
		if !hl.Pipelined {
			// A loop only the default pipelines has no heuristic II to
			// compare against; it is a win, not a gap row.
			continue
		}
		if kl.II > hl.II {
			return nil, fmt.Errorf("bench: gap %s loop %d: kept II %d exceeds heuristic II %d", name, hl.LoopID, kl.II, hl.II)
		}
		rows = append(rows, GapLoop{
			Workload:   name,
			Loop:       hl.LoopID,
			MII:        kl.MII,
			ResMII:     kl.ResMII,
			RecMII:     kl.RecMII,
			HeurII:     hl.II,
			II:         kl.II,
			Gap:        hl.II - kl.II,
			Proved:     kl.Proved,
			FellBack:   kl.FellBack,
			HeurCycles: heur.Result.Cycles,
			Cycles:     kept.Result.Cycles,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Loop < rows[j].Loop })
	return rows, nil
}

func summarizeGap(s *GapSummary, loops []GapLoop) {
	s.Loops = len(loops)
	var heurEff, eff float64
	for _, l := range loops {
		if l.Gap > 0 {
			s.GapClosed++
		}
		if l.Proved {
			s.ProvedOptimal++
			if l.II > l.MII {
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
		eff += float64(l.MII) / float64(l.II)
	}
	if s.Loops > 0 {
		s.HeurEfficiency = heurEff / float64(s.Loops)
		s.Efficiency = eff / float64(s.Loops)
	}
}

// FormatGapReport renders the report as the fixed-width table printed by
// `warpbench -gap` (and pinned by the golden gap test).
func FormatGapReport(rep *GapReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimality gap on %s (%s corpus, %d-node search budget)\n", rep.Machine, rep.Set, rep.NodeBudget)
	fmt.Fprintf(&b, "%-10s %4s  %3s (res/rec)  %4s %4s  %3s  %9s %9s  %s\n",
		"workload", "loop", "MII", "heur", "kept", "gap", "heur-cyc", "kept-cyc", "status")
	for _, l := range rep.Loops {
		status := "unproved"
		switch {
		case l.FellBack:
			status = "budget-exhausted"
		case l.Proved && l.II == l.MII:
			status = "optimal, at bound"
		case l.Proved && l.RecMII > l.ResMII:
			status = "optimal, recurrence-bound MII unachievable"
		case l.Proved:
			status = "optimal, resource-bound MII unachievable"
		}
		fmt.Fprintf(&b, "%-10s %4d  %3d (%3d/%3d)  %4d %4d  %3d  %9d %9d  %s\n",
			l.Workload, l.Loop, l.MII, l.ResMII, l.RecMII, l.HeurII, l.II, l.Gap, l.HeurCycles, l.Cycles, status)
	}
	s := rep.Summary
	fmt.Fprintf(&b, "loops %d  gap-closed %d  proved-optimal %d (above MII %d)  fell-back %d  max-gap %d  total-gap %d\n",
		s.Loops, s.GapClosed, s.ProvedOptimal, s.AboveMII, s.FellBack, s.MaxGap, s.TotalGap)
	fmt.Fprintf(&b, "mean efficiency vs MII: heuristic %.3f  kept %.3f\n", s.HeurEfficiency, s.Efficiency)
	fmt.Fprintf(&b, "cycles: heuristic %d  kept %d\n", s.HeurCycles, s.Cycles)
	return b.String()
}
