package bench

import (
	"fmt"
	"strings"

	"softpipe/internal/machine"
)

// The sweep harness compiles one corpus across a family of machines and
// reports how the schedules respond: per-loop II against its lower
// bound, the modulo-variable-expansion unroll degree, and the register
// cost of software renaming — the axes of Lam §5's hardware-support
// discussion.  Rotating-register grid points pin unroll to 1, so a
// sweep over paired {MVE, rotating} machines prices exactly what the
// rotating file buys.

// SweepLoop is one loop's schedule at one grid point.
type SweepLoop struct {
	Loop      int    `json:"loop"`
	Pipelined bool   `json:"pipelined"`
	Reason    string `json:"reason,omitempty"`
	II        int    `json:"ii,omitempty"`
	MII       int    `json:"mii,omitempty"`
	Unroll    int    `json:"unroll,omitempty"`
	Stages    int    `json:"stages,omitempty"`
	// CopyRegsF/I count the float/int registers modulo variable
	// expansion claimed beyond one per variable.  On a rotating machine
	// the unroll is 1 and these are the ring depths instead.
	CopyRegsF int `json:"copy_regs_f,omitempty"`
	CopyRegsI int `json:"copy_regs_i,omitempty"`
}

// SweepRow is one workload at one grid point.
type SweepRow struct {
	Workload string      `json:"workload"`
	Cycles   int64       `json:"cycles"`
	Words    int         `json:"words"` // instruction words of the object
	MFLOPS   float64     `json:"mflops"`
	Loops    []SweepLoop `json:"loops"`
}

// SweepMachine is one grid point with its corpus aggregate.
type SweepMachine struct {
	Machine     string `json:"machine"`
	Fingerprint string `json:"fingerprint"`
	Rotating    bool   `json:"rotating"`
	// Loops/Pipelined/AtBound count the corpus loops, those that
	// pipelined, and those scheduled at the MII lower bound.
	Loops     int `json:"loops"`
	Pipelined int `json:"pipelined"`
	AtBound   int `json:"at_bound"`
	// MaxUnroll is the largest MVE unroll degree any loop needed (1 on
	// rotating machines by construction); CopyRegsF/I sum the renaming
	// register cost over the corpus.
	MaxUnroll  int        `json:"max_unroll"`
	CopyRegsF  int        `json:"copy_regs_f"`
	CopyRegsI  int        `json:"copy_regs_i"`
	MeanMFLOPS float64    `json:"mean_mflops"`
	Rows       []SweepRow `json:"rows"`
}

// SweepReport is the artifact behind BENCH_sweep.json.
type SweepReport struct {
	Set      string         `json:"set"`
	Verified bool           `json:"verified"`
	Machines []SweepMachine `json:"machines"`
}

// MeasureSweep compiles and simulates Corpus(set, false) — the
// deterministic kernels only, the fuzz corpus stays in the gap report —
// on every named grid point (machine.Parse grammar; empty means
// machine.DefaultGrid()).  The machine×workload cells are one Measure
// call; results land in grid order regardless of pool size.
func MeasureSweep(names []string, set string, cfg Config) (*SweepReport, error) {
	if len(names) == 0 {
		for _, g := range machine.DefaultGrid() {
			names = append(names, g.Name())
		}
	}
	ms := make([]*machine.Machine, len(names))
	for i, n := range names {
		m, err := machine.Parse(n)
		if err != nil {
			return nil, fmt.Errorf("bench: sweep machine %q: %w", n, err)
		}
		ms[i] = m
	}
	ws, err := Corpus(set, false)
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for _, m := range ms {
		for _, w := range ws {
			jobs = append(jobs, Job{"sweep " + w.Name + " on " + m.Name, w.Prog, m, cfg.Options})
		}
	}
	res, err := Measure(cfg, jobs)
	if err != nil {
		return nil, err
	}

	rep := &SweepReport{
		Set:      set,
		Verified: cfg.Options.VerifyEmitted,
	}
	for mi, m := range ms {
		sm := SweepMachine{
			Machine:     m.Name,
			Fingerprint: m.Fingerprint(),
			Rotating:    m.RotatingRegs,
		}
		var mflops float64
		for wi, w := range ws {
			row, err := sweepRow(w.Name, m, res[mi*len(ws)+wi])
			if err != nil {
				return nil, fmt.Errorf("bench: sweep %s on %s: %w", w.Name, m.Name, err)
			}
			sm.Rows = append(sm.Rows, row)
			mflops += row.MFLOPS
			for _, l := range row.Loops {
				sm.Loops++
				if !l.Pipelined {
					continue
				}
				sm.Pipelined++
				if l.II == l.MII {
					sm.AtBound++
				}
				if l.Unroll > sm.MaxUnroll {
					sm.MaxUnroll = l.Unroll
				}
				sm.CopyRegsF += l.CopyRegsF
				sm.CopyRegsI += l.CopyRegsI
			}
		}
		if len(sm.Rows) > 0 {
			sm.MeanMFLOPS = mflops / float64(len(sm.Rows))
		}
		rep.Machines = append(rep.Machines, sm)
	}
	return rep, nil
}

// sweepRow projects one measured cell onto its report row, enforcing the
// rotating-file invariants on the way.
func sweepRow(name string, m *machine.Machine, r *RunResult) (SweepRow, error) {
	row := SweepRow{Workload: name, Cycles: r.Cycles, Words: r.Words, MFLOPS: r.CellMFLOPS}
	for _, lr := range r.Report.Loops {
		l := SweepLoop{Loop: lr.LoopID, Pipelined: lr.Pipelined}
		if lr.Pipelined {
			l.II, l.MII = lr.II, lr.MII
			l.Unroll, l.Stages = lr.Unroll, lr.Stages
			l.CopyRegsF, l.CopyRegsI = lr.CopyRegsF, lr.CopyRegsI
			if m.RotatingRegs != lr.Rotating {
				return row, fmt.Errorf("loop %d: rotating flag %v on machine whose RotatingRegs=%v", lr.LoopID, lr.Rotating, m.RotatingRegs)
			}
			if lr.Rotating && lr.Unroll != 1 {
				return row, fmt.Errorf("loop %d: unroll %d on a rotating machine (want 1)", lr.LoopID, lr.Unroll)
			}
		} else {
			l.Reason = lr.Reason
		}
		row.Loops = append(row.Loops, l)
	}
	return row, nil
}

// RotPartner returns the index of the machine in rep that differs from
// rep.Machines[i] only in the rotating flag, or -1.  Canonical gen
// names make this a string edit: the ",rot" suffix toggles.
func (rep *SweepReport) RotPartner(i int) int {
	name := rep.Machines[i].Machine
	var want string
	if strings.HasSuffix(name, ",rot") {
		want = strings.TrimSuffix(name, ",rot")
	} else {
		want = name + ",rot"
	}
	for j, m := range rep.Machines {
		if m.Machine == want {
			return j
		}
	}
	return -1
}

// FormatSweepReport renders the report as the fixed-width table printed
// by `warpbench -sweep`: one line per grid point, then the
// rotating-vs-MVE copy-cost pairing for every machine pair that differs
// only in the register file.
func FormatSweepReport(rep *SweepReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine sweep (%s corpus", rep.Set)
	if rep.Verified {
		b.WriteString(", verified")
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "%-40s %3s  %5s %8s %5s %5s %5s  %7s\n",
		"machine", "rot", "piped", "at-bound", "maxU", "copyF", "copyI", "MFLOPS")
	for _, m := range rep.Machines {
		rot := "-"
		if m.Rotating {
			rot = "yes"
		}
		fmt.Fprintf(&b, "%-40s %3s  %2d/%2d %8d %5d %5d %5d  %7.1f\n",
			m.Machine, rot, m.Pipelined, m.Loops, m.AtBound, m.MaxUnroll,
			m.CopyRegsF, m.CopyRegsI, m.MeanMFLOPS)
	}
	var pairs []string
	for i, m := range rep.Machines {
		if m.Rotating {
			continue
		}
		j := rep.RotPartner(i)
		if j < 0 {
			continue
		}
		r := rep.Machines[j]
		pairs = append(pairs, fmt.Sprintf("  %-40s MVE unroll<=%d, %d copy regs  ->  rot unroll %d, %d ring regs\n",
			m.Machine, m.MaxUnroll, m.CopyRegsF+m.CopyRegsI, r.MaxUnroll, r.CopyRegsF+r.CopyRegsI))
	}
	if len(pairs) > 0 {
		b.WriteString("rotating vs MVE (paired grid points):\n")
		for _, p := range pairs {
			b.WriteString(p)
		}
	}
	return b.String()
}
