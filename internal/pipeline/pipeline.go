// Package pipeline is the heart of the reproduction: given the dependence
// nodes of one loop body it computes the minimum initiation interval,
// runs the iterative modulo scheduler, applies modulo variable expansion
// (Lam §2.3) and packages everything the code generator needs to emit the
// prolog, (unrolled) steady state, epilog and live-out fix-ups.
package pipeline

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"softpipe/internal/depgraph"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/schedule"
	"softpipe/internal/trace"
)

// Policy selects how modulo variable expansion trades registers for code
// size (Lam §2.3).
type Policy int

// Unroll policies.
const (
	// PolicyMinUnroll unrolls u = max qᵢ times and gives variable vᵢ the
	// smallest factor of u that is ≥ qᵢ registers ("the increase in
	// register space is much more tolerable than the increase in code
	// size", Lam §2.3).
	PolicyMinUnroll Policy = iota
	// PolicyLCM unrolls lcm(qᵢ) times and gives each variable exactly qᵢ
	// registers (minimum registers, potentially much more code).
	PolicyLCM
)

const (
	// maxUnroll bounds the unrolled kernel size: a plan whose MVE unroll
	// degree exceeds it is refused.
	maxUnroll = 32
	// maxBodyLen is the pipelining threshold of Lam §4.2: loops whose
	// locally compacted body exceeds it are not even attempted (the EXP
	// loop of Livermore kernel 22, at 331 instructions, was beyond the
	// Warp compiler's threshold).
	maxBodyLen = 300
)

// Options tunes planning.
type Options struct {
	// Ctx, when non-nil, bounds the whole plan: the II search checks it
	// between candidate intervals and the copy-budget retry loop checks
	// it between reschedules, so a deadlined compile request aborts
	// instead of running to the largest candidate interval.
	Ctx context.Context
	// Policy, BinarySearch and DisableMVE are comparison points (see
	// codegen.Options): §2.3's lcm unroll, §2.2's FPS-style binary search
	// for the II, and §2.3 without modulo variable expansion (no
	// expandable-register edge is removed).
	Policy       Policy
	BinarySearch bool
	DisableMVE   bool
	// Effort selects the II-search backend: the paper's heuristic
	// (default) or the exact optimality-proving search with heuristic
	// fallback (schedule.EffortExact).
	Effort schedule.Effort
	// SchedBudget bounds the exact backend's wall clock per Search call;
	// 0 means schedule.DefaultExactBudget.  Ignored by the heuristic.
	SchedBudget time.Duration
	// MinII forces the search to start above the natural MII (the
	// rotating copy-budget probe of planLoop asks for II+1).  A body's
	// construct windows raise the floor to their own length whatever MinII
	// says.
	MinII int
	// LiveOut lists registers whose final values are observed after the
	// loop; expanded registers in this set receive fix-up moves.
	LiveOut map[ir.VReg]bool
	// IndependentMem asserts the loop carries no memory dependences
	// across iterations (source-level directive).
	IndependentMem bool
	// PowerOfTwoUnroll rounds the steady-state unroll degree up to a
	// power of two so that run-time remainder/pass arithmetic reduces to
	// a mask and a shift (the two-version scheme of §2.4 for loops with
	// run-time trip counts).
	PowerOfTwoUnroll bool
	// CopyBudgetF/I bound the extra registers modulo variable expansion
	// may claim; when exceeded, the costliest variables are un-expanded
	// (their inter-iteration constraints restored) and the loop is
	// rescheduled.  0 means unlimited.
	CopyBudgetF int
	CopyBudgetI int
	// RegKind reports the kind of a register, needed to apportion the
	// copy budget; nil disables budgeting.
	RegKind func(ir.VReg) ir.Kind
	// KeepMarginal disables the 99% check: by default, loops whose MII
	// is within 99% of the locally compacted body length are rejected
	// because pipelining cannot pay for its code growth (Lam §4.2,
	// kernels 16 and 20).
	KeepMarginal bool
	// Tracer receives per-phase spans and counters; nil disables tracing
	// at zero cost.
	Tracer *trace.Tracer
}

// Plan is a complete pipelining decision for one loop.
type Plan struct {
	Nodes []*depgraph.Node
	// Graph is the scheduled (filtered) graph; FullGraph retains the
	// removable edges for verification.
	Graph     *depgraph.Graph
	FullGraph *depgraph.Graph
	// Compact is the locally compacted body (the list schedule of
	// FullGraph) and Period the iteration period the unpipelined loop runs
	// at: Compact's length padded until every inter-iteration dependence of
	// FullGraph drains.  They are what pipelining is measured against.
	Compact *schedule.Result
	Period  int

	II       int
	Stages   int // number of concurrently active iterations (m)
	Unroll   int // u: steady-state unroll degree from MVE
	Time     []int
	MaxIssue int

	// Rotating marks a plan for a rotating-register machine: the kernel
	// is not unrolled for MVE (Unroll stays 1) and each expanded
	// register gets exactly q_v copies addressed through rotation rings
	// instead of unroll classes (Copies[r] = Q[r]).
	Rotating bool

	MII    int // lower bound actually used (incl. construct windows)
	ResMII int
	RecMII int
	// HasRecurrence reports a nontrivial dependence cycle (the paper's
	// "connected components").
	HasRecurrence bool

	// Expanded registers and their allocated copy counts r_v ≥ q_v.
	Expanded map[ir.VReg]bool
	Copies   map[ir.VReg]int
	Q        map[ir.VReg]int
	Lifetime map[ir.VReg]int
	// Fixups lists expanded live-out registers that need a final move
	// from the last iteration's copy back to the base register.
	Fixups []ir.VReg

	SchedStats *schedule.Stats
	// Explain is the II-search explain report.
	Explain *schedule.Explain
}

// CopyIndex returns which register copy iteration `iter` (the relative
// iteration index within the pipelined region; any representative of
// its class mod Unroll works, since copy counts divide the unroll
// degree) uses for r: iter mod r_v for expanded registers, 0 otherwise.
// On rotating plans iter must be the true relative iteration — there is
// no unrolling to quotient by.
func (p *Plan) CopyIndex(r ir.VReg, iter int) int {
	if n := p.Copies[r]; n > 1 {
		return iter % n
	}
	return 0
}

// Split divides n loop iterations over the pipelined region (Lam §2.4):
// the prolog starts Stages-1 iterations and every kernel pass Unroll
// more, which leaves r = (n-(Stages-1)) mod Unroll over after passes ≥ 1
// kernel passes.  The code generator starts those r in the epilog when n
// is a compile-time constant and runs them first, unpipelined, when it is
// not.  ok is false when n is too small for even one pass.
func (p *Plan) Split(n int64) (r, passes int64, ok bool) {
	q := n - int64(p.Stages-1)
	u := int64(p.Unroll)
	if q < u {
		return 0, 0, false
	}
	return q % u, q / u, true
}

// CopyRegs returns how many extra registers modulo variable expansion
// costs beyond one per variable, per register kind.
func (p *Plan) CopyRegs(kind func(ir.VReg) ir.Kind) (flt, intg int) {
	for r, n := range p.Copies {
		if n <= 1 {
			continue
		}
		if kind(r) == ir.KindFloat {
			flt += n - 1
		} else {
			intg += n - 1
		}
	}
	return
}

// fits reports whether the plan's copy registers stay within the budget
// (a budget ≤ 0 is unlimited, and without RegKind nothing is budgeted).
func (o *Options) fits(p *Plan) bool {
	if o.RegKind == nil {
		return true
	}
	cf, ci := p.CopyRegs(o.RegKind)
	return (o.CopyBudgetF <= 0 || cf <= o.CopyBudgetF) && (o.CopyBudgetI <= 0 || ci <= o.CopyBudgetI)
}

// victim picks the expanded variable to give up when the copy budget
// binds, or NoReg when nothing is expanded.  Copy-count ties break on the
// lower register number: ranging over the Copies map visits keys in a
// randomized order, and letting that order pick the victim makes the
// whole schedule differ from run to run.
func (p *Plan) victim() ir.VReg {
	worst, worstQ := ir.NoReg, 0
	for r, n := range p.Copies {
		if n <= 1 {
			continue
		}
		if p.Rotating {
			// Un-expanding a variable restores an anti-dependence that
			// bounds II from below by roughly its lifetime, so on a
			// rotating machine — where shrinking the unroll degree is
			// not a motive (it is already 1) — the cheapest victim is
			// the SHORTEST-lived expanded variable, not the longest.
			// (Under MVE the longest-lived victim also shrinks u, which
			// is what the retry is after.)
			if worst == ir.NoReg || n < worstQ || (n == worstQ && r < worst) {
				worstQ, worst = n, r
			}
		} else if n > worstQ || (n == worstQ && (worst == ir.NoReg || r < worst)) {
			worstQ, worst = n, r
		}
	}
	return worst
}

// PlanLoop analyzes and schedules one loop body.  When the modulo-
// variable-expansion register cost exceeds the copy budget, the
// longest-lived variables are successively un-expanded and the loop is
// rescheduled with their inter-iteration constraints restored — a
// graceful version of the paper's "when we run out of registers, we
// resort to simple techniques" (§2.3).
func PlanLoop(nodes []*depgraph.Node, loopID int, m *machine.Machine, opts Options) (*Plan, error) {
	p, err := planLoop(nodes, loopID, m, opts)
	if err != nil && opts.Effort == schedule.EffortExact &&
		(opts.Ctx == nil || opts.Ctx.Err() == nil) {
		// A tighter exact schedule can fail checks downstream of the II
		// search — the MVE unroll limit, the copy budget — that the
		// heuristic schedule would have passed.  Exact
		// effort must never pipeline less than the heuristic, so retry
		// the loop without it before giving up.
		ho := opts
		ho.Effort = schedule.EffortHeuristic
		if hp, herr := planLoop(nodes, loopID, m, ho); herr == nil {
			return hp, nil
		}
	}
	return p, err
}

// body is what every plan of one loop shares.  The copy-budget retries
// of planLoop differ only in which omega-1 edges they drop, and none of
// this reads those of the filtered graph: the resource bound reads
// reservations, the list schedule omega-0 edges, and the period the
// full graph, because the unpipelined loop keeps every edge.
type body struct {
	nodes   []*depgraph.Node
	full    *depgraph.Graph
	m       *machine.Machine
	resMII  int              // the resource bound with the loop-back branch
	compact *schedule.Result // the locally compacted body
	period  int              // its period as the unpipelined loop
}

func planLoop(nodes []*depgraph.Node, loopID int, m *machine.Machine, opts Options) (*Plan, error) {
	full := depgraph.BuildIndep(nodes, loopID, opts.IndependentMem)
	// The loop-back branch occupies one sequencer slot of every steady-
	// state window; fold it into the resource bound so MetLower reflects
	// the true floor.  Computed first: a machine that lacks a reserved
	// resource is the error to report, and List cannot place on it.
	resMII, err := depgraph.ResourceMIIExtra(full, m, []machine.ResUse{{Resource: machine.ResBranch}})
	if err != nil {
		return nil, err
	}
	// The §4.2 profitability guards are computed against the locally
	// compacted body.  The threshold needs nothing else, so it goes before
	// the dependence analysis and the search — whose longest-path sweeps
	// are cubic in the size of a recurrence — and "not even attempted" is
	// literally true.
	compact, err := schedule.List(full, m)
	if err != nil {
		return nil, err
	}
	if compact.Length > maxBodyLen {
		return nil, fmt.Errorf("pipeline: body length %d beyond pipelining threshold %d", compact.Length, maxBodyLen)
	}
	b := &body{nodes: nodes, full: full, m: m, resMII: resMII, compact: compact,
		period: schedule.PeriodFor(full, compact, compact.Length)}

	expanded := map[ir.VReg]bool{}
	if !opts.DisableMVE {
		for r, ok := range full.Expandable {
			if ok {
				expanded[r] = true
			}
		}
	}
	for {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("pipeline: plan aborted: %w", err)
			}
		}
		p, err := planWith(b, expanded, opts)
		if err != nil {
			return nil, err
		}
		if opts.fits(p) {
			return p, nil
		}
		worst := p.victim()
		if worst == ir.NoReg {
			return p, nil
		}
		if p.Rotating {
			// On a rotating machine every ring is ceil(lifetime/II) deep,
			// so a larger initiation interval shrinks all rings at once
			// without restoring any anti-dependence, while un-expanding a
			// variable bounds II from below by its whole lifetime.
			// Neither remedy dominates: probe one step of each — II+1
			// with every expansion kept, and the current interval with
			// the cheapest victim un-expanded — and keep whichever fits
			// the budget at the smaller interval (or whichever made more
			// progress when neither fits yet).
			po := opts
			po.MinII = p.II + 1
			pA, errA := planWith(b, expanded, po)
			exB := make(map[ir.VReg]bool, len(expanded))
			for r := range expanded {
				if r != worst {
					exB[r] = true
				}
			}
			pB, errB := planWith(b, exB, opts)
			cost := func(pp *Plan) int {
				f, i := pp.CopyRegs(opts.RegKind)
				return f + i
			}
			switch {
			case errA == nil && errB == nil:
				fitA, fitB := opts.fits(pA), opts.fits(pB)
				switch {
				case fitA && fitB:
					if pA.II <= pB.II {
						return pA, nil
					}
					return pB, nil
				case fitA:
					return pA, nil
				case fitB:
					return pB, nil
				case cost(pA) < cost(pB):
					opts.MinII = po.MinII
				default:
					expanded = exB
				}
			case errA == nil:
				opts.MinII = po.MinII
			case errB == nil:
				expanded = exB
			default:
				// Neither remedy schedules; hand back the over-budget plan
				// and let the final register-file check rule on it.
				return p, nil
			}
			continue
		}
		delete(expanded, worst)
	}
}

func planWith(b *body, expanded map[ir.VReg]bool, opts Options) (*Plan, error) {
	nodes, m := b.nodes, b.m
	g := b.full.Filter(expanded)

	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	sp := opts.Tracer.Begin("depgraph.analyze")
	a, err := depgraph.AnalyzeContext(ctx, g, m)
	if err != nil {
		sp.End()
		return nil, err
	}
	sccs := 0
	for ci := range a.SCC.Components {
		if !a.SCC.IsTrivial(g, ci) {
			sccs++
		}
	}
	sp.Arg("nodes", int64(len(g.Nodes))).Arg("edges", int64(len(g.Edges))).Arg("sccs", int64(sccs)).End()
	opts.Tracer.Count("depgraph.nodes", int64(len(g.Nodes)))
	opts.Tracer.Count("depgraph.edges", int64(len(g.Edges)))
	opts.Tracer.Count("depgraph.sccs", int64(sccs))
	a.ResMII = max(a.ResMII, b.resMII)
	a.MII = max(a.MII, b.resMII)
	// Construct windows: a reduced construct of length L must fit within
	// one initiation interval so that the emitted kernel can fork into
	// its branches without crossing the loop-back boundary (see
	// DESIGN.md).  This is the paper's "treating its operations as
	// indivisible ... increases the minimum initiation interval" (§4.1).
	minII := opts.MinII
	for _, n := range nodes {
		if n.Payload != nil && n.Len > minII {
			minII = n.Len
		}
	}

	// The unpipelined comparison point is the loop that would be emitted
	// instead (b.period).
	effMII := max(a.MII, minII)
	if !opts.KeepMarginal && effMII*100 >= b.period*99 {
		return nil, fmt.Errorf("pipeline: initiation interval bound %d within 99%% of unpipelined length %d", effMII, b.period)
	}

	searcher := schedule.New(opts.Effort, a, m)
	search := opts.Tracer.Begin("schedule.search")
	res, st, err := searcher.Search(schedule.Options{
		Ctx:            opts.Ctx,
		MaxII:          schedule.DefaultMaxII(a) + minII,
		MinII:          minII,
		BinarySearch:   opts.BinarySearch,
		ReserveBranch:  true,
		BranchResource: machine.ResBranch,
		Budget:         opts.SchedBudget,
	})
	if st != nil {
		opts.Tracer.Count("schedule.attempts", int64(st.Attempts))
		opts.Tracer.Count("schedule.backtracks", int64(st.Backtracks))
	}
	if err != nil {
		search.End()
		return nil, err
	}
	search.Arg("ii", int64(res.II)).End()
	if verr := schedule.Verify(g, m, res); verr != nil {
		return nil, fmt.Errorf("pipeline: internal schedule verification failed: %w", verr)
	}
	// No construct window wraps around the interval: a window holds the
	// sequencer from end to end, the search reserved the sequencer's row
	// II-1 for the loop-back before placing anything, and every machine has
	// one sequencer — a wrapping window would have had to cover that row.
	for i, n := range nodes {
		if n.Payload != nil && res.Time[i]%res.II+n.Len > res.II {
			return nil, fmt.Errorf("pipeline: internal: construct window of %d cycles at %d wraps II %d", n.Len, res.Time[i], res.II)
		}
	}

	p := &Plan{
		Nodes:         nodes,
		Graph:         g,
		FullGraph:     b.full,
		Compact:       b.compact,
		Period:        b.period,
		II:            res.II,
		Time:          res.Time,
		MII:           max(a.MII, minII),
		ResMII:        a.ResMII,
		RecMII:        a.RecMII,
		HasRecurrence: a.HasRecurrence,
		Rotating:      m.RotatingRegs,
		Expanded:      expanded,
		Copies:        map[ir.VReg]int{},
		Q:             map[ir.VReg]int{},
		Lifetime:      map[ir.VReg]int{},
		SchedStats:    st,
		Explain:       res.Explain,
	}
	for _, t := range res.Time {
		if t > p.MaxIssue {
			p.MaxIssue = t
		}
	}
	p.Stages = p.MaxIssue/p.II + 1

	if err := p.expand(opts); err != nil {
		return nil, err
	}
	opts.Tracer.Count("mve.unroll", int64(p.Unroll))
	return p, nil
}

// expand performs modulo variable expansion: compute lifetimes and qᵢ from
// the final schedule, pick the unroll degree per policy, and allocate
// register copies.
func (p *Plan) expand(opts Options) error {
	type life struct {
		def  int
		use  int
		used bool
	}
	lives := map[ir.VReg]*life{}
	for i, n := range p.Nodes {
		t := p.Time[i]
		for _, w := range n.Writes {
			if !p.Expanded[w.Reg] {
				continue
			}
			l := lives[w.Reg]
			if l == nil {
				l = &life{def: t + w.AvailFirst, use: t + w.AvailFirst}
				lives[w.Reg] = l
			} else if t+w.AvailFirst < l.def {
				l.def = t + w.AvailFirst
			}
			// A copy stays occupied until its last write lands, even if
			// nothing reads that value (e.g. a dead final pointer bump):
			// the next write-back to the same physical copy must come
			// strictly later.
			if t+w.AvailLast > l.use {
				l.use = t + w.AvailLast
			}
		}
	}
	for i, n := range p.Nodes {
		t := p.Time[i]
		for _, rd := range n.Reads {
			l := lives[rd.Reg]
			if l == nil {
				continue
			}
			l.used = true
			if t+rd.Last > l.use {
				l.use = t + rd.Last
			}
		}
	}
	u := 1
	for r, l := range lives {
		lt := l.use - l.def + 1
		if lt < 1 {
			lt = 1
		}
		q := (lt + p.II - 1) / p.II
		if q < 1 {
			q = 1
		}
		p.Lifetime[r] = lt
		p.Q[r] = q
		switch opts.Policy {
		case PolicyLCM:
			u = lcm(u, q)
		default:
			if q > u {
				u = q
			}
		}
	}
	if p.Rotating {
		// Hardware rotation renames copies per iteration, so the kernel
		// needs no unrolling at all and every variable gets exactly its
		// minimum q_v copies — the divisibility constraint that forces
		// extra copies (or extra code) under pure MVE vanishes (Lam
		// §2.3's cost, paid only by software-renaming machines).
		p.Unroll = 1
		for r, q := range p.Q {
			p.Copies[r] = q
		}
	} else {
		if opts.PowerOfTwoUnroll {
			pow := 1
			for pow < u {
				pow *= 2
			}
			u = pow
		}
		if u > maxUnroll {
			return fmt.Errorf("pipeline: unroll degree %d exceeds limit %d", u, maxUnroll)
		}
		p.Unroll = u
		for r, q := range p.Q {
			switch opts.Policy {
			case PolicyLCM:
				if opts.PowerOfTwoUnroll {
					p.Copies[r] = smallestFactorAtLeast(u, q)
				} else {
					p.Copies[r] = q
				}
			default:
				p.Copies[r] = smallestFactorAtLeast(u, q)
			}
		}
	}
	// Fix-ups for live-out expanded registers.
	for r := range p.Expanded {
		if opts.LiveOut[r] && p.Copies[r] > 1 {
			p.Fixups = append(p.Fixups, r)
		}
	}
	slices.Sort(p.Fixups)
	return nil
}

func smallestFactorAtLeast(u, q int) int {
	for f := q; f <= u; f++ {
		if u%f == 0 {
			return f
		}
	}
	return u
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// FormatKernel renders the steady-state kernel as the paper draws it
// (Figure 2-2): one row per cycle of the initiation interval, each row
// listing the operations issued at that offset with the pipeline stage
// (⌊σ/II⌋) they belong to.  Reduced constructs print as their occupancy
// window.
func (p *Plan) FormatKernel() string {
	var b strings.Builder
	fmt.Fprintf(&b, "II=%d stages=%d unroll=%d  (MII=%d: res=%d rec=%d)\n",
		p.II, p.Stages, p.Unroll, p.MII, p.ResMII, p.RecMII)
	type slot struct {
		stage int
		desc  string
	}
	rows := make([][]slot, p.II)
	for i, n := range p.Nodes {
		t := p.Time[i]
		desc := ""
		switch {
		case n.Op != nil && n.Op.Mem != nil:
			desc = fmt.Sprintf("%v[%s]", n.Op.Class, n.Op.Mem.Array)
		case n.Op != nil:
			desc = n.Op.Class.String()
		default:
			desc = fmt.Sprintf("construct/%d", n.Len)
		}
		rows[t%p.II] = append(rows[t%p.II], slot{t / p.II, desc})
	}
	for off, ops := range rows {
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].stage != ops[j].stage {
				return ops[i].stage < ops[j].stage
			}
			return ops[i].desc < ops[j].desc
		})
		parts := make([]string, len(ops))
		for i, s := range ops {
			parts[i] = fmt.Sprintf("s%d:%s", s.stage, s.desc)
		}
		fmt.Fprintf(&b, "  t%%%d=%d | %s\n", p.II, off, strings.Join(parts, "  "))
	}
	return b.String()
}
