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
	// Policy, BinarySearch, DisableMVE and HeuristicOnly are comparison
	// points (see codegen.Options): §2.3's lcm unroll, §2.2's FPS-style
	// binary search for the II, §2.3 without modulo variable expansion (no
	// expandable-register edge is removed), and the heuristic alone.
	Policy        Policy
	BinarySearch  bool
	DisableMVE    bool
	HeuristicOnly bool
	// Effort and SchedBudget are accepted and ignored until ROADMAP item 3
	// deletes them: every plan runs the one search (schedule.New).
	Effort      schedule.Effort
	SchedBudget time.Duration
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
	// rescheduled.  The code generator passes its register headroom,
	// which is ≤ 0 when the base registers fill the file.  A modulo-
	// expanded plan then admits no copies, so the retry un-expands it
	// before the code generator's register check would refuse it.  A
	// rotating plan reads a budget ≤ 0 as unlimited (ROADMAP item 6).
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
	// Body is what the plan was made from: the nodes, the full graph, and
	// the locally compacted body and its period as the unpipelined loop,
	// which are what pipelining is measured against.
	*Body

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

	MII    int // the search's floor (Body.floor)
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

	// Heuristic is the plan HeuristicOnly makes of the same body where a
	// search of this plan landed below the heuristic's II, else nil: the
	// code generator keeps whichever of the two is faster.
	Heuristic *Plan
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

// fits reports whether the plan's copy registers stay within the budget;
// without RegKind nothing is budgeted.  A modulo-expanded plan gets
// exactly its budget, none when the headroom has run out.  A rotating
// plan reads a budget ≤ 0 as unlimited.
func (o *Options) fits(p *Plan) bool {
	if o.RegKind == nil {
		return true
	}
	cf, ci := p.CopyRegs(o.RegKind)
	if !p.Rotating {
		return cf <= max(o.CopyBudgetF, 0) && ci <= max(o.CopyBudgetI, 0)
	}
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
	b, err := NewBody(opts.Ctx, nodes, loopID, m, opts.IndependentMem)
	if err != nil {
		return nil, err
	}
	return b.Plan(opts)
}

// Body is what every plan of one loop body shares, built once: the nodes,
// their full dependence graph, and the locally compacted body with its
// period as the unpipelined loop.  The copy-budget retries differ only in
// which omega-1 edges they drop, and none of this reads those: the
// resource bound reads reservations, the list schedule omega-0 edges, and
// the period the full graph, because the unpipelined loop keeps every
// edge.  So the retries, the heuristic's plan beside the search's and the
// code generator's unpipelined form of the loop all read one Body.
type Body struct {
	Nodes []*depgraph.Node
	// Full is the dependence graph with every edge.
	Full *depgraph.Graph
	// Compact is the locally compacted body (the list schedule of Full)
	// and Period the iteration period the unpipelined loop runs at:
	// Compact's length padded until every inter-iteration dependence of
	// Full drains.
	Compact *schedule.Result
	Period  int

	m      *machine.Machine
	resMII int // the resource bound with the loop-back branch
}

// NewBody builds the dependence graph of the body nodes of loop loopID
// (independent is the loop's `independent` assertion) and list-schedules
// it for m.  It fails when m lacks a resource the body reserves, and,
// with an error wrapping ctx.Err(), when ctx (nil: none) ends the build.
func NewBody(ctx context.Context, nodes []*depgraph.Node, loopID int, m *machine.Machine, independent bool) (*Body, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	full, err := depgraph.BuildContext(ctx, nodes, loopID, independent)
	if err != nil {
		return nil, err
	}
	// Computed before the list schedule: a machine that lacks a reserved
	// resource is the error to report, and List cannot place on it.
	resMII, err := resourceMII(nodes, m)
	if err != nil {
		return nil, err
	}
	compact, err := schedule.List(full, m)
	if err != nil {
		return nil, err
	}
	return &Body{Nodes: nodes, Full: full, Compact: compact,
		Period: schedule.PeriodFor(full, compact, compact.Length), m: m, resMII: resMII}, nil
}

// Plan is PlanLoop on a body already built (opts.IndependentMem is then
// the body's own and not read).  Where a search landed below the
// heuristic's II, the HeuristicOnly plan is made too: the plan's
// Heuristic, or the plan returned when the searched one fails downstream
// (a lower II can stretch a lifetime past the unroll limit).  The tracer
// counts the plans made (pipeline.replans).
func (b *Body) Plan(opts Options) (*Plan, error) {
	pl := &planner{Body: b, opts: opts}
	defer func() { opts.Tracer.Count("pipeline.replans", int64(pl.plans)) }()
	p, err := pl.plan()
	if !pl.below || opts.HeuristicOnly || (opts.Ctx != nil && opts.Ctx.Err() != nil) {
		return p, err
	}
	pl.opts.HeuristicOnly = true
	hp, herr := pl.plan()
	switch {
	case herr != nil:
		return p, err
	case err != nil:
		return hp, nil
	}
	p.Heuristic = hp
	return p, nil
}

// planner is one Body.Plan call: how many plans it made and whether a
// search landed below the heuristic's II.
type planner struct {
	*Body
	opts  Options
	plans int
	below bool
}

// Floor is a lower bound on every initiation interval Plan(opts) can
// return, found without a search: the floor the first attempt's search
// starts from, that of the graph with every expandable register expanded
// (none without MVE).  The copy-budget retries only restore edges or
// raise the floor, and the heuristic's plan starts from the same bound,
// so no plan of b lands below it.  It fails as that attempt's
// analysis would (an error wrapping opts.Ctx's when it ends), and then
// Plan(opts) fails too.
func (b *Body) Floor(opts Options) (int, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	a, err := depgraph.AnalyzeContext(ctx, b.Full.Filter(b.expandable(opts)), b.m)
	if err != nil {
		return 0, err
	}
	return b.floor(a, 0), nil
}

// floor is where the search of a plan analyzed as a starts, and what the
// §4.2 99% rule and Plan.MII read: a's MII raised to ResourceFloor and to
// minII (the rotating copy-budget probe's II+1, or 0).
func (b *Body) floor(a *depgraph.Analysis, minII int) int {
	return max(a.MII, b.resMII, windows(b.Nodes), minII)
}

// ResourceFloor is the part of Body.Floor that the nodes of a body give
// without its dependence graph: the resource bound with the loop-back
// branch and the longest construct window.  Each construct window holds
// the one sequencer for its whole length, so it is never below the
// windows' sum plus one.  A caller asking whether any plan of a body could
// land below some II asks this first, and builds the body for Floor only
// if one could.  It fails, as NewBody does, when m lacks a resource the
// nodes reserve.
func ResourceFloor(nodes []*depgraph.Node, m *machine.Machine) (int, error) {
	res, err := resourceMII(nodes, m)
	if err != nil {
		return 0, err
	}
	return max(res, windows(nodes)), nil
}

// resourceMII is the resource bound of a body on m.  The loop-back branch
// occupies one sequencer slot of every steady-state window, so it is
// counted too and MetLower reflects the true floor.
func resourceMII(nodes []*depgraph.Node, m *machine.Machine) (int, error) {
	return depgraph.ResourceMIIExtra(nodes, m, []machine.ResUse{{Resource: machine.ResBranch}})
}

// expandable is the set of registers the first attempt expands: every
// one MVE may expand, none without MVE.
func (b *Body) expandable(opts Options) map[ir.VReg]bool {
	expanded := map[ir.VReg]bool{}
	if !opts.DisableMVE {
		for r, ok := range b.Full.Expandable {
			if ok {
				expanded[r] = true
			}
		}
	}
	return expanded
}

// windows is the floor the construct windows of nodes put under II: a
// reduced construct of length L must fit within one initiation interval
// so that the emitted kernel can fork into its branches without crossing
// the loop-back boundary (see DESIGN.md).  This is the paper's "treating
// its operations as indivisible ... increases the minimum initiation
// interval" (§4.1).
func windows(nodes []*depgraph.Node) int {
	m := 0
	for _, n := range nodes {
		if n.Payload != nil {
			m = max(m, n.Len)
		}
	}
	return m
}

// plan makes the plan of the body under pl.opts.
func (pl *planner) plan() (*Plan, error) {
	b, opts := pl.Body, pl.opts
	// The §4.2 profitability guards are computed against the locally
	// compacted body.  The threshold needs nothing else, so it goes before
	// the dependence analysis and the search — whose longest-path sweeps
	// are cubic in the size of a recurrence — and "not even attempted" is
	// literally true.
	if b.Compact.Length > maxBodyLen {
		return nil, fmt.Errorf("pipeline: body length %d beyond pipelining threshold %d", b.Compact.Length, maxBodyLen)
	}
	expanded := b.expandable(opts)
	minII := 0  // raised by the rotating copy-budget probe
	var p *Plan // the plan of expanded at minII, nil until made
	for {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("pipeline: plan aborted: %w", err)
			}
		}
		if p == nil {
			var err error
			if p, err = pl.planWith(expanded, minII); err != nil {
				return nil, err
			}
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
			// progress when neither fits yet, the next round starting from
			// that probe's plan).
			pA, errA := pl.planWith(expanded, p.II+1)
			exB := make(map[ir.VReg]bool, len(expanded))
			for r := range expanded {
				if r != worst {
					exB[r] = true
				}
			}
			pB, errB := pl.planWith(exB, minII)
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
					minII, p = p.II+1, pA
				default:
					expanded, p = exB, pB
				}
			case errA == nil:
				minII, p = p.II+1, pA
			case errB == nil:
				expanded, p = exB, pB
			default:
				// Neither remedy schedules; hand back the over-budget plan
				// and let the final register-file check rule on it.
				return p, nil
			}
			continue
		}
		delete(expanded, worst)
		p = nil
	}
}

// planWith plans the body with the registers in expanded expanded, its
// search starting no lower than minII.
func (pl *planner) planWith(expanded map[ir.VReg]bool, minII int) (*Plan, error) {
	pl.plans++
	b, opts := pl.Body, pl.opts
	nodes, m := b.Nodes, b.m
	g := b.Full.Filter(expanded)

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
		if a.Cyclic(ci) {
			sccs++
		}
	}
	sp.Arg("nodes", int64(len(g.Nodes))).Arg("edges", int64(len(g.Edges))).Arg("sccs", int64(sccs)).End()
	opts.Tracer.Count("depgraph.nodes", int64(len(g.Nodes)))
	opts.Tracer.Count("depgraph.edges", int64(len(g.Edges)))
	opts.Tracer.Count("depgraph.sccs", int64(sccs))
	a.ResMII = max(a.ResMII, b.resMII)
	a.MII = max(a.MII, b.resMII)
	floor := b.floor(a, minII)

	// The unpipelined comparison point is the loop that would be emitted
	// instead (b.Period).
	if !opts.KeepMarginal && floor*100 >= b.Period*99 {
		return nil, fmt.Errorf("pipeline: initiation interval bound %d within 99%% of unpipelined length %d", floor, b.Period)
	}

	newSearcher := schedule.NewExactSearcher
	if opts.HeuristicOnly {
		newSearcher = schedule.NewSearcher
	}
	searcher := newSearcher(a, m)
	search := opts.Tracer.Begin("schedule.search")
	res, st, err := searcher.Search(schedule.Options{
		Ctx:            opts.Ctx,
		MaxII:          schedule.DefaultMaxII(a) + max(windows(nodes), minII),
		MinII:          floor,
		BinarySearch:   opts.BinarySearch,
		ReserveBranch:  true,
		BranchResource: machine.ResBranch,
	})
	var exactNodes int64
	if st != nil {
		exactNodes = st.ExactNodes
		opts.Tracer.Count("schedule.attempts", int64(st.Attempts))
		opts.Tracer.Count("schedule.backtracks", int64(st.Backtracks))
		opts.Tracer.Count("schedule.exact_nodes", exactNodes)
		opts.Tracer.Count("schedule.exact_rigid", int64(st.ExactRigid))
		opts.Tracer.Count("schedule.paths", int64(st.Paths))
	}
	search.Arg("exact_nodes", exactNodes)
	if err != nil {
		search.End()
		return nil, err
	}
	pl.below = pl.below || st.Heuristic != res.II
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
		Body:          b,
		II:            res.II,
		Time:          res.Time,
		MII:           floor,
		ResMII:        a.ResMII,
		RecMII:        a.RecMII,
		HasRecurrence: a.HasRecurrence,
		Rotating:      m.RotatingRegs,
		Expanded:      expanded,
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
		reg  ir.VReg
		def  int
		use  int
		used bool
	}
	// lives holds one entry per expanded register written, found through
	// at: a map of indices and one slice, not a map of pointers.
	lives := make([]life, 0, len(p.Expanded))
	at := make(map[ir.VReg]int, len(p.Expanded))
	for i, n := range p.Nodes {
		t := p.Time[i]
		for _, w := range n.Writes {
			if !p.Expanded[w.Reg] {
				continue
			}
			k, ok := at[w.Reg]
			if !ok {
				k = len(lives)
				at[w.Reg] = k
				lives = append(lives, life{reg: w.Reg, def: t + w.AvailFirst, use: t + w.AvailFirst})
			}
			l := &lives[k]
			if ok && t+w.AvailFirst < l.def {
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
			k, ok := at[rd.Reg]
			if !ok {
				continue
			}
			l := &lives[k]
			l.used = true
			if t+rd.Last > l.use {
				l.use = t + rd.Last
			}
		}
	}
	p.Copies = make(map[ir.VReg]int, len(lives))
	p.Q = make(map[ir.VReg]int, len(lives))
	p.Lifetime = make(map[ir.VReg]int, len(lives))
	u := 1
	for _, l := range lives {
		r := l.reg
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

// Kernel is what String renders, held apart from the plan: the
// schedule's numbers and, per node, its issue time and what it prints as.
// A loop report keeps one, so neither the plan's graphs nor its nodes stay
// alive behind it, and renders it only when someone asks.  The zero Kernel
// renders as "".
type Kernel struct {
	ii, stages, unroll, mii, resMII, recMII int
	slots                                   []kernelSlot
}

// kernelSlot is one node of a kernel: an operation of class class (on
// array, when it touches memory), or, when op is false, a reduced
// construct of len cycles.  It holds no pointer, so two reports of one
// kernel compare and print alike.
type kernelSlot struct {
	op        bool
	class     machine.Class
	array     string
	time, len int32
}

// Kernel returns the plan's kernel, to be rendered later.
func (p *Plan) Kernel() Kernel {
	slots := make([]kernelSlot, len(p.Nodes))
	for i, n := range p.Nodes {
		slots[i] = kernelSlot{time: int32(p.Time[i]), len: int32(n.Len)}
		if op := n.Op; op != nil {
			slots[i].op, slots[i].class = true, op.Class
			if op.Mem != nil {
				slots[i].array = op.Mem.Array
			}
		}
	}
	return Kernel{p.II, p.Stages, p.Unroll, p.MII, p.ResMII, p.RecMII, slots}
}

// String renders the steady-state kernel as the paper draws it (Figure
// 2-2): one row per cycle of the initiation interval, each row listing the
// operations issued at that offset with the pipeline stage (⌊σ/II⌋) they
// belong to.  Reduced constructs print as their occupancy window.
func (k Kernel) String() string {
	if k.ii == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "II=%d stages=%d unroll=%d  (MII=%d: res=%d rec=%d)\n",
		k.ii, k.stages, k.unroll, k.mii, k.resMII, k.recMII)
	type slot struct {
		stage int
		desc  string
	}
	rows := make([][]slot, k.ii)
	for _, n := range k.slots {
		t := int(n.time)
		desc := ""
		switch {
		case n.op && n.array != "":
			desc = fmt.Sprintf("%v[%s]", n.class, n.array)
		case n.op:
			desc = n.class.String()
		default:
			desc = fmt.Sprintf("construct/%d", n.len)
		}
		rows[t%k.ii] = append(rows[t%k.ii], slot{t / k.ii, desc})
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
		fmt.Fprintf(&b, "  t%%%d=%d | %s\n", k.ii, off, strings.Join(parts, "  "))
	}
	return b.String()
}
