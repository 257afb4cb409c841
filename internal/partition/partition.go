// Package partition splits one W2 loop nest across the cells of a linear
// Warp array.  Following the producer/consumer stage decomposition Lam
// describes for the array level (§1: cells chained through bounded
// queues) the planner cuts the innermost-loop dependence graph into N
// forward stages, duplicates cheap integer address/counter arithmetic
// into every cell that needs it, and wires the cut values through queue
// Send/Receive pairs — so each fragment is an ordinary single-cell
// program the existing software pipeliner compiles independently.  The
// cells are identical, as on Warp (§4.1): one machine, one cost model.
//
// Cuts only ever cross forward: every register value travelling between
// stages flows from a lower-numbered cell to a higher-numbered one
// within the same iteration, which is what makes the array deadlock-free
// by construction (a send can stall on a full queue, but the consumer
// downstream needs nothing from upstream to drain it).
//
// The stage balance objective is the array's throughput: the array runs
// at the II of its slowest cell, so the planner minimizes the maximum
// per-stage MII (resource and recurrence bounds from internal/depgraph,
// including the queue-port cost of the inserted sends/receives) over all
// contiguous splits of the stage clusters.
package partition

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"softpipe/internal/depgraph"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// Plan is the result of partitioning: one fragment program per cell plus
// the ownership maps the verifier needs to reassemble the observable
// state of the array against the single-cell reference.
type Plan struct {
	// Fragments are the per-cell programs in array order (cell 0 sees the
	// host input, the last cell produces the host output).
	Fragments []*ir.Program
	// Machine is the target every cell's fragment was planned against.
	Machine *machine.Machine
	// ArrayOwner maps each source array to the cell whose copy holds its
	// final contents (the only cell storing to it; read-only arrays are
	// replicated and owned by the lowest cell holding a copy).
	ArrayOwner map[string]int
	// ResultOwner maps each source scalar result to the cell that
	// computes it.
	ResultOwner map[string]int
	// CutWidths[i] is the number of values crossing the channel from
	// cell i to cell i+1 per iteration (len = cells-1).
	CutWidths []int
	// EstMII[i] is the planner's MII estimate for fragment i (resource +
	// recurrence bound including inserted queue operations); the achieved
	// II comes from actually compiling the fragment.
	EstMII []int
	// Stages[i] lists the source body operation IDs assigned to cell i
	// (replicated integer ops appear in every cell that needs them and
	// are not listed).
	Stages [][]int
	// Stats counts the planner's work, so a trace can say why a plan was
	// slow.
	Stats PlanStats
}

// PlanStats is the size of the split search behind a Plan.
type PlanStats struct {
	// Clusters is the number of indivisible op clusters the split ranged
	// over; the search considers O(Clusters²) contiguous intervals.
	Clusters int
	// CostEvals is the number of stage-cost evaluations: candidate
	// stages whose resource and recurrence bounds were computed.
	CostEvals int
	// CostSkipped is the number of split candidates dismissed on a lower
	// bound, without evaluating their stage.
	CostSkipped int
}

// Cells reports the array width of the plan.
func (p *Plan) Cells() int { return len(p.Fragments) }

// replicableClass reports op classes cheap enough to duplicate into any
// cell that needs their value: pure integer/address arithmetic (loop
// counters, strength-reduced pointers) — by the class table, a result and
// every source in the int file.  Everything else — float ops, memory,
// queue ops, int values derived from floats — is assigned to exactly one
// stage.
func replicableClass(c machine.Class) bool {
	row := c.Info()
	for _, f := range row.Src[:row.NSrc()] {
		if f != machine.FileInt {
			return false
		}
	}
	return row.Dst == machine.FileInt
}

// shape is the program form the partitioner accepts: straight-line setup,
// one innermost loop with a straight-line body, straight-line tail.
type shape struct {
	setup []*ir.Op
	loop  *ir.LoopStmt
	body  []*ir.Op
	tail  []*ir.Op
}

func analyzeShape(p *ir.Program) (*shape, error) {
	sh := &shape{}
	for _, st := range p.Body.Stmts {
		switch st := st.(type) {
		case *ir.OpStmt:
			if sh.loop == nil {
				sh.setup = append(sh.setup, st.Op)
			} else {
				sh.tail = append(sh.tail, st.Op)
			}
		case *ir.LoopStmt:
			if sh.loop != nil {
				return nil, fmt.Errorf("partition: program has more than one top-level loop")
			}
			sh.loop = st
		case *ir.IfStmt:
			return nil, fmt.Errorf("partition: top-level conditionals are not supported")
		}
	}
	if sh.loop == nil {
		return nil, fmt.Errorf("partition: program has no loop to partition")
	}
	body, ok := sh.loop.Body.Ops()
	if !ok {
		return nil, fmt.Errorf("partition: loop body contains control flow (conditionals or nested loops)")
	}
	sh.body = body
	for _, o := range sh.setup {
		switch o.Class {
		case machine.ClassRecv, machine.ClassSend:
			return nil, fmt.Errorf("partition: queue operation outside the loop is not supported")
		case machine.ClassStore:
			return nil, fmt.Errorf("partition: store outside the loop is not supported")
		}
	}
	for _, o := range sh.tail {
		switch o.Class {
		case machine.ClassRecv, machine.ClassSend:
			return nil, fmt.Errorf("partition: queue operation outside the loop is not supported")
		case machine.ClassStore:
			return nil, fmt.Errorf("partition: store outside the loop is not supported")
		}
	}
	return sh, nil
}

// cutValue is one register value crossing a stage boundary: produced by
// the last body write in prodCluster, consumed by later clusters.
type cutValue struct {
	reg        ir.VReg
	prodPos    int // position of the last body write (canonical order key)
	firstPos   int // position of the first body write
	prodStage  int
	lastConsum int   // highest stage consuming the value
	readers    []int // positions of the body ops outside prodStage reading it
}

// planner carries the working state of one Partition call.
type planner struct {
	p     *ir.Program
	cells int
	sh    *shape
	g     *depgraph.Graph
	// mm is the cell machine and what the split search knows of it; its
	// nodes are the body graph's.
	mm machineModel

	repl    []bool // body op index -> replicable
	writers map[ir.VReg][]int

	uf        []int // union-find over body op indices (stage ops only)
	clusters  [][]int
	clusterOf []int // body op index -> cluster index in topo order, -1 for replicable

	// The split search's view of the clusters, built once by
	// prepareSplit: closed[c] is cluster c's ops plus the replicable
	// closure they need (ascending body positions), recvOps and sendOps
	// the positions of the body's own queue ops, and scratch stageCost's
	// working storage.
	closed           [][]int
	recvOps, sendOps []int
	scratch          costScratch
	stats            PlanStats

	recvCluster int // cluster holding the program's own Recv ops, -1 if none
	sendCluster int // cluster holding the program's own Send ops, -1 if none
}

// Partition splits p across len(machines) cells, which must all be the
// same machine.  Cell 0 hosts the first stage (fed by the host input),
// the last cell the final stage (producing the host output).  A single
// machine yields the trivial one-cell plan.
func Partition(p *ir.Program, machines []*machine.Machine) (*Plan, error) {
	return PartitionContext(context.Background(), p, machines)
}

// PartitionContext is Partition bounded by ctx: the split search polls
// it once a candidate stage it costs and gives up with an error wrapping
// ctx.Err().  It refuses a list whose machines differ.
func PartitionContext(ctx context.Context, p *ir.Program, machines []*machine.Machine) (*Plan, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("partition: need at least one machine")
	}
	m := machines[0]
	for c, o := range machines[1:] {
		// Machines(m, n) repeats one pointer, so the fingerprint is
		// rarely needed.
		if o != m && o.Fingerprint() != m.Fingerprint() {
			return nil, fmt.Errorf("partition: cells 0 and %d are different machines (%s, %s); an array partitions across identical cells", c+1, m.Name, o.Name)
		}
	}
	if len(machines) == 1 {
		return trivialPlan(p, m)
	}
	pl, cuts, err := newPlanner(p, m, len(machines))
	if err != nil {
		return nil, err
	}
	split, estMII, err := pl.bestSplit(ctx, cuts)
	if err != nil {
		return nil, err
	}
	plan, err := pl.emit(split, estMII, cuts)
	if err != nil {
		return nil, err
	}
	plan.Stats = pl.stats
	return plan, nil
}

// newPlanner runs everything that precedes the split search for cells
// copies of m: shape check, body dependence graph, replicable-op
// classification, clustering and the cut candidates between clusters.
func newPlanner(p *ir.Program, m *machine.Machine, cells int) (*planner, []*cutValue, error) {
	sh, err := analyzeShape(p)
	if err != nil {
		return nil, nil, err
	}
	pl := &planner{p: p, cells: cells, sh: sh, mm: machineModel{m: m}}
	if err := pl.buildGraph(); err != nil {
		return nil, nil, err
	}
	pl.classify()
	if err := pl.cluster(); err != nil {
		return nil, nil, err
	}
	return pl, pl.cutCandidates(), nil
}

// trivialPlan wraps the whole program as a one-cell array.
func trivialPlan(p *ir.Program, m *machine.Machine) (*Plan, error) {
	plan := &Plan{
		Fragments:   []*ir.Program{p.Clone()},
		Machine:     m,
		ArrayOwner:  map[string]int{},
		ResultOwner: map[string]int{},
		EstMII:      []int{0},
		Stages:      [][]int{nil},
	}
	for _, a := range p.Arrays {
		plan.ArrayOwner[a.Name] = 0
	}
	for _, r := range p.Results {
		plan.ResultOwner[r.Name] = 0
	}
	return plan, nil
}

// buildGraph builds the body's nodes and dependence graph on the cell
// machine, and the nodes of a queue receive and send on some register
// (only their timing and reservations are read).  It refuses a machine
// lacking a unit the body or a queue op reserves: every stage holds some
// of the body and the queue ops its cuts add, so that check once spares
// costing each stage against it.
func (pl *planner) buildGraph() error {
	mm := &pl.mm
	mm.nodes = make([]*depgraph.Node, len(pl.sh.body))
	for i, o := range pl.sh.body {
		n, err := depgraph.NodeFromOp(mm.m, o)
		if err != nil {
			return fmt.Errorf("partition: %w", err)
		}
		n.Index = i
		mm.nodes[i] = n
	}
	var err error
	if mm.recv, err = depgraph.NodeFromOp(mm.m, &ir.Op{Class: machine.ClassRecv, Dst: 0}); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	if mm.send, err = depgraph.NodeFromOp(mm.m, &ir.Op{Class: machine.ClassSend, Dst: ir.NoReg, Src: []ir.VReg{0}}); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	if _, err := depgraph.ResourceMIIExtra(mm.nodes, mm.m, slices.Concat(mm.recv.Reservation, mm.send.Reservation)); err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	pl.g = depgraph.BuildIndep(mm.nodes, pl.sh.loop.ID, pl.sh.loop.Independent)
	pl.writers = map[ir.VReg][]int{}
	for i, o := range pl.sh.body {
		if o.Dst != ir.NoReg {
			pl.writers[o.Dst] = append(pl.writers[o.Dst], i)
		}
	}
	return nil
}

// classify marks the replicable integer ops: integer arithmetic whose
// inputs come only from other replicable ops (or from the replicated
// setup), and whose destination register is not also written by a
// stage-assigned op.  Fixpoint demotion keeps the set closed.
func (pl *planner) classify() {
	body := pl.sh.body
	pl.repl = make([]bool, len(body))
	for i, o := range body {
		pl.repl[i] = replicableClass(o.Class)
	}
	for changed := true; changed; {
		changed = false
		for i, o := range body {
			if !pl.repl[i] {
				continue
			}
			bad := false
			for _, r := range o.Src {
				for _, w := range pl.writers[r] {
					if !pl.repl[w] {
						bad = true
					}
				}
			}
			if o.Dst != ir.NoReg {
				for _, w := range pl.writers[o.Dst] {
					if !pl.repl[w] {
						bad = true
					}
				}
			}
			if bad {
				pl.repl[i] = false
				changed = true
			}
		}
	}
}

func (pl *planner) find(i int) int {
	for pl.uf[i] != i {
		pl.uf[i] = pl.uf[pl.uf[i]]
		i = pl.uf[i]
	}
	return i
}

func (pl *planner) union(a, b int) bool {
	ra, rb := pl.find(a), pl.find(b)
	if ra == rb {
		return false
	}
	pl.uf[ra] = rb
	return true
}

// clusterAdj contracts the body dependence graph over the current
// union-find roots: adj[root] lists, once each, the roots its cluster
// has omega=0 dependences to, between stage ops in different clusters.
func (pl *planner) clusterAdj(stage func(int) bool) [][]int {
	adj := make([][]int, len(pl.sh.body))
	for _, e := range pl.g.Edges {
		if e.Omega != 0 || !stage(e.From) || !stage(e.To) {
			continue
		}
		if rf, rt := pl.find(e.From), pl.find(e.To); rf != rt && !slices.Contains(adj[rf], rt) {
			adj[rf] = append(adj[rf], rt)
		}
	}
	return adj
}

// mergeClusterCycles unions every strongly connected component of the
// contracted cluster graph (Tarjan).  Components are unique, so one
// pass leaves the cluster graph acyclic.
func (pl *planner) mergeClusterCycles(stage func(int) bool) {
	n := len(pl.sh.body)
	var roots []int
	for i := 0; i < n; i++ {
		if stage(i) && pl.find(i) == i {
			roots = append(roots, i)
		}
	}
	adj := pl.clusterAdj(stage)
	index, low := make([]int, n), make([]int, n)
	for i := range index {
		index[i] = -1
	}
	onStack := make([]bool, n)
	var stack []int
	next := 0
	var strong func(v int)
	strong = func(v int) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] < 0 {
				strong(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				pl.union(v, w)
				if w == v {
					break
				}
			}
		}
	}
	for _, r := range roots {
		if index[r] < 0 {
			strong(r)
		}
	}
}

// cluster groups the stage-assigned ops into indivisible clusters and
// orders them so every omega=0 flow edge points forward:
//
//   - recurrences: every dependence edge with omega>0 between stage ops
//     stays within one cluster (cuts cannot carry values backward in
//     iteration space);
//   - memory ownership: all accesses to an array that is stored anywhere
//     stay on one cell (there is one authoritative copy);
//   - the program's own Recv ops form one cluster (pinned to cell 0,
//     which holds the host channel), Sends likewise to the last cell;
//   - register discipline: a value crossing a cut is the producer's
//     end-of-iteration value, so a consumer reading a register before its
//     last write — or any non-float value — must live with the writer.
func (pl *planner) cluster() error {
	body := pl.sh.body
	pl.uf = make([]int, len(body))
	for i := range pl.uf {
		pl.uf[i] = i
	}
	stage := func(i int) bool { return !pl.repl[i] }

	// Recurrences: omega>0 flow edges (a value crossing iterations) and
	// omega>0 memory edges (Reg == NoReg; same array touched across
	// iterations) between stage ops.  Register anti/output edges with
	// omega>0 are naming artifacts a cut dissolves — the consumer cell
	// keeps its own copy of the register, so the producer overwriting
	// its copy next iteration constrains nothing.
	for _, e := range pl.g.Edges {
		if e.Omega > 0 && stage(e.From) && stage(e.To) &&
			(e.Kind == depgraph.DepFlow || e.Reg == ir.NoReg) {
			pl.union(e.From, e.To)
		}
	}
	// One cluster per queue direction.
	firstRecv, firstSend := -1, -1
	for i, o := range body {
		switch o.Class {
		case machine.ClassRecv:
			if firstRecv < 0 {
				firstRecv = i
			}
			pl.union(firstRecv, i)
		case machine.ClassSend:
			if firstSend < 0 {
				firstSend = i
			}
			pl.union(firstSend, i)
		}
	}
	// Stored-array ownership.
	touches := map[string][]int{}
	stored := map[string]bool{}
	for i, o := range body {
		if o.Mem != nil {
			touches[o.Mem.Array] = append(touches[o.Mem.Array], i)
			if o.Class == machine.ClassStore {
				stored[o.Mem.Array] = true
			}
		}
	}
	for name := range stored {
		ops := touches[name]
		for _, i := range ops[1:] {
			pl.union(ops[0], i)
		}
	}
	// Register discipline + forward orderability, to fixpoint: merging
	// can introduce new violations of either rule.
	for {
		changed := false
		for r, ws := range pl.writers {
			var sw []int // stage writers
			for _, w := range ws {
				if stage(w) {
					sw = append(sw, w)
				}
			}
			if len(sw) == 0 {
				continue
			}
			for _, w := range sw[1:] {
				if pl.union(sw[0], w) {
					changed = true
				}
			}
			lastW := sw[len(sw)-1]
			isFloat := pl.p.Kind(r) == ir.KindFloat
			for i, o := range body {
				if !stage(i) || pl.find(i) == pl.find(sw[0]) {
					continue
				}
				reads := false
				for _, s := range o.Src {
					if s == r {
						reads = true
					}
				}
				if !reads {
					continue
				}
				// Cross-cluster read: legal only as a forward cut of the
				// end-of-iteration float value.
				if !isFloat || i < lastW {
					if pl.union(i, sw[0]) {
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	// Cluster-level cycles: a cut can only separate two clusters when
	// every dependence between them points one way, so contract the
	// clusters and union each strongly connected component of the
	// contracted graph (e.g. the load and store of an owned array
	// sandwiching a compute chain that reads the load and feeds the
	// store).
	pl.mergeClusterCycles(stage)

	// Materialize clusters in topological order of the (now acyclic)
	// cluster graph, breaking ties by first op position so the order is
	// deterministic and as close to program order as the deps allow.
	// byRoot[r] lists root r's ops in program order; order holds the
	// roots by first op.
	byRoot := make([][]int, len(body))
	var order []int
	for i := range body {
		if !stage(i) {
			continue
		}
		r := pl.find(i)
		if byRoot[r] == nil {
			order = append(order, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	if len(order) == 0 {
		return fmt.Errorf("partition: loop body has no partitionable operations")
	}
	adj := pl.clusterAdj(stage)
	indeg := make([]int, len(body))
	for _, outs := range adj {
		for _, t := range outs {
			indeg[t]++
		}
	}
	pl.clusterOf = make([]int, len(body))
	for i := range pl.clusterOf {
		pl.clusterOf[i] = -1
	}
	pl.recvCluster, pl.sendCluster = -1, -1
	done := make([]bool, len(body))
	for ci := range order {
		best := -1
		for _, r := range order {
			if !done[r] && indeg[r] == 0 {
				best = r
				break
			}
		}
		if best < 0 {
			return fmt.Errorf("partition: internal error: cluster graph is cyclic")
		}
		done[best] = true
		for _, t := range adj[best] {
			indeg[t]--
		}
		ops := byRoot[best]
		pl.clusters = append(pl.clusters, ops)
		for _, i := range ops {
			pl.clusterOf[i] = ci
		}
		if firstRecv >= 0 && pl.find(firstRecv) == best {
			pl.recvCluster = ci
		}
		if firstSend >= 0 && pl.find(firstSend) == best {
			pl.sendCluster = ci
		}
	}
	return nil
}

// cutCandidates enumerates the register values that may cross stage
// boundaries: float registers written by one cluster and read by later
// clusters (after the last write, guaranteed by the cluster pass).
// prodStage/lastConsum are filled in per split; here they hold cluster
// indices.
func (pl *planner) cutCandidates() []*cutValue {
	body := pl.sh.body
	seen := map[ir.VReg]*cutValue{}
	var cuts []*cutValue
	for i, o := range body {
		if pl.clusterOf[i] < 0 {
			continue
		}
		for _, r := range o.Src {
			sw := pl.stageWriters(r)
			if len(sw) == 0 {
				continue
			}
			prodCl := pl.clusterOf[sw[len(sw)-1]]
			if prodCl == pl.clusterOf[i] {
				continue
			}
			cv := seen[r]
			if cv == nil {
				cv = &cutValue{reg: r, prodPos: sw[len(sw)-1], firstPos: sw[0], prodStage: prodCl, lastConsum: pl.clusterOf[i]}
				seen[r] = cv
				cuts = append(cuts, cv)
			}
			if k := len(cv.readers) - 1; k < 0 || cv.readers[k] != i {
				cv.readers = append(cv.readers, i)
			}
			if pl.clusterOf[i] > cv.lastConsum {
				cv.lastConsum = pl.clusterOf[i]
			}
		}
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a].prodPos < cuts[b].prodPos })
	return cuts
}

func (pl *planner) stageWriters(r ir.VReg) []int {
	var sw []int
	for _, w := range pl.writers[r] {
		if !pl.repl[w] {
			sw = append(sw, w)
		}
	}
	return sw
}

// channelWidth counts the values crossing the boundary before cluster b
// (producer cluster < b, last consumer cluster >= b).
func channelWidth(cuts []*cutValue, b int) int {
	n := 0
	for _, c := range cuts {
		if c.prodStage < b && c.lastConsum >= b {
			n++
		}
	}
	return n
}
