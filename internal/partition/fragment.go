package partition

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"softpipe/internal/depgraph"
	"softpipe/internal/ir"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
)

// replClosure grows inSet with every replicable body op (transitively)
// defining a needed register, updating needed with their sources.
func (pl *planner) replClosure(needed map[ir.VReg]bool, inSet map[int]bool) {
	for changed := true; changed; {
		changed = false
		for pos, o := range pl.sh.body {
			if !pl.repl[pos] || inSet[pos] || o.Dst == ir.NoReg || !needed[o.Dst] {
				continue
			}
			inSet[pos] = true
			for _, r := range o.Src {
				if !needed[r] {
					needed[r] = true
				}
			}
			changed = true
		}
	}
}

// machineModel is what the split search knows about the cell machine,
// built once however many stages and intervals it is tried on.
type machineModel struct {
	m *machine.Machine
	// nodes[pos] is the scheduling node of body op pos on m; recv and
	// send are the nodes of a queue receive and send.
	nodes      []*depgraph.Node
	recv, send *depgraph.Node
	// out[pos] lists the dependences of the body graph on m that leave
	// body op pos, endpoints as body positions.  A stage's graph is the
	// subgraph this graph induces on the stage's ops, plus the edges of
	// the queue ops its cuts add: a stage that holds one writer of a
	// register holds them all (cluster and replClosure see to it), so no
	// edge between two of its ops depends on an op it does not hold.
	out [][]depgraph.Edge
	// use[c][r] counts the reservations of resource r by the stage ops of
	// clusters [0, c): a prefix sum, so any interval's resource pressure
	// is one subtraction per resource.
	use [][]int
	// memo caches stage costs by cluster interval [i..j] at i·C+j, so
	// each interval is evaluated once, not once per stage; 0 is an
	// interval not evaluated yet (an MII is at least 1).
	memo []int
}

// costScratch is stageCost's working storage, kept between evaluations
// so that costing an interval allocates nothing once it has grown.
type costScratch struct {
	local        []int // body position -> node number in the stage graph, -1 outside it
	members      []int // the stage's body positions, in program order
	recvs, sends []*cutValue
	queue        []int // node numbers of one queue's accessors
	uses         []int
	edges        []depgraph.Edge
	rec          depgraph.Recurrence
}

// prepareSplit builds the tables the split search reads for every
// candidate but that depend on no candidate: each cluster's op positions
// closed over the replicable integer ops they need (the closure of a
// union of clusters is the union of their closures), and the machine
// model's edge lists, resource-use prefix sums and memo.
func (pl *planner) prepareSplit() {
	body := pl.sh.body
	pl.closed = make([][]int, len(pl.clusters))
	for c, ops := range pl.clusters {
		inSet := map[int]bool{}
		needed := map[ir.VReg]bool{}
		for _, pos := range ops {
			inSet[pos] = true
			for _, r := range body[pos].Src {
				needed[r] = true
			}
		}
		pl.replClosure(needed, inSet)
		for pos := range body {
			if inSet[pos] {
				pl.closed[c] = append(pl.closed[c], pos)
			}
		}
	}
	for pos, o := range body {
		switch o.Class {
		case machine.ClassRecv:
			pl.recvOps = append(pl.recvOps, pos)
		case machine.ClassSend:
			pl.sendOps = append(pl.sendOps, pos)
		}
	}
	sc := &pl.scratch
	sc.local = make([]int, len(body))
	for pos := range sc.local {
		sc.local[pos] = -1
	}
	mm := &pl.mm
	sc.uses = make([]int, len(mm.m.ResourceCount))
	mm.memo = make([]int, len(pl.clusters)*len(pl.clusters))

	// The edges grouped by source, in one array.
	count := make([]int, len(body)+1)
	for _, e := range pl.g.Edges {
		count[e.From+1]++
	}
	for pos := range body {
		count[pos+1] += count[pos]
	}
	all := make([]depgraph.Edge, len(pl.g.Edges))
	mm.out = make([][]depgraph.Edge, len(body))
	for pos := range body {
		mm.out[pos] = all[count[pos]:count[pos]:count[pos+1]]
	}
	for _, e := range pl.g.Edges {
		mm.out[e.From] = append(mm.out[e.From], e)
	}

	mm.use = make([][]int, len(pl.clusters)+1)
	mm.use[0] = make([]int, len(mm.m.ResourceCount))
	for c, ops := range pl.clusters {
		row := append([]int(nil), mm.use[c]...)
		for _, pos := range ops {
			for _, u := range mm.nodes[pos].Reservation {
				row[u.Resource]++
			}
		}
		mm.use[c+1] = row
	}
}

// resourceFloor is a lower bound on stageCost(i, j) that needs no graph:
// the resource MII of the interval's stage ops alone.  The replicated
// integer ops and queue ops the real stage adds only raise it.
func (mm *machineModel) resourceFloor(i, j int) int {
	floor := 1
	for r, units := range mm.m.ResourceCount {
		if uses := mm.use[j+1][r] - mm.use[i][r]; uses > floor*units {
			floor = (uses + units - 1) / units
		}
	}
	return floor
}

// stageCost estimates the MII of the fragment a stage covering clusters
// [i..j] would compile to on the cell machine: the resource and recurrence
// bounds of the dependence graph depgraph.BuildIndep would build for its
// body ops — stage ops plus the replicable integer closure they need —
// and for the queue receives/sends the cut inserts (cut values entering
// and leaving, pass-through forwards included), so queue-port pressure
// and the Recv latency participate in the balance, not just the float
// work.  The graph is not built: its edges are those mm's body graph
// induces on the stage's ops plus the queue ops' own, gathered in the
// planner's scratch, and the recurrence bound is searched from the
// resource bound up.  No stage lacks a unit (newPlanner refuses such a
// machine), so it fails only as the recurrence bound does: once ctx is
// done, or on a cycle at distance zero, which the stage graph's forward
// distance-0 edges never close.
func (pl *planner) stageCost(ctx context.Context, i, j int, cuts []*cutValue) (int, error) {
	sc, mm := &pl.scratch, &pl.mm
	recvs, sends := sc.recvs[:0], sc.sends[:0]
	for _, cv := range cuts {
		if cv.prodStage < i && cv.lastConsum >= i {
			recvs = append(recvs, cv)
		}
		if cv.prodStage <= j && cv.lastConsum > j {
			sends = append(sends, cv)
		}
	}
	// Node numbers as BuildIndep gives them: receives, the body ops in
	// program order, sends.
	local := sc.local
	for _, pos := range sc.members {
		local[pos] = -1
	}
	for c := i; c <= j; c++ {
		for _, pos := range pl.closed[c] {
			local[pos] = 0
		}
	}
	members := sc.members[:0]
	for pos, l := range local {
		if l >= 0 {
			local[pos] = len(recvs) + len(members)
			members = append(members, pos)
		}
	}
	sc.recvs, sc.sends, sc.members = recvs, sends, members

	// The resource bound (depgraph.ResourceMIIExtra).
	uses := sc.uses[:len(mm.m.ResourceCount)]
	clear(uses)
	for _, pos := range members {
		for _, u := range mm.nodes[pos].Reservation {
			uses[u.Resource]++
		}
	}
	if len(recvs) > 0 {
		for _, u := range mm.recv.Reservation {
			uses[u.Resource] += len(recvs)
		}
	}
	if len(sends) > 0 {
		for _, u := range mm.send.Reservation {
			uses[u.Resource] += len(sends)
		}
	}
	res := 1
	for r, n := range uses {
		if n > 0 {
			units := mm.m.ResourceCount[r]
			res = max(res, (n+units-1)/units)
		}
	}

	// The edges: the induced subgraph, then the queue ops' register
	// dependences as regDepsFor draws them for a register a receive
	// writes or a send reads, then their queue-order dependences.
	edges := sc.edges[:0]
	for _, pos := range members {
		for _, e := range mm.out[pos] {
			if to := local[e.To]; to >= 0 {
				e.From, e.To = local[pos], to
				edges = append(edges, e)
			}
		}
	}
	firstSend := len(recvs) + len(members)
	w := mm.recv.Writes[0]
	for q, cv := range recvs {
		// A received value is read by body ops in the stage and by a
		// forwarding send, all after the receive: flow to each read, anti
		// from it to the next iteration's receive, output to that receive.
		reader := func(to int, rd depgraph.RegRead) {
			edges = append(edges,
				depgraph.Edge{From: q, To: to, Kind: depgraph.DepFlow, Reg: cv.reg, Delay: w.AvailLast - rd.First},
				depgraph.Edge{From: to, To: q, Kind: depgraph.DepAnti, Reg: cv.reg, Omega: 1, Delay: rd.Last + 1 - w.AvailFirst})
		}
		for _, pos := range cv.readers {
			if l := local[pos]; l >= 0 {
				reader(l, readOf(mm.nodes[pos], cv.reg))
			}
		}
		if t := slices.Index(sends, cv); t >= 0 {
			reader(firstSend+t, mm.send.Reads[0])
		}
		edges = append(edges, depgraph.Edge{From: q, To: q, Kind: depgraph.DepOutput, Reg: cv.reg, Omega: 1, Delay: w.AvailLast + 1 - w.AvailFirst})
	}
	rd := mm.send.Reads[0]
	for t, cv := range sends {
		if cv.prodStage < i {
			continue // forwarded: drawn with its receive
		}
		// Every writer is in the stage and every write kills, so the send
		// reads the last write and the next iteration's first write must
		// wait for it.
		lastW, firstW := mm.nodes[cv.prodPos].Writes[0], mm.nodes[cv.firstPos].Writes[0]
		edges = append(edges,
			depgraph.Edge{From: local[cv.prodPos], To: firstSend + t, Kind: depgraph.DepFlow, Reg: cv.reg, Delay: lastW.AvailLast - rd.First},
			depgraph.Edge{From: firstSend + t, To: local[cv.firstPos], Kind: depgraph.DepAnti, Reg: cv.reg, Omega: 1, Delay: rd.Last + 1 - firstW.AvailFirst})
	}
	synthetic := func(n int) bool { return n < len(recvs) || n >= firstSend }
	queue := sc.queue[:0]
	for q := range recvs {
		queue = append(queue, q)
	}
	for _, pos := range pl.recvOps {
		if l := local[pos]; l >= 0 {
			queue = append(queue, l)
		}
	}
	edges = queueEdges(edges, queue, synthetic, pl.sh.loop.Independent)
	queue = queue[:0]
	for _, pos := range pl.sendOps {
		if l := local[pos]; l >= 0 {
			queue = append(queue, l)
		}
	}
	for t := range sends {
		queue = append(queue, firstSend+t)
	}
	edges = queueEdges(edges, queue, synthetic, pl.sh.loop.Independent)
	sc.edges, sc.queue = edges, queue
	return sc.rec.MIIFrom(ctx, firstSend+len(sends), edges, res)
}

// readOf is n's read of register r.
func readOf(n *depgraph.Node, r ir.VReg) depgraph.RegRead {
	for _, rd := range n.Reads {
		if rd.Reg == r {
			return rd
		}
	}
	panic(fmt.Sprintf("partition: %v does not read %v", n, r))
}

// queueEdges appends the memory dependences BuildIndep draws between the
// accessors of one queue (node numbers in order) that involve a
// synthetic queue op; those between two body ops are in the body graph.
// Every access of a queue stores to it: each ordered pair is an output
// dependence of delay 1, at distance 0 forward and 1 backward (dropped
// in an `independent` loop).
func queueEdges(edges []depgraph.Edge, acc []int, synthetic func(int) bool, independent bool) []depgraph.Edge {
	for a, from := range acc {
		for b, to := range acc {
			if a == b || !synthetic(from) && !synthetic(to) || independent && b < a {
				continue
			}
			edges = append(edges, depgraph.Edge{From: from, To: to, Kind: depgraph.DepMemOutput, Reg: ir.NoReg, Omega: btoi(b < a), Delay: 1})
		}
	}
	return edges
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// bestSplit balances the stages: dynamic programming over contiguous
// splits of the topologically ordered clusters, minimizing the maximum
// per-stage MII (the array throughput bound), subject to the pinning
// constraints (host receives on cell 0, host sends on the last cell) and
// the queue capacity (a cut wider than the 512-word channel cannot even
// hold one iteration's values).
//
// dp[s][j] is the best bottleneck of clusters [0..j] on cells [0..s];
// a candidate first cluster i of stage s yields max(dp[s-1][i-1],
// cost(i, j)).  A candidate whose dp[s-1][i-1] — or whose graph-free
// resource floor — already reaches the incumbent dp[s][j] cannot win the
// strict comparison, so its stage is never costed.
func (pl *planner) bestSplit(ctx context.Context, cuts []*cutValue) (ends []int, estMII []int, err error) {
	C, N := len(pl.clusters), pl.cells
	if C < N {
		return nil, nil, fmt.Errorf("partition: program decomposes into only %d pipeline stage(s); cannot fill %d cells", C, N)
	}
	pl.prepareSplit()
	pl.stats.Clusters = C
	const inf = math.MaxInt / 2
	memo := pl.mm.memo
	// cost fails when stageCost does or ctx is done, which it polls once
	// an evaluation (and the recurrence bound once a relaxation pass).
	cost := func(i, j int) (int, error) {
		b := &memo[i*C+j]
		if *b == 0 {
			pl.stats.CostEvals++
			mii, err := pl.stageCost(ctx, i, j, cuts)
			if cerr := ctx.Err(); cerr != nil {
				return 0, fmt.Errorf("partition: split search aborted: %w", cerr)
			}
			if err != nil {
				return 0, fmt.Errorf("partition: %w", err)
			}
			*b = mii
		}
		return *b, nil
	}
	// fits[b]: the channel entering cluster b fits one iteration's values
	// in the 512-word queue.
	fits := make([]bool, C)
	for b := range fits {
		fits[b] = channelWidth(cuts, b) <= sim.QueueCapacity
	}

	dp := make([][]int, N)
	choice := make([][]int, N)
	for s := range dp {
		dp[s] = make([]int, C)
		choice[s] = make([]int, C)
		for j := range dp[s] {
			dp[s][j] = inf
			choice[s][j] = -1
		}
	}
	for j := 0; j <= C-N; j++ {
		if pl.recvCluster >= 0 && j < pl.recvCluster {
			continue // host receives must land on cell 0
		}
		if pl.sendCluster >= 0 && j >= pl.sendCluster {
			continue // host sends must land on the last cell
		}
		if dp[0][j], err = cost(0, j); err != nil {
			return nil, nil, err
		}
	}
	for s := 1; s < N; s++ {
		for j := s; j < C; j++ {
			if s < N-1 {
				if j > C-1-(N-1-s) {
					continue // not enough clusters left for later stages
				}
				if pl.sendCluster >= 0 && j >= pl.sendCluster {
					continue
				}
			} else if j != C-1 {
				continue
			}
			for i := s; i <= j; i++ {
				v := dp[s-1][i-1]
				if v >= inf || !fits[i] {
					continue
				}
				if v >= dp[s][j] || pl.mm.resourceFloor(i, j) >= dp[s][j] {
					pl.stats.CostSkipped++
					continue
				}
				c, err := cost(i, j)
				if err != nil {
					return nil, nil, err
				}
				if v = max(v, c); v < dp[s][j] {
					dp[s][j] = v
					choice[s][j] = i
				}
			}
		}
	}
	if dp[N-1][C-1] >= inf {
		return nil, nil, fmt.Errorf("partition: no feasible %d-cell split (pinning or queue-capacity constraints unsatisfiable)", N)
	}
	ends = make([]int, N)
	ends[N-1] = C - 1
	for s := N - 1; s > 0; s-- {
		ends[s-1] = choice[s][ends[s]] - 1
	}
	estMII = make([]int, N)
	start := 0
	for s := 0; s < N; s++ {
		estMII[s] = memo[start*C+ends[s]]
		start = ends[s] + 1
	}
	return ends, estMII, nil
}

// stageCut is a cut value re-keyed from cluster indices to the stage
// indices of a chosen split.
type stageCut struct {
	cv         *cutValue
	prod, last int
}

// emit materializes the chosen split as per-cell programs.
func (pl *planner) emit(ends []int, estMII []int, cuts []*cutValue) (*Plan, error) {
	N := pl.cells
	stageOfCluster := make([]int, len(pl.clusters))
	s := 0
	for ci := range pl.clusters {
		if ci > ends[s] {
			s++
		}
		stageOfCluster[ci] = s
	}
	// Re-key the cuts from cluster indices to stage indices; cuts that
	// collapsed into one stage vanish.
	var live []*stageCut
	for _, cv := range cuts {
		sc := &stageCut{cv: cv, prod: stageOfCluster[cv.prodStage], last: stageOfCluster[cv.lastConsum]}
		if sc.prod != sc.last {
			live = append(live, sc)
		}
	}

	// Post-loop tail ops run on the single cell that computes every stage
	// value they read.
	tailStage := N - 1
	tailStages := map[int]bool{}
	for _, o := range pl.sh.tail {
		for _, r := range o.Src {
			for _, w := range pl.stageWriters(r) {
				tailStages[stageOfCluster[pl.clusterOf[w]]] = true
			}
		}
	}
	if len(tailStages) > 1 {
		return nil, fmt.Errorf("partition: post-loop code reads values from %d different stages", len(tailStages))
	}
	for st := range tailStages {
		tailStage = st
	}

	// Scalar results live where their final value is computed.
	tailWrites := map[ir.VReg]bool{}
	for _, o := range pl.sh.tail {
		if o.Dst != ir.NoReg {
			tailWrites[o.Dst] = true
		}
	}
	resultOwner := map[string]int{}
	resultNeeds := make([]map[ir.VReg]bool, N)
	for i := range resultNeeds {
		resultNeeds[i] = map[ir.VReg]bool{}
	}
	for _, res := range pl.p.Results {
		owner := 0
		switch {
		case tailWrites[res.Reg]:
			owner = tailStage
		default:
			if sw := pl.stageWriters(res.Reg); len(sw) > 0 {
				owner = stageOfCluster[pl.clusterOf[sw[len(sw)-1]]]
			}
		}
		resultOwner[res.Name] = owner
		resultNeeds[owner][res.Reg] = true
	}

	plan := &Plan{
		Machine:     pl.mm.m,
		ArrayOwner:  map[string]int{},
		ResultOwner: resultOwner,
		EstMII:      estMII,
		Stages:      make([][]int, N),
	}
	start := 0
	for s := 0; s < N; s++ {
		frag, stagePos, err := pl.emitStage(s, start, ends[s], live, tailStage, resultNeeds[s], resultOwner)
		if err != nil {
			return nil, err
		}
		plan.Fragments = append(plan.Fragments, frag)
		for _, pos := range stagePos {
			plan.Stages[s] = append(plan.Stages[s], pl.sh.body[pos].ID)
		}
		start = ends[s] + 1
	}
	for s := 0; s < N-1; s++ {
		w := 0
		for _, sc := range live {
			if sc.prod <= s && sc.last > s {
				w++
			}
		}
		plan.CutWidths = append(plan.CutWidths, w)
	}

	// Array ownership: the storing cell owns a stored array; a read-only
	// array is owned by its lowest replica; untouched arrays ride on cell
	// 0 so the verifier always finds an owner copy.
	for _, a := range pl.p.Arrays {
		owner := -1
		for i, o := range pl.sh.body {
			if o.Class == machine.ClassStore && o.Mem != nil && o.Mem.Array == a.Name {
				owner = stageOfCluster[pl.clusterOf[i]]
				break
			}
		}
		if owner < 0 {
			for s := 0; s < N; s++ {
				if plan.Fragments[s].Array(a.Name) != nil {
					owner = s
					break
				}
			}
		}
		if owner < 0 {
			owner = 0
			ad := plan.Fragments[0].AddArray(a.Name, a.Kind, a.Size)
			ad.InitF = append([]float64(nil), a.InitF...)
			ad.InitI = append([]int64(nil), a.InitI...)
		}
		plan.ArrayOwner[a.Name] = owner
	}
	return plan, nil
}

// emitStage builds the program for one cell: replicated setup, the loop
// with receives at the top and sends at the bottom of each iteration, the
// tail when this cell owns it, and the cell's scalar results.  It returns
// the fragment and the body positions of its stage-assigned ops.
func (pl *planner) emitStage(s, ci0, ci1 int, live []*stageCut, tailStage int, extraNeeds map[ir.VReg]bool, resultOwner map[string]int) (*ir.Program, []int, error) {
	sh := pl.sh
	var ins, outs []*stageCut
	for _, sc := range live {
		if sc.prod < s && sc.last >= s {
			ins = append(ins, sc)
		}
		if sc.prod <= s && sc.last > s {
			outs = append(outs, sc)
		}
	}

	inSet := map[int]bool{}
	needed := map[ir.VReg]bool{}
	var stagePos []int
	for ci := ci0; ci <= ci1; ci++ {
		for _, pos := range pl.clusters[ci] {
			inSet[pos] = true
			stagePos = append(stagePos, pos)
			for _, r := range sh.body[pos].Src {
				needed[r] = true
			}
		}
	}
	sort.Ints(stagePos)
	if s == tailStage {
		for _, o := range sh.tail {
			for _, r := range o.Src {
				needed[r] = true
			}
		}
	}
	for r := range extraNeeds {
		needed[r] = true
	}
	if sh.loop.CountReg != ir.NoReg {
		needed[sh.loop.CountReg] = true
	}
	pl.replClosure(needed, inSet)

	// Setup closure, backwards: defs precede uses, so one reverse pass
	// pulls in exactly the setup slice this cell needs.
	inclSetup := make([]bool, len(sh.setup))
	for k := len(sh.setup) - 1; k >= 0; k-- {
		o := sh.setup[k]
		if o.Dst != ir.NoReg && needed[o.Dst] {
			inclSetup[k] = true
			for _, r := range o.Src {
				needed[r] = true
			}
		}
	}

	f := ir.NewProgram(fmt.Sprintf("%s.cell%d", pl.p.Name, s))
	regMap := map[ir.VReg]ir.VReg{}
	mapReg := func(r ir.VReg) ir.VReg {
		if nr, ok := regMap[r]; ok {
			return nr
		}
		nr := f.NewReg(pl.p.Kind(r))
		regMap[r] = nr
		return nr
	}
	cloneOp := func(o *ir.Op) *ir.Op {
		c := f.NewOp(o.Class)
		if o.Dst != ir.NoReg {
			c.Dst = mapReg(o.Dst)
		}
		for _, r := range o.Src {
			c.Src = append(c.Src, mapReg(r))
		}
		c.FImm, c.IImm = o.FImm, o.IImm
		if o.Mem != nil {
			mm := &ir.MemRef{Array: o.Mem.Array, Disp: o.Mem.Disp}
			if o.Mem.Affine != nil {
				aff := o.Mem.Affine.Clone()
				if len(aff.Inv) > 0 {
					inv := make(map[ir.VReg]int64, len(aff.Inv))
					for r, coef := range aff.Inv {
						inv[mapReg(r)] = coef
					}
					aff.Inv = inv
				}
				mm.Affine = aff
			}
			c.Mem = mm
		}
		if o.Mem != nil {
			pl.copyArray(f, o.Mem.Array)
		}
		return c
	}

	for k, o := range sh.setup {
		if inclSetup[k] {
			f.Body.Stmts = append(f.Body.Stmts, &ir.OpStmt{Op: cloneOp(o)})
		}
	}

	// Preserve the source loop ID so the cloned affine address forms
	// (keyed by loop ID) stay meaningful inside the fragment.
	for {
		if f.NewLoopID() == sh.loop.ID {
			break
		}
	}
	nl := &ir.LoopStmt{
		ID:          sh.loop.ID,
		CountImm:    sh.loop.CountImm,
		CountReg:    ir.NoReg,
		NoPipeline:  sh.loop.NoPipeline,
		Independent: sh.loop.Independent,
		ForceUnroll: sh.loop.ForceUnroll,
		Body:        &ir.Block{},
	}
	if sh.loop.CountReg != ir.NoReg {
		nl.CountReg = mapReg(sh.loop.CountReg)
	}
	for _, sc := range ins {
		recv := f.NewOp(machine.ClassRecv)
		recv.Dst = mapReg(sc.cv.reg)
		nl.Body.Stmts = append(nl.Body.Stmts, &ir.OpStmt{Op: recv})
	}
	for pos := range sh.body {
		if inSet[pos] {
			nl.Body.Stmts = append(nl.Body.Stmts, &ir.OpStmt{Op: cloneOp(sh.body[pos])})
		}
	}
	for _, sc := range outs {
		send := f.NewOp(machine.ClassSend)
		send.Src = []ir.VReg{mapReg(sc.cv.reg)}
		nl.Body.Stmts = append(nl.Body.Stmts, &ir.OpStmt{Op: send})
	}
	f.Body.Stmts = append(f.Body.Stmts, nl)

	if s == tailStage {
		for _, o := range sh.tail {
			f.Body.Stmts = append(f.Body.Stmts, &ir.OpStmt{Op: cloneOp(o)})
		}
	}
	for _, res := range pl.p.Results {
		if resultOwner[res.Name] == s {
			f.Results = append(f.Results, ir.ScalarResult{Name: res.Name, Reg: mapReg(res.Reg)})
		}
	}
	if err := f.Validate(pl.mm.m); err != nil {
		return nil, nil, fmt.Errorf("partition: fragment for cell %d invalid: %w", s, err)
	}
	return f, stagePos, nil
}

// copyArray replicates a source array declaration (with initial contents)
// into a fragment, once.
func (pl *planner) copyArray(f *ir.Program, name string) {
	if f.Array(name) != nil {
		return
	}
	a := pl.p.Array(name)
	if a == nil {
		return
	}
	ad := f.AddArray(a.Name, a.Kind, a.Size)
	ad.InitF = append([]float64(nil), a.InitF...)
	ad.InitI = append([]int64(nil), a.InitI...)
}
