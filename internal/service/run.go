package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"softpipe"
	"softpipe/internal/cache"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
)

// RunRequest is the body of POST /run.  Provide either Source (compiled
// through the same cache as /compile) or Key (the content address a
// previous /compile returned; 404 if it has left the cache).
type RunRequest struct {
	Source  string         `json:"source,omitempty"`
	Key     string         `json:"key,omitempty"`
	Machine string         `json:"machine,omitempty"`
	Options CompileOptions `json:"options,omitempty"`
	// Cells > 1 runs the program on a homogeneous linear array of that
	// many cells, with Input preloaded on the first cell's channel.
	Cells int       `json:"cells,omitempty"`
	Input []float64 `json:"input,omitempty"`
	// Partition, with Cells > 1, auto-partitions the program across the
	// cells (one pipeline-stage fragment per cell wired by queue cuts,
	// see internal/partition) instead of replicating it.  Requires
	// Source: a cached single-cell artifact cannot be re-cut.  Per-cell
	// II and stall statistics land in RunResponse.CellStats.
	Partition bool `json:"partition,omitempty"`
	// Engine is accepted and ignored: every run takes the one simulator
	// path.  It is kept because the frozen benchmark module sends it and
	// unknown fields are refused; ROADMAP item 3c deletes it.
	Engine string `json:"engine,omitempty"`
	// Batch > 0 runs the program on that many independent single-cell
	// lanes over one compiled artifact (struct-of-arrays arenas, build
	// cost amortized across all lanes).  Requires Cells <= 1; per-lane
	// outcomes land in RunResponse.Lanes.
	Batch int `json:"batch,omitempty"`
	// BatchInputs optionally gives per-lane input tapes; when longer
	// than Batch it sets the lane count.
	BatchInputs [][]float64 `json:"batch_inputs,omitempty"`
	// TimeoutMS bounds compile + simulation together.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JSONFloat is a float64 that survives JSON round-trips even when
// non-finite: NaN and ±Inf (which encoding/json rejects outright) marshal
// as the strings "NaN", "Inf", "-Inf".  Simulated programs legitimately
// produce them (a Planckian kernel on zero-filled inputs divides 0/0),
// and a run that computed NaN must still answer 200 with the state it
// computed.
type JSONFloat float64

func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	var v float64
	if err := json.Unmarshal(b, &v); err == nil {
		*f = JSONFloat(v)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("bad float %s", b)
	}
	switch s {
	case "NaN":
		*f = JSONFloat(math.NaN())
	case "Inf":
		*f = JSONFloat(math.Inf(1))
	case "-Inf":
		*f = JSONFloat(math.Inf(-1))
	default:
		return fmt.Errorf("bad float %q", s)
	}
	return nil
}

func toJSONFloats(vs []float64) []JSONFloat {
	if vs == nil {
		return nil
	}
	out := make([]JSONFloat, len(vs))
	for i, v := range vs {
		out[i] = JSONFloat(v)
	}
	return out
}

func toJSONScalars(m map[string]float64) map[string]JSONFloat {
	if m == nil {
		return nil
	}
	out := make(map[string]JSONFloat, len(m))
	for k, v := range m {
		out[k] = JSONFloat(v)
	}
	return out
}

// LaneResponse is one batch lane's outcome.  A fault in one lane does
// not fail the request; it lands in that lane's Error.
type LaneResponse struct {
	Cycles  int64                `json:"cycles"`
	Flops   int64                `json:"flops"`
	Scalars map[string]JSONFloat `json:"scalars,omitempty"`
	Error   string               `json:"error,omitempty"`
}

// CellRunStats is one cell's row in a partitioned array run: the
// scheduled initiation interval of its fragment plus the runtime
// counters showing whether the partition is balanced.
type CellRunStats struct {
	Cell int `json:"cell"`
	// II is the fragment's scheduled initiation interval; the slowest
	// cell paces the whole array.
	II int `json:"ii"`
	// EstMII is the planner's pre-schedule balance estimate.
	EstMII int `json:"est_mii,omitempty"`
	// StallCycles counts global cycles the cell spent blocked on a queue
	// operation; MaxInQueue is the input queue's high-water occupancy.
	StallCycles int64 `json:"stall_cycles"`
	MaxInQueue  int   `json:"max_in_queue"`
}

// RunResponse is the body of a successful POST /run.
type RunResponse struct {
	Key    string  `json:"key"`
	Cached bool    `json:"cached"`
	Cycles int64   `json:"cycles"`
	Flops  int64   `json:"flops"`
	MFLOPS float64 `json:"mflops"`
	// Scalars is the program's observable scalar state; Output is the
	// stream the last cell sent to the host (array runs only).
	Scalars map[string]JSONFloat `json:"scalars,omitempty"`
	Output  []JSONFloat          `json:"output,omitempty"`
	// Batch mode: per-lane outcomes plus aggregate simulation
	// throughput (completed lanes per wall-clock second, the number the
	// load harness asserts on).  Cycles/Flops above are lane totals.
	Lanes           []LaneResponse `json:"lanes,omitempty"`
	BatchRunsPerSec float64        `json:"batch_runs_per_sec,omitempty"`
	// Partitioned runs: per-cell schedule and stall statistics, plus the
	// values-per-iteration width of each inter-cell queue cut.
	CellStats []CellRunStats `json:"cell_stats,omitempty"`
	CutWidths []int          `json:"cut_widths,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

// Bounds on what one /run may ask the simulator to allocate: cells and
// batch lanes come straight from the request body and size the array and
// arena allocations, so they are capped like a sweep's grid.
const (
	maxRunCells = 64
	maxRunBatch = 1024
)

// validate checks everything about a run request that needs only the
// request: the cell and lane bounds, and which modes combine.  It returns
// the batch lane count.
func (req *RunRequest) validate() (lanes int, err error) {
	lanes = max(req.Batch, len(req.BatchInputs))
	switch {
	case req.Cells > maxRunCells:
		err = fmt.Errorf("cells %d exceeds the limit of %d", req.Cells, maxRunCells)
	case lanes > maxRunBatch:
		err = fmt.Errorf("batch of %d lanes exceeds the limit of %d", lanes, maxRunBatch)
	case req.Partition && req.Cells < 2:
		err = errors.New("partition needs cells >= 2")
	case req.Partition && lanes > 0:
		err = errors.New("partition and batch modes are exclusive")
	case req.Partition && req.Source == "":
		err = errors.New("partitioned runs need source (a single-cell artifact key cannot be re-cut)")
	case lanes > 0 && req.Cells > 1:
		err = errors.New("batch mode is single-cell: cells must be <= 1")
	case req.Source == "" && req.Key == "":
		err = errors.New("run request needs source or key")
	}
	return lanes, err
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var req RunRequest
	if err := decodeJSON(r, &req, maxRequestBytes); err != nil {
		s.writeRequestError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()

	// Everything that needs only the request is checked before anything
	// compiles, so a malformed request never costs a compile or fills the
	// cache.
	lanes, err := req.validate()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if req.Partition {
		s.handleRunPartitioned(ctx, w, &req, t0)
		return
	}

	e, hit, err := s.entryFor(ctx, &req)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	prog, err := e.program()
	if err != nil {
		s.writeRequestError(w, err)
		return
	}

	resp := RunResponse{Key: e.key.String(), Cached: hit}
	switch {
	case lanes > 0:
		ls := make([]sim.Lane, lanes)
		for i := range ls {
			if i < len(req.BatchInputs) {
				ls[i].InputTape = req.BatchInputs[i]
			} else {
				ls[i].InputTape = req.Input
			}
		}
		batch := sim.NewBatch(prog, ls)
		t1 := time.Now()
		results, err := batch.Run(ctx)
		if err != nil {
			s.writeRequestError(w, classifyRunErr(err))
			return
		}
		elapsed := time.Since(t1).Seconds()
		resp.Lanes = make([]LaneResponse, len(results))
		for i, r := range results {
			lr := LaneResponse{Cycles: r.Stats.Cycles, Flops: r.Stats.Flops}
			if r.Err != nil {
				lr.Error = r.Err.Error()
			} else if r.State != nil {
				lr.Scalars = toJSONScalars(r.State.Scalars)
			}
			resp.Cycles += r.Stats.Cycles
			resp.Flops += r.Stats.Flops
			resp.Lanes[i] = lr
		}
		resp.MFLOPS = sim.Stats{Cycles: resp.Cycles, Flops: resp.Flops}.MFLOPS(e.m, 1)
		if elapsed > 0 {
			resp.BatchRunsPerSec = float64(len(results)) / elapsed
		}
	case req.Cells > 1:
		cells := make([]*sim.Sim, req.Cells)
		for i := range cells {
			cells[i] = sim.NewCell(prog)
		}
		arr := sim.NewArrayCells(cells, req.Input)
		arr.Ctx = ctx
		out, last, err := arr.Run()
		if err != nil {
			s.writeRequestError(w, classifyRunErr(err))
			return
		}
		st := arr.Stats()
		resp.Cycles, resp.Flops = st.Cycles, st.Flops
		resp.MFLOPS = st.MFLOPS(e.m, 1)
		resp.Output = toJSONFloats(out)
		if last != nil {
			resp.Scalars = toJSONScalars(last.Scalars)
		}
	default:
		cell := sim.NewCell(prog)
		cell.Ctx = ctx
		state, err := cell.Run()
		if err != nil {
			s.writeRequestError(w, classifyRunErr(err))
			return
		}
		st := cell.Stats()
		resp.Cycles, resp.Flops = st.Cycles, st.Flops
		resp.MFLOPS = st.MFLOPS(e.m, 1)
		if state != nil {
			resp.Scalars = toJSONScalars(state.Scalars)
		}
	}
	resp.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1e3
	s.reply(w, http.StatusOK, resp)
}

// entryFor obtains the cache entry for a run request: by content address
// when Key is set, otherwise by compiling Source through the cache.
func (s *Server) entryFor(ctx context.Context, req *RunRequest) (*entry, bool, error) {
	if req.Key != "" {
		key, err := cache.ParseKey(req.Key)
		if err != nil {
			return nil, false, &requestError{http.StatusBadRequest, err}
		}
		v, ok := s.cache.Get(key)
		if !ok {
			return nil, false, &requestError{http.StatusNotFound, fmt.Errorf("no cached artifact for key %s", req.Key)}
		}
		return v.(*entry), true, nil
	}
	j, err := resolveJob(req.Source, req.Machine, req.Options, 0)
	if err != nil {
		return nil, false, err
	}
	return s.compileCached(ctx, j, nil)
}

// handleArtifact is GET /artifact/{key}: the resident entry's wire form,
// marshalled on demand, or 404; never a compile.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	v, ok := s.cache.Get(key)
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("no cached artifact for key %s", key))
		return
	}
	data, err := json.Marshal(v.(*entry).wire())
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// arrayArtifact is the wire form of a partitioned entry (entry.wire): one
// binary per cell plus the plan facts /run reports back.  A partitioned
// compile is keyed alongside single-cell ones (same canonical source +
// machine fingerprint + options string) with the cell count appended, so
// requests differing only in width never share an entry.
type arrayArtifact struct {
	MachineName string          `json:"machine"`
	MachineFP   string          `json:"machine_fp"`
	Binaries    []*vliw.Program `json:"binaries"`
	CellII      []int           `json:"cell_ii"`
	EstMII      []int           `json:"est_mii"`
	CutWidths   []int           `json:"cut_widths,omitempty"`
	Warnings    []string        `json:"capacity_warnings,omitempty"`
}

// compilePartitioned is job.compile for a partitioned job: split the
// program across j.cells cells and fill the entry with one binary per cell.
func (j *job) compilePartitioned(opts softpipe.Options) (*entry, error) {
	ao, err := softpipe.CompileSourcePartitioned(j.canon, softpipe.Machines(j.m, j.cells), opts)
	if err != nil {
		return nil, err
	}
	e := &entry{
		key:       j.key,
		m:         j.m,
		cellII:    ao.CellII(),
		estMII:    ao.Plan.EstMII,
		cutWidths: ao.Plan.CutWidths,
		warnings:  ao.CapacityWarnings,
	}
	for _, c := range ao.Cells {
		e.bins = append(e.bins, c.Binary)
	}
	e.cells = len(e.bins)
	return e, nil
}

// handleRunPartitioned is POST /run with partition=true: compile the
// source as an auto-partitioned array (through the cache), run it on
// the array, and report per-cell II/stall/occupancy stats.
func (s *Server) handleRunPartitioned(ctx context.Context, w http.ResponseWriter, req *RunRequest, t0 time.Time) {
	j, err := resolveJob(req.Source, req.Machine, req.Options, req.Cells)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	e, hit, err := s.compileCached(ctx, j, nil)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	arr := sim.NewArray(e.bins, e.m, req.Input)
	arr.Ctx = ctx
	out, last, err := arr.Run()
	if err != nil {
		s.writeRequestError(w, classifyRunErr(err))
		return
	}
	st := arr.Stats()
	resp := RunResponse{
		Key:       j.key.String(),
		Cached:    hit,
		Cycles:    st.Cycles,
		Flops:     st.Flops,
		MFLOPS:    st.MFLOPS(j.m, 1),
		Output:    toJSONFloats(out),
		CutWidths: e.cutWidths,
	}
	if last != nil {
		resp.Scalars = toJSONScalars(last.Scalars)
	}
	for i, cm := range arr.Metrics() {
		cs := CellRunStats{Cell: i, StallCycles: cm.StallCycles, MaxInQueue: cm.MaxInQueue}
		if i < len(e.cellII) {
			cs.II = e.cellII[i]
		}
		if i < len(e.estMII) {
			cs.EstMII = e.estMII[i]
		}
		resp.CellStats = append(resp.CellStats, cs)
	}
	s.noteArrayRun(resp.CellStats)
	resp.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1e3
	s.reply(w, http.StatusOK, resp)
}

// classifyRunErr maps simulator failures: deadline → 504, deadlock or
// runtime fault → 422.
func classifyRunErr(err error) *requestError {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return &requestError{http.StatusGatewayTimeout, err}
	}
	return &requestError{http.StatusUnprocessableEntity, err}
}
