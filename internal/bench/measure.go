package bench

import (
	"context"
	"fmt"

	"softpipe"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/trace"
	"softpipe/internal/workloads"
)

// Config is the one harness configuration.  Every table and report is a
// projection of the same compile-verify-simulate-diff job, so they all
// take the compile configuration exactly as the library, w2c and the
// service do — a softpipe.Options — plus how wide to fan out.
// Report-specific extras (corpus set, machine list, array widths) are
// plain arguments of the report that needs them.
type Config struct {
	// Options is the compile configuration.  VerifyEmitted means
	// "verified" throughout the harness: the independent object-code
	// verifier at compile time plus a differential check of every
	// simulated final state against the IR interpreter.  Tracer is the
	// root that the per-worker sinks merge into (nil traces nothing).
	Options softpipe.Options
	// Workers sizes the pool (≤ 0 means GOMAXPROCS).
	Workers int
	// WholeArms reduces conditionals with their arms whole, as Lam §3.1
	// does (codegen.Options.WholeArms): Figure 4-2 in the paper's own
	// configuration.  No softpipe.Options field reaches it.
	WholeArms bool
}

// Job is one point of the (program × machine × options) grid.
type Job struct {
	// Name labels the job's trace span and prefixes its error.
	Name    string
	Prog    *ir.Program
	Machine *machine.Machine
	// Options is this point's compile configuration; its Tracer is
	// replaced by the sink of the pool worker that runs the job.
	Options softpipe.Options
}

// Measure runs every job on cfg's pool.
// Results land in job order regardless of the pool size, so parallel and
// sequential runs are byte-identical; on failure the first error by job
// index is returned.  Compiling never writes to the program, so jobs may
// share one (the pipelined/baseline pair of a table row does).
func Measure(cfg Config, jobs []Job) ([]*RunResult, error) {
	out := make([]*RunResult, len(jobs))
	err := ForEachTraced(context.Background(), len(jobs), cfg.Workers, cfg.Options.Tracer, func(i int, t *trace.Tracer) error {
		j := jobs[i]
		j.Options.Tracer = t
		sp := t.Begin(j.Name)
		r, err := Run(j.Prog, j.Machine, Config{Options: j.Options, WholeArms: cfg.WholeArms})
		sp.End()
		if err != nil {
			return fmt.Errorf("bench: %s: %w", j.Name, err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pair appends the two jobs behind a speedup figure: p under c.Options
// and under the same options with Baseline set (locally compacted code,
// Lam Figure 4-2).
func (c Config) pair(jobs []Job, name string, p *ir.Program, m *machine.Machine) []Job {
	base := c.Options
	base.Baseline = true
	return append(jobs, Job{name, p, m, c.Options}, Job{name, p, m, base})
}

// saxpySource mirrors testdata/saxpy.w2 so the corpus does not depend on
// the working directory.
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

// Workload is one program of the report corpus.
type Workload struct {
	Name string
	Prog *ir.Program
}

// Corpus set names: the reports measure the full set, tests the smoke set.
const (
	SetFull  = "full"  // saxpy + every Livermore kernel
	SetSmoke = "smoke" // saxpy + one resource-bound Livermore kernel
)

// Corpus builds the named report corpus.  fuzz appends the checked-in
// fuzz seeds to the full set: the gap report wants them (it measures
// scheduler robustness), the sweep and array reports do not (they
// measure machine sensitivity on the deterministic kernels).
func Corpus(set string, fuzz bool) ([]Workload, error) {
	if set != SetFull && set != SetSmoke {
		return nil, fmt.Errorf("bench: unknown corpus set %q (want %q or %q)", set, SetFull, SetSmoke)
	}
	saxpy, err := lang.Compile(saxpySource)
	if err != nil {
		return nil, fmt.Errorf("bench: compile saxpy: %w", err)
	}
	for _, a := range saxpy.Arrays {
		for i := 0; i < a.Size; i++ {
			a.InitF = append(a.InitF, float64(i%11))
		}
	}
	out := []Workload{{Name: "saxpy", Prog: saxpy}}
	for _, k := range workloads.Livermore() {
		if set == SetSmoke && k.ID != 18 {
			continue
		}
		p, err := k.Build()
		if err != nil {
			return nil, err
		}
		out = append(out, Workload{Name: k.Name, Prog: p})
	}
	if fuzz && set != SetSmoke {
		for _, seed := range workloads.CorpusSeeds() {
			out = append(out, Workload{Name: fmt.Sprintf("fuzz%d", seed), Prog: workloads.RandomProgram(seed)})
		}
	}
	return out, nil
}
