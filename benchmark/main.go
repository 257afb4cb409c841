// Command benchmark is the repository's benchmark: one workload per
// process, every metric printed by name with its unit, outputs checked.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// BENCHMARK.json at the repository root is the contract (workloads,
// end-to-end metrics with their bounds, per-layer metrics); README.md in
// this directory says what each workload and metric is for.  The last
// line of standard output is one JSON object {correct, attempted,
// failed, metrics}; with --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones.  The process exits non-zero when
// any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks every corpus and traceOut is where a traced run
	// writes its Chrome trace.  main fixes both; only the smoke test sets
	// them otherwise.
	scale    float64
	traceOut string
}

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// ungated holds what an untraced run prints beside the gated metrics.
	ungated []sampled
}

// sampled is a printed metric with the number of samples behind it.
type sampled struct {
	metricDef
	value   float64
	samples int
}

// endToEnd lists the end-to-end metrics; BENCHMARK.json carries the
// same names with direction and bound (bench_test.go holds them equal).
//
// Throughput and latency are not among them: on the reference host two
// sets of runs of the same build disagree by more than a tenth (see
// README.md, "A/A"), so they are not gated.  An untraced run still
// prints them by name (ops_per_s, op_p50_ms, op_p95_ms, fail_share,
// serve_*), which is what aa.sh measures them from, and a traced run
// reports them per layer as bench.* and service.*.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"sim_cycles_total", "cycles"},
	{"code_words_total", "words"},
}

// perLayer lists the per-layer metrics, layer names being module names.
// Times are milliseconds per pass over the workload's corpus and counts
// are per pass, so both are comparable between runs of different length.
// A layer a workload does not exercise reports 0 there.
var perLayer = []metricDef{
	{"lang.compile_ms", "ms"}, {"lang.tokens", "count"}, {"lang.canon_us_per_src", "us"},
	{"hier.build_nodes_ms", "ms"}, {"hier.nodes", "count"}, {"hier.reduced_ifs", "count"},
	{"depgraph.build_ms", "ms"}, {"depgraph.analyze_ms", "ms"}, {"depgraph.edges", "count"},
	{"schedule.search_ms", "ms"}, {"schedule.attempts", "count"}, {"schedule.backtracks", "count"},
	{"schedule.exact_nodes", "count"}, {"schedule.exact_proved", "count"}, {"schedule.exact_fellback", "count"},
	{"schedule.ii_sum", "cycles"}, {"schedule.mii_sum", "cycles"},
	{"pipeline.plan_ms", "ms"}, {"pipeline.loops_total", "count"}, {"pipeline.loops_pipelined", "count"},
	{"pipeline.met_mii", "count"}, {"pipeline.unroll_sum", "count"}, {"pipeline.stages_sum", "count"},
	{"codegen.compile_ms", "ms"}, {"codegen.rest_ms", "ms"}, {"codegen.code_words", "words"},
	{"codegen.alloc_kb_per_op", "KiB"}, {"codegen.fail", "count"},
	{"verify.static_ms", "ms"}, {"verify.program_ms", "ms"}, {"verify.array_ms", "ms"},
	{"verify.mutants_tried", "count"}, {"verify.mutants_killed", "count"}, {"verify.alloc_kb_per_op", "KiB"},
	{"ir.interp_ms", "ms"},
	{"sim.interp_ns_per_cycle", "ns"}, {"sim.interp_cycles", "cycles"}, {"sim.allocs_per_cycle", "count"},
	{"sim.array_ns_per_cell_cycle", "ns"}, {"sim.array_stall_cycles", "cycles"}, {"sim.array_max_in_queue", "count"},
	{"sim.cycles_seeded", "cycles"},
	{"sim.compiled.build_ms", "ms"}, {"sim.compiled.run_ns_per_cycle", "ns"}, {"sim.compiled.total_ns_per_cycle", "ns"},
	{"sim.compiled.fast_blocks", "count"}, {"sim.compiled.distinct_words", "count"}, {"sim.compiled.speedup", "x"},
	{"sim.compiled.batch_lanes_per_s", "1/s"},
	{"partition.plan_ms", "ms"}, {"partition.cells_compile_ms", "ms"}, {"partition.attempted", "count"},
	{"partition.partitioned", "count"}, {"partition.skipped", "count"}, {"partition.max_cell_ii_sum", "cycles"},
	{"partition.cut_width_sum", "count"}, {"partition.speedup_geomean", "x"},
	{"cache.hit_share", "share"}, {"cache.computes", "count"}, {"cache.coalesced", "count"},
	{"cache.evictions", "count"}, {"cache.bytes", "bytes"}, {"cache.get_hit_us", "us"},
	{"service.cold_p50_ms", "ms"}, {"service.warm_p50_ms", "ms"}, {"service.warm_p99_ms", "ms"}, {"service.run_p50_ms", "ms"},
	{"service.http_floor_us", "us"}, {"service.warm_overhead_us", "us"},
	{"service.server_compile_p50_ms", "ms"}, {"service.server_run_p50_ms", "ms"},
	{"service.rejected_429", "count"}, {"service.errors", "count"}, {"service.panics", "count"},
	{"service.resp_bytes_per_req", "bytes"}, {"service.rps", "1/s"},
	{"bench.ops_per_s", "1/s"}, {"bench.op_p50_ms", "ms"}, {"bench.op_p95_ms", "ms"}, {"bench.pool_speedup_2w", "x"},
	{"trace.overhead_share", "share"},
	{"go.alloc_kb_per_op", "KiB"}, {"go.mallocs_per_op", "count"}, {"go.gc_count", "count"}, {"go.gc_pause_ms", "ms"},
}

// workload is one of the six named workloads.  One value serves one
// set-up; the driver builds a fresh one for every set-up repeat.
type workload interface {
	// setup builds every input from the seed.  It and the warm-up pass
	// that follows are what setup_s measures.
	setup(seed int64, scale float64) error
	// pass executes every operation of the workload once, reporting each
	// to r.  With a tracer it also wraps the layer calls in spans and
	// replays the per-layer chain.
	pass(r *run, tr *tracer)
	// check is the untimed correctness pass after timing.  It reports
	// violations to r and returns the simulated cycles and code words of
	// the fixed (seed-independent) objects, and the cycles of the seeded
	// ones.
	check(r *run) (cycles, words, seededCycles int64)
	// layers adds the per-layer metrics the spans do not give: counters
	// read from public fields and stand-alone layer measurements.  It
	// runs after timing, in traced runs only.
	layers(tr *tracer, out map[string]float64)
	close()
}

var workloadNames = []string{"compile-corpus", "compile-exact", "verify-corpus", "sim-steady", "array-partition", "serve-mixed"}

func newWorkload(name string) workload {
	switch name {
	case "compile-corpus":
		return &compileWL{}
	case "compile-exact":
		return &compileWL{exact: true}
	case "verify-corpus":
		return &verifyWL{}
	case "sim-steady":
		return &simWL{}
	case "array-partition":
		return &arrayWL{}
	case "serve-mixed":
		return &serveWL{}
	}
	return nil
}

// run collects what the operations of one phase report.
type run struct {
	lat       []float64 // per-operation latency, ms
	attempted int
	failed    int
	failures  []string // the first few, for the operator
}

// observe records one finished operation.
func (r *run) observe(d time.Duration, err error) {
	r.attempted++
	r.lat = append(r.lat, float64(d)/1e6)
	if err != nil {
		r.fail("%v", err)
	}
}

// violation records a correctness check that is not itself a timed
// operation.
func (r *run) violation(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

const setupRepeats = 3

// runBench runs one workload and returns its result line.
func runBench(cfg config, log io.Writer) (*result, error) {
	// Two processors, pinned: the reference box has two cores and before
	// Go 1.25 GOMAXPROCS ignores a container's CPU quota.
	runtime.GOMAXPROCS(2)
	if newWorkload(cfg.workload) == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}

	// Set-up, several times over: setup_s is the median, so one slow
	// start does not decide it.
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			// The previous instance is garbage before the next is built,
			// so peak_rss_mb reflects one instance, not three.
			w.close()
			w = nil
			runtime.GC()
		}
		w = newWorkload(cfg.workload)
		t0 := time.Now()
		if err := w.setup(cfg.seed, cfg.scale); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm := &run{}
		w.pass(warm, nil)
		setups = append(setups, time.Since(t0).Seconds())
		if warm.failed > 0 {
			return nil, fmt.Errorf("warm-up pass: %d of %d operations failed: %s", warm.failed, warm.attempted, strings.Join(warm.failures, "; "))
		}
	}
	defer w.close()

	// Timed section: whole passes until the time is up, so every run
	// executes the same operations in the same order whatever its speed.
	// A traced run alternates untraced and traced passes; their
	// difference is the cost of recording spans.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	timed := &run{}
	var plain, traced []float64 // seconds on the operation path, per pass
	var plainLat []float64      // operation latencies of the plain passes, pass after pass
	var heap heapDelta
	start := time.Now()
	for passes := 0; ; passes++ {
		t0 := time.Now()
		if cfg.trace && passes%2 == 1 {
			before := tr.replay
			w.pass(timed, tr)
			traced = append(traced, (time.Since(t0) - (tr.replay - before)).Seconds())
			tr.keep = false
		} else {
			// The Go runtime's counters cover the plain passes only: a
			// traced pass also allocates for spans and replays.
			n := len(timed.lat)
			heap.begin(cfg.trace)
			w.pass(timed, nil)
			heap.end(cfg.trace)
			plain = append(plain, time.Since(t0).Seconds())
			plainLat = append(plainLat, timed.lat[n:]...)
		}
		elapsed := time.Since(start).Seconds()
		mean := elapsed / float64(passes+1)
		if elapsed+mean/2 >= cfg.seconds && (!cfg.trace || passes >= 1) {
			break
		}
	}
	wall := time.Since(start).Seconds()

	cycles, words, seeded := w.check(timed)

	// Every pass runs the same operations in the same order, so the
	// latency of an operation is the median of its repeats across passes
	// and throughput comes from the median pass, neither of which a burst
	// of interference from the host moves.  The latency quantiles are
	// over operations.  Traced passes are left out.
	typical := slotMedians(plainLat, len(plain))
	opsPerS := float64(len(typical)) / median(plain)
	sort.Float64s(typical)

	res := &result{Metrics: map[string]metric{}}
	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":          median(setups),
			"peak_rss_mb":      peakRSSMiB(),
			"sim_cycles_total": float64(cycles),
			"code_words_total": float64(words),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		add := func(name, unit string, v float64, n int) {
			res.ungated = append(res.ungated, sampled{metricDef{name, unit}, v, n})
		}
		add("ops_per_s", "1/s", opsPerS, len(plain))
		add("op_p50_ms", "ms", quantile(typical, 0.50), len(typical))
		if len(typical) >= 200 {
			add("op_p95_ms", "ms", quantile(typical, 0.95), len(typical))
		}
		add("fail_share", "share", float64(timed.failed)/float64(timed.attempted), timed.attempted)
		if s, ok := w.(*serveWL); ok {
			s.clientLatencies(add)
		}
		fmt.Fprintf(log, "%s seed %d: %d passes of %d operations in %.3f s; setup_s is the median of %d set-ups\n",
			cfg.workload, cfg.seed, len(plain), len(typical), wall, setupRepeats)
	} else {
		out := map[string]float64{}
		n := float64(len(traced))
		// Every *_ms metric named after a span is that span's time per
		// traced pass; workloads overwrite or add the rest.
		for _, d := range perLayer {
			if base, ok := strings.CutSuffix(d.name, "_ms"); ok {
				out[d.name] = tr.ms(base) / n
			}
		}
		for name, v := range tr.counts {
			out[name] = float64(v) / n
		}
		w.layers(tr, out)
		out["bench.ops_per_s"] = opsPerS
		out["bench.op_p50_ms"] = quantile(typical, 0.50)
		out["bench.op_p95_ms"] = quantile(typical, 0.95)
		out["sim.cycles_seeded"] = float64(seeded)
		out["trace.overhead_share"] = median(traced)/median(plain) - 1
		plainOps := float64(len(plainLat))
		out["go.alloc_kb_per_op"] = float64(heap.bytes) / 1024 / plainOps
		out["go.mallocs_per_op"] = float64(heap.mallocs) / plainOps
		out["go.gc_count"] = float64(heap.gcs) / float64(len(plain))
		out["go.gc_pause_ms"] = float64(heap.pauseNS) / 1e6 / float64(len(plain))
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{out[d.name], d.unit}
		}
		if err := tr.writeChrome(cfg.traceOut, "benchmark "+cfg.workload); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(log, "%s seed %d: %d plain + %d traced passes of %d operations in %.3f s; %d spans written to %s\n",
			cfg.workload, cfg.seed, len(plain), len(traced), len(typical), wall, len(tr.spans), cfg.traceOut)
	}
	for _, f := range timed.failures {
		fmt.Fprintf(log, "FAILED: %s\n", f)
	}
	res.Attempted, res.Failed = timed.attempted, timed.failed
	res.Correct = timed.failed == 0
	return res, nil
}

// heapDelta sums the Go runtime's allocation and collection counters
// over bracketed sections.  ReadMemStats stops the world, so a run that
// reports end-to-end metrics never calls it.
type heapDelta struct {
	from                         runtime.MemStats
	bytes, mallocs, gcs, pauseNS uint64
}

func (h *heapDelta) begin(on bool) {
	if on {
		runtime.ReadMemStats(&h.from)
	}
}

func (h *heapDelta) end(on bool) {
	if !on {
		return
	}
	var to runtime.MemStats
	runtime.ReadMemStats(&to)
	h.bytes += to.TotalAlloc - h.from.TotalAlloc
	h.mallocs += to.Mallocs - h.from.Mallocs
	h.gcs += uint64(to.NumGC - h.from.NumGC)
	h.pauseNS += to.PauseTotalNs - h.from.PauseTotalNs
}

// slotMedians splits the latencies of `passes` identical passes into
// operation slots and returns each slot's median.
func slotMedians(lat []float64, passes int) []float64 {
	slots := len(lat) / passes
	out := make([]float64, slots)
	repeats := make([]float64, passes)
	for i := range out {
		for p := range repeats {
			repeats[p] = lat[p*slots+i]
		}
		out[i] = median(repeats)
	}
	return out
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// scaled shrinks a corpus size by the smoke test's scale, keeping at
// least one.
func scaled(n int, scale float64) int {
	if m := int(math.Round(float64(n) * scale)); m >= 1 {
		return m
	}
	return 1
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "one of: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every random draw")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed section")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics; 0: prints the end-to-end metrics")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.scale, cfg.traceOut = 1, ".bench_build/trace-"+cfg.workload+".json"
	res, err := runBench(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-34s %s %s\n", d.name, strconv.FormatFloat(res.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	for _, m := range res.ungated {
		fmt.Printf("%-34s %s %s n=%d (not gated)\n", m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, m.samples)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
