package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracer records the outside-in spans of a traced run: one span around
// every call the benchmark makes into a module, nested under the span of
// the operation that caused it.  It lives in the benchmark, not in the
// program under test (internal/trace stamps whole microseconds and has
// no parent links; a hier.BuildNodes call is a few of them).  A nil
// tracer is the untraced run: every method is a no-op on it, so the
// operation code is written once.
//
// Totals are aggregated per span name as spans close.  The span records
// themselves are retained only while keep is set (the first traced
// pass), which bounds memory and the size of the trace file.
type tracer struct {
	epoch  time.Time
	keep   bool
	spans  []span
	stack  []frame
	agg    map[string]*layerAgg
	counts map[string]int64
	op     int32
	// replay accumulates time spent in replay sections: layer calls a
	// traced operation repeats outside the operation's own path, which
	// trace.overhead_share must not charge to span recording.
	replay time.Duration
}

type span struct {
	name       string
	start, end int64 // ns since epoch
	parent     int32 // index into spans; -1 for a root
	op         int32 // shared by every span of one operation
	tid        int32
}

type frame struct {
	name  string
	start int64
	child int64 // ns covered by closed child spans
	idx   int32 // index into spans, -1 when the record is not kept
}

// layerAgg is one span name's totals: calls, inclusive ns, and self ns
// (inclusive minus the part covered by child spans).
type layerAgg struct{ n, total, self int64 }

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), keep: true, agg: map[string]*layerAgg{}, counts: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nextOp starts a new operation; spans opened until the next call share
// its identifier.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	f := frame{name: name, start: t.now(), idx: -1}
	if t.keep {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		f.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, start: f.start, parent: parent, op: t.op})
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	end := t.now()
	dur := end - f.start
	t.note(f.name, dur, dur-f.child)
	if f.idx >= 0 {
		t.spans[f.idx].end = end
	}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
	}
	return time.Duration(dur)
}

func (t *tracer) note(name string, dur, self int64) {
	a := t.agg[name]
	if a == nil {
		a = &layerAgg{}
		t.agg[name] = a
	}
	a.n++
	a.total += dur
	a.self += self
}

// add records a closed, childless span measured elsewhere (the HTTP
// clients time their requests on their own goroutines and hand them over
// after the pass).
func (t *tracer) add(name string, start time.Time, dur time.Duration, tid int32) {
	if t == nil {
		return
	}
	t.note(name, int64(dur), int64(dur))
	if t.keep {
		s := int64(start.Sub(t.epoch))
		t.op++
		t.spans = append(t.spans, span{name: name, start: s, end: s + int64(dur), parent: -1, op: t.op, tid: tid})
	}
}

// beginReplay/endReplay bracket a replay section.
func (t *tracer) beginReplay() {
	t.begin("replay")
}

func (t *tracer) endReplay() {
	if t != nil {
		t.replay += t.end()
	}
}

func (t *tracer) count(name string, v int64) {
	if t != nil {
		t.counts[name] += v
	}
}

// ms returns the inclusive milliseconds recorded under name.
func (t *tracer) ms(name string) float64 {
	if t == nil || t.agg[name] == nil {
		return 0
	}
	return float64(t.agg[name].total) / 1e6
}

func (t *tracer) calls(name string) int64 {
	if t == nil || t.agg[name] == nil {
		return 0
	}
	return t.agg[name].n
}

// writeChrome writes the kept spans, the per-name self times and the
// counters as Chrome trace_event JSON (the format scripts/tracecheck
// validates: integer microsecond ts/dur, phases X, C and M).
func (t *tracer) writeChrome(path, process string) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   *int64         `json:"ts,omitempty"`
		Dur  *int64         `json:"dur,omitempty"`
		PID  int64          `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(ns int64) *int64 { v := ns / 1e3; return &v }
	evs := []ev{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": process}}}
	for _, s := range t.spans {
		args := map[string]any{"op": s.op, "ns": s.end - s.start}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		evs = append(evs, ev{Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: int64(s.tid), Args: args})
	}
	var last int64
	if n := len(t.spans); n > 0 {
		last = t.spans[n-1].end
	}
	for _, name := range sortedKeys(t.agg) {
		a := t.agg[name]
		evs = append(evs, ev{Name: "self:" + name, Ph: "C", TS: us(last), PID: 1,
			Args: map[string]any{"calls": a.n, "total_ns": a.total, "self_ns": a.self}})
	}
	for _, name := range sortedKeys(t.counts) {
		evs = append(evs, ev{Name: name, Ph: "C", TS: us(last), PID: 1, Args: map[string]any{"value": t.counts[name]}})
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
