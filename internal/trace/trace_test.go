package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"
)

// TestNilTracerZeroAllocs pins the disabled-tracer contract: every method
// on a nil tracer (and the nil span it hands out) is a no-op that
// allocates nothing, so threading a tracer through the simulator and
// scheduler hot paths is free when tracing is off.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin("phase")
		sp.Arg("k", 1).Arg("k2", 2)
		sp.End()
		tr.Count("ctr", 7)
		_ = tr.Enabled()
		_ = tr.Child("worker")
		tr.Merge(nil, nil)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f allocs/op, want 0", allocs)
	}
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer Events() = %v, want nil", got)
	}
	if got := tr.PhaseTotals(); got != nil {
		t.Fatalf("nil tracer PhaseTotals() = %v, want nil", got)
	}
}

// TestSpanAndCounterRecording checks that spans and counters land in the
// event buffer with the right phase bytes and annotations.
func TestSpanAndCounterRecording(t *testing.T) {
	tr := New("test")
	sp := tr.Begin("compile")
	sp.Arg("instrs", 42)
	sp.End()
	tr.Count("backtracks", 3)

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Name != "compile" || evs[0].Ph != 'X' {
		t.Errorf("event 0 = %q/%c, want compile/X", evs[0].Name, evs[0].Ph)
	}
	if len(evs[0].Args) != 1 || evs[0].Args[0] != (Arg{Key: "instrs", Val: 42}) {
		t.Errorf("span args = %v, want [{instrs 42}]", evs[0].Args)
	}
	if evs[0].Dur < 0 || evs[0].TS < 0 {
		t.Errorf("span has negative ts/dur: %+v", evs[0])
	}
	if evs[1].Name != "backtracks" || evs[1].Ph != 'C' {
		t.Errorf("event 1 = %q/%c, want backtracks/C", evs[1].Name, evs[1].Ph)
	}
	if len(evs[1].Args) != 1 || evs[1].Args[0].Val != 3 {
		t.Errorf("counter args = %v, want value 3", evs[1].Args)
	}
}

// TestChildMerge checks the parallel-harness protocol: children get
// distinct thread ids, record independently, and Merge folds their
// events into the root while keeping the ids apart.
func TestChildMerge(t *testing.T) {
	tr := New("root")
	c1 := tr.Child("worker")
	c2 := tr.Child("worker")
	if c1.tid == c2.tid {
		t.Fatalf("children share tid %d", c1.tid)
	}
	if c1.tid == tr.tid || c2.tid == tr.tid {
		t.Fatal("child shares the root's tid")
	}

	c1.Begin("a").End()
	c2.Begin("b").End()
	c2.Count("n", 1)
	tr.Begin("root-span").End()

	if got := len(tr.Events()); got != 1 {
		t.Fatalf("root has %d events before Merge, want 1", got)
	}
	tr.Merge(c1, c2)
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("root has %d events after Merge, want 4", len(evs))
	}
	tids := map[string]int64{}
	for _, e := range evs {
		tids[e.Name] = e.TID
	}
	if tids["a"] == tids["b"] {
		t.Errorf("merged events a and b share tid %d", tids["a"])
	}
	// Merge drained the children.
	if got := len(c1.Events()) + len(c2.Events()); got != 0 {
		t.Errorf("children retain %d events after Merge, want 0", got)
	}
	// Grandchildren mint ids from the root, so another child after a
	// child-of-child still gets a fresh id.
	g := c1.Child("grand")
	if g.tid == c1.tid || g.tid == c2.tid || g.tid == tr.tid {
		t.Errorf("grandchild tid %d collides", g.tid)
	}
}

// TestWriteJSONValid checks the Chrome trace_event envelope: a single
// traceEvents array, a leading process_name metadata record, phase
// strings limited to X/C/M, dur present exactly on X events, and events
// sorted by timestamp.
func TestWriteJSONValid(t *testing.T) {
	tr := New("unit")
	tr.Count("c", 1)
	sp := tr.Begin("s")
	sp.Arg("k", 9)
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			TS   *int64          `json:"ts"`
			Dur  *int64          `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d traceEvents, want 3 (meta + counter + span)", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Name != "process_name" {
		t.Errorf("first event = %q/%q, want process_name/M", doc.TraceEvents[0].Name, doc.TraceEvents[0].Ph)
	}
	var ts []int64
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
		case "X":
			if e.Dur == nil {
				t.Errorf("X event %q missing dur", e.Name)
			}
			ts = append(ts, *e.TS)
		case "C":
			if e.Dur != nil {
				t.Errorf("C event %q has dur", e.Name)
			}
			ts = append(ts, *e.TS)
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i] < ts[j] }) {
		t.Errorf("events not sorted by ts: %v", ts)
	}
	// A nil tracer still writes a valid (empty) trace.
	var nilBuf bytes.Buffer
	var nilTr *Tracer
	if err := nilTr.WriteJSON(&nilBuf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(nilBuf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer output invalid: %v", err)
	}
}

// TestPhaseTotals checks aggregation by span name, self time against
// inclusive, and that counters are excluded.
func TestPhaseTotals(t *testing.T) {
	tr := New("totals")
	tr.events = []Event{
		{Name: "sim.run", Ph: 'X', TS: 1600, Dur: 250},
		{Name: "compile", Ph: 'X', TS: 100, Dur: 1500},
		{Name: "compile", Ph: 'X', TS: 1700, Dur: 500},
		{Name: "compile", Ph: 'C'}, // counter named like a phase: ignored
	}
	got := tr.PhaseTotals()
	if got["compile"] != (Phase{Self: 2.0, Incl: 2.0}) {
		t.Errorf("compile = %+v ms, want self = inclusive = 2.0", got["compile"])
	}
	if got["sim.run"] != (Phase{Self: 0.25, Incl: 0.25}) {
		t.Errorf("sim.run = %+v ms, want 0.25", got["sim.run"])
	}
	if len(got) != 2 {
		t.Errorf("PhaseTotals has %d phases, want 2: %v", len(got), got)
	}
}

// TestPhaseSelfSumsToRoot: in a tree of spans — nested two deep, with
// siblings, a span named like its parent, and a zero-length one at a
// sibling's start — the self times add up to the root's inclusive time,
// and each span's self time is what its children leave.
func TestPhaseSelfSumsToRoot(t *testing.T) {
	tr := New("self")
	tr.events = []Event{
		{Name: "leaf", Ph: 'X', TS: 20, Dur: 5},
		{Name: "mid", Ph: 'X', TS: 10, Dur: 30},
		{Name: "leaf", Ph: 'X', TS: 50, Dur: 0},
		{Name: "mid", Ph: 'X', TS: 50, Dur: 20},
		{Name: "mid", Ph: 'X', TS: 55, Dur: 10},
		{Name: "root", Ph: 'X', TS: 0, Dur: 100},
		{Name: "other", Ph: 'X', TS: 0, Dur: 100, TID: 1},
	}
	got := tr.PhaseTotals()
	want := map[string]Phase{
		"root":  {Self: 0.050, Incl: 0.100},
		"mid":   {Self: 0.045, Incl: 0.060},
		"leaf":  {Self: 0.005, Incl: 0.005},
		"other": {Self: 0.100, Incl: 0.100},
	}
	for name, w := range want {
		if g := got[name]; math.Abs(g.Self-w.Self) > 1e-12 || math.Abs(g.Incl-w.Incl) > 1e-12 {
			t.Errorf("%s = %+v, want %+v", name, g, w)
		}
	}
	sum := 0.0
	for name, p := range got {
		if name != "other" {
			sum += p.Self
		}
	}
	if math.Abs(sum-got["root"].Incl) > 1e-12 {
		t.Errorf("self times of root's tree sum to %v ms, root's inclusive time is %v", sum, got["root"].Incl)
	}
}
