// Package trace is a zero-dependency hierarchical span/counter tracer
// for the compilation and evaluation pipeline.  A nil *Tracer is the
// disabled state: every method is nil-receiver safe and allocation-free,
// so hot paths thread a tracer unconditionally and pay a single pointer
// check when tracing is off.
//
// The event model follows the Chrome trace_event format (the JSON
// consumed by chrome://tracing and Perfetto): complete events ("X") for
// spans with wall-clock duration, counter events ("C") for named
// monotonic quantities.  WriteJSON emits the standard
// {"traceEvents": [...]} object.
//
// Concurrency: a Tracer serializes its own appends with a mutex, and the
// parallel evaluation harness gives each worker its own child sink
// (Child) merged at the end (Merge), so workers never contend on one
// event slice mid-run.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Arg is one key/value annotation attached to a span or counter sample.
type Arg struct {
	Key string
	Val int64
}

// Event is one recorded trace event, timestamps in microseconds since
// the root tracer's epoch.
type Event struct {
	Name string
	Ph   byte // 'X' = complete span, 'C' = counter sample
	TS   int64
	Dur  int64
	TID  int64
	Args []Arg
}

// Tracer collects events.  Obtain one with New; nil means disabled.
type Tracer struct {
	mu     sync.Mutex
	name   string
	epoch  time.Time
	tid    int64
	nextID int64 // next child thread id (root only)
	root   *Tracer
	events []Event
}

// New returns an enabled tracer whose process name labels the trace.
func New(name string) *Tracer {
	return &Tracer{name: name, epoch: time.Now(), nextID: 1}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Child returns a new sink sharing t's epoch but with its own thread id
// and event buffer, for one worker of a parallel region.  Merge the
// child back when the worker is done.  Child of nil is nil.
func (t *Tracer) Child(name string) *Tracer {
	if t == nil {
		return nil
	}
	root := t.root
	if root == nil {
		root = t
	}
	root.mu.Lock()
	id := root.nextID
	root.nextID++
	root.mu.Unlock()
	return &Tracer{name: name, epoch: root.epoch, tid: id, root: root}
}

// Merge appends the events of each child sink into t.  The children keep
// their thread ids, so per-worker timelines stay separate in the viewer.
// Merging nil children (disabled workers) is a no-op.
func (t *Tracer) Merge(children ...*Tracer) {
	if t == nil {
		return
	}
	for _, c := range children {
		if c == nil || c == t {
			continue
		}
		c.mu.Lock()
		evs := c.events
		c.events = nil
		c.mu.Unlock()
		t.mu.Lock()
		t.events = append(t.events, evs...)
		t.mu.Unlock()
	}
}

func (t *Tracer) now() int64 { return time.Since(t.epoch).Microseconds() }

// Span is an open interval started by Begin.  A nil *Span (from a nil
// tracer) accepts Arg and End as no-ops.
type Span struct {
	t     *Tracer
	name  string
	start int64
	args  []Arg
}

// Begin opens a span; close it with End.  On a nil tracer it returns a
// nil span and allocates nothing.
func (t *Tracer) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, start: t.now()}
}

// Arg attaches a key/value annotation to the span; it returns the span
// so annotations chain.  Nil-safe.
func (s *Span) Arg(key string, val int64) *Span {
	if s == nil {
		return nil
	}
	s.args = append(s.args, Arg{Key: key, Val: val})
	return s
}

// End closes the span and records it.  Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	end := t.now()
	t.mu.Lock()
	t.events = append(t.events, Event{
		Name: s.name, Ph: 'X', TS: s.start, Dur: end - s.start,
		TID: t.tid, Args: s.args,
	})
	t.mu.Unlock()
}

// Count records a counter sample (Chrome "C" event) with the current
// value of the named quantity.  Nil-safe, allocation-free when disabled.
func (t *Tracer) Count(name string, val int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, Event{
		Name: name, Ph: 'C', TS: t.now(), TID: t.tid,
		Args: []Arg{{Key: name, Val: val}},
	})
	t.mu.Unlock()
}

// Events returns a copy of the recorded events (the root's own buffer;
// call Merge first to fold in child sinks).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Phase is the wall time recorded under one span name, in milliseconds.
// Incl sums the spans' durations; Self subtracts from each span the
// durations of the spans nested directly inside it, so it is the time no
// other span accounts for, and the self times of a span tree add up to
// its root's duration.
type Phase struct {
	Self, Incl float64
}

// PhaseTotals aggregates span wall time by span name, self and
// inclusive — the per-phase timing summary.  A span nests inside another
// of the same thread that starts no later and ends no earlier (of two
// such spans, the longer is the outer).  Nil tracers return nil.
func (t *Tracer) PhaseTotals() map[string]Phase {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]Event, 0, len(t.events))
	for _, e := range t.events {
		if e.Ph == 'X' {
			spans = append(spans, e)
		}
	}
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.Dur > b.Dur
	})
	// Microseconds while summing, so the identity is exact.
	self := make([]int64, len(spans))
	var open []int // indices of the spans enclosing the current one
	for i, e := range spans {
		self[i] = e.Dur
		for len(open) > 0 {
			p := spans[open[len(open)-1]]
			if p.TID == e.TID && e.TS+e.Dur <= p.TS+p.Dur {
				break
			}
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			self[open[len(open)-1]] -= e.Dur
		}
		open = append(open, i)
	}
	us := map[string][2]int64{}
	for i, e := range spans {
		v := us[e.Name]
		us[e.Name] = [2]int64{v[0] + self[i], v[1] + e.Dur}
	}
	totals := make(map[string]Phase, len(us))
	for name, v := range us {
		totals[name] = Phase{Self: float64(v[0]) / 1e3, Incl: float64(v[1]) / 1e3}
	}
	return totals
}

// jsonEvent is the Chrome trace_event wire form.
type jsonEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	TS   int64            `json:"ts"`
	Dur  *int64           `json:"dur,omitempty"`
	PID  int64            `json:"pid"`
	TID  int64            `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

type jsonMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	PID  int64             `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args"`
}

// WriteJSON emits the trace as a Chrome trace_event JSON object
// ({"traceEvents": [...], "displayTimeUnit": "ms"}), loadable in
// chrome://tracing or Perfetto.  Events sort by timestamp so the output
// is deterministic for a given set of recorded durations.  Writing a nil
// tracer emits an empty, still-valid trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	var evs []Event
	name := "softpipe"
	if t != nil {
		evs = t.Events()
		if t.name != "" {
			name = t.name
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TS != evs[j].TS {
			return evs[i].TS < evs[j].TS
		}
		return evs[i].TID < evs[j].TID
	})
	out := make([]any, 0, len(evs)+1)
	out = append(out, jsonMeta{
		Name: "process_name", Ph: "M", PID: 1, TID: 0,
		Args: map[string]string{"name": name},
	})
	for _, e := range evs {
		je := jsonEvent{Name: e.Name, Ph: string(e.Ph), TS: e.TS, PID: 1, TID: e.TID}
		if e.Ph == 'X' {
			d := e.Dur
			je.Dur = &d
		}
		if len(e.Args) > 0 {
			je.Args = make(map[string]int64, len(e.Args))
			for _, a := range e.Args {
				je.Args[a.Key] = a.Val
			}
		}
		out = append(out, je)
	}
	enc, err := json.MarshalIndent(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     out,
	}, "", " ")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}
