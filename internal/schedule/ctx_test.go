package schedule

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"softpipe/internal/ir"
	"softpipe/internal/machine"
)

// ctxLoop builds a small scheduled loop for the cancellation tests.
func ctxLoopAnalysis(t *testing.T) (*ir.Program, *machine.Machine) {
	t.Helper()
	m := machine.Warp()
	b := ir.NewBuilder("ctxloop")
	b.Array("a", ir.KindFloat, 64)
	b.Array("c", ir.KindFloat, 64)
	cst := b.FConst(1.5)
	b.ForN(64, func(l *ir.LoopCtx) {
		p := l.Pointer(0, 1)
		v := b.Load("a", p, ir.Aff(l.ID, 1, 0))
		s := l.Pointer(0, 1)
		b.Store("c", s, b.FMul(v, cst), ir.Aff(l.ID, 1, 0))
	})
	return b.P, m
}

func TestSearchAbortsOnCanceledContext(t *testing.T) {
	p, m := ctxLoopAnalysis(t)
	a := analyze(t, p, m, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, err := Modulo(a, m, Options{Ctx: ctx})
	if err == nil {
		t.Fatal("search with a canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if st.Attempts != 0 {
		t.Fatalf("canceled search still made %d attempts", st.Attempts)
	}
}

func TestBinarySearchAbortsOnCanceledContext(t *testing.T) {
	p, m := ctxLoopAnalysis(t)
	a := analyze(t, p, m, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Modulo(a, m, Options{Ctx: ctx, BinarySearch: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("binary search error %v does not wrap context.Canceled", err)
	}
}

func TestExactSearchAbortsOnCanceledContext(t *testing.T) {
	p, m := ctxLoopAnalysis(t)
	a := analyze(t, p, m, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := NewExactSearcher(a, m).Search(Options{Ctx: ctx})
	if err == nil {
		t.Fatal("exact search with a canceled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// countdownCtx reports itself canceled after its first n Err() probes:
// the deterministic way to cancel between the heuristic's attempt at an
// interval and the exact search's decision there, exercising the
// mid-search abort path.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

func TestExactSearchAbortsMidSearch(t *testing.T) {
	a, m := gapLoopAnalysis(t)
	// The heuristic's failed attempt at the floor (II 7) probes the
	// context once before the candidate and once a pivot of every
	// longest-path sweep; a countdown of exactly that many lets it finish
	// and cancels on the next probe, in the exact search's decision at the
	// floor or before the next candidate.
	opts := Options{ReserveBranch: true, BranchResource: machine.ResBranch, MaxII: a.MII}
	count := &countdownCtx{Context: context.Background(), n: math.MaxInt}
	opts.Ctx = count
	if _, _, err := Modulo(a, m, opts); err == nil {
		t.Fatalf("the heuristic schedules the floor %d; the test needs a loop where it fails there", a.MII)
	}
	opts.MaxII = 0
	opts.Ctx = &countdownCtx{Context: context.Background(), n: math.MaxInt - count.n}
	r, st, err := NewExactSearcher(a, m).Search(opts)
	if st.Attempts != 1 {
		t.Fatalf("canceled after %d attempts, not in the first", st.Attempts)
	}
	if err == nil {
		t.Fatalf("exact search canceled mid-search returned II %d instead of an error", r.II)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-search error %v does not wrap context.Canceled", err)
	}
	if r != nil {
		t.Fatal("canceled exact search also returned a result")
	}
}

func TestExactBudgetFallsBackToHeuristic(t *testing.T) {
	a, m := gapLoopAnalysis(t)
	opts := Options{ReserveBranch: true, BranchResource: machine.ResBranch}
	hr, _, err := Modulo(a, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A node budget of zero is exhausted by the branch-and-bound's first
	// node, so the search must return the heuristic schedule
	// bit-identically, as a success, with the fallback recorded.
	sr := NewExactSearcher(a, m)
	sr.ex.budget = 0
	er, est, err := sr.Search(opts)
	if err != nil {
		t.Fatalf("budget exhaustion surfaced as an error: %v", err)
	}
	if !est.FellBack {
		t.Fatal("a zero node budget did not trigger the heuristic fallback")
	}
	if est.Proved {
		t.Fatal("fallback result is marked proved")
	}
	if er.II != hr.II || !reflect.DeepEqual(er.Time, hr.Time) || er.Length != hr.Length {
		t.Fatalf("fallback schedule differs from the pure heuristic: II %d vs %d, times %v vs %v",
			er.II, hr.II, er.Time, hr.Time)
	}
}

func TestExactBudgetFallbackExplainNote(t *testing.T) {
	a, m := gapLoopAnalysis(t)
	sr := NewExactSearcher(a, m)
	sr.ex.budget = 0
	er, est, err := sr.Search(Options{ReserveBranch: true, BranchResource: machine.ResBranch})
	if err != nil {
		t.Fatal(err)
	}
	if !est.FellBack {
		t.Fatal("a zero node budget did not trigger the heuristic fallback")
	}
	if er.Explain == nil || len(er.Explain.Notes) == 0 {
		t.Fatal("fallback left no note in the explain report")
	}
	if !strings.Contains(er.Explain.Format(), "budget exhausted") {
		t.Fatalf("explain report does not mention the budget:\n%s", er.Explain.Format())
	}
}

func TestSearchSucceedsUnderLiveContext(t *testing.T) {
	p, m := ctxLoopAnalysis(t)
	a := analyze(t, p, m, true)
	r, _, err := Modulo(a, m, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	// Same result as the context-free search.
	r2, _, err := Modulo(a, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.II != r2.II {
		t.Fatalf("context-bearing search achieved II %d, context-free %d", r.II, r2.II)
	}
}
