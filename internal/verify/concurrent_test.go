package verify_test

import (
	"sync"
	"testing"

	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/verify"
	"softpipe/internal/workloads"
)

// TestConcurrentVerification: runs reuse a kept term store, so four
// goroutines verifying at once must reach exactly the verdicts one
// goroutine reaches alone, error texts included — over the suite on
// Warp, mutants of every eighth suite object (whose refusals render
// terms), and saxpy on two cells, whose verify.Array runs every cell in
// one store.
func TestConcurrentVerification(t *testing.T) {
	m := machine.Warp()
	var jobs []func() error
	for i, sp := range workloads.Suite() {
		obj, _ := compileOn(t, sp.Prog, "warp")
		jobs = append(jobs, func() error { return verify.Program(sp.Prog, obj, m) })
		if i%8 != 0 {
			continue
		}
		_, st, err := sim.Run(obj, m)
		if err != nil {
			t.Fatal(err)
		}
		opts := verify.Options{MaxCycles: 4*st.Cycles + 10_000}
		muts := verify.Mutations(obj)
		for k := 0; k < len(muts); k += max(1, len(muts)/6) {
			mut := verify.CloneProgram(obj)
			muts[k].Apply(mut)
			jobs = append(jobs, func() error { return verify.ProgramOpts(sp.Prog, mut, m, opts) })
		}
	}
	arr := saxpyArray(t, 2)
	jobs = append(jobs, func() error { return arr.verify(verify.Options{}) })

	verdict := func(err error) string {
		if err == nil {
			return "ok"
		}
		return err.Error()
	}
	want := make([]string, len(jobs))
	refused := 0
	for i, job := range jobs {
		if want[i] = verdict(job()); want[i] != "ok" {
			refused++
		}
	}
	if refused == 0 || refused == len(jobs) {
		t.Fatalf("%d of %d runs refused; the comparison needs both verdicts", refused, len(jobs))
	}

	const workers = 4
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]string, len(jobs))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts a quarter further along, so different
			// objects overlap in time.
			for k := range jobs {
				i := (k + w*len(jobs)/workers) % len(jobs)
				got[w][i] = verdict(jobs[i]())
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i := range jobs {
			if got[w][i] != want[i] {
				t.Errorf("worker %d, run %d: %q, alone %q", w, i, got[w][i], want[i])
			}
		}
	}
	t.Logf("%d runs, %d refused, on %d workers", len(jobs), refused, workers)
}
