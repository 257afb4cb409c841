package compiled

import (
	"context"
	"testing"

	"softpipe/internal/machine"
	"softpipe/internal/sim"
)

// BenchmarkCompiledWholeRun measures Build+Run end to end on a 100k-iter
// kernel (the amortization story: build once, run millions of cycles).
func BenchmarkCompiledWholeRun(b *testing.B) {
	m := machine.Warp()
	p := kernelProg(100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Run(p, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpWholeRun is the same workload on the interpreter, for
// side-by-side comparison in one bench invocation.
func BenchmarkInterpWholeRun(b *testing.B) {
	m := machine.Warp()
	p := kernelProg(100_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.Run(p, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchRun measures lanes/sec over one compiled program (16
// lanes × 10k iterations).
func BenchmarkBatchRun(b *testing.B) {
	m := machine.Warp()
	cp, err := Build(kernelProg(10_000), m)
	if err != nil {
		b.Fatal(err)
	}
	lanes := make([]Lane, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := NewBatch(cp, lanes)
		if _, err := batch.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyStateZeroAllocs pins the fast path at zero allocations per
// cycle: total Run allocations must not grow with the iteration count
// (the engagement's one-time buffer allocation cancels in the
// difference).
func TestSteadyStateZeroAllocs(t *testing.T) {
	m := machine.Warp()
	allocsFor := func(iters int64) float64 {
		p := kernelProg(iters)
		cp, err := Build(p, m)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			c := NewCell(cp)
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocsFor(2_000), allocsFor(200_000)
	if long > short {
		t.Fatalf("steady state allocates: %.1f allocs at 2k iters vs %.1f at 200k", short, long)
	}
}
