package workloads

import (
	"fmt"
	"math/rand"
	"strings"
)

// RandomSource generates deterministic random W2 source text, the
// source-level counterpart of RandomProgram for exercising the compile
// service: the same seed always yields the same text (hence the same
// content-addressed cache key), different seeds yield distinct programs
// (distinct coefficients land in the canonicalized source, so the keys
// differ).  Every generated program parses, compiles, and terminates.
func RandomSource(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	id := seed
	if id < 0 {
		id = -id
	}
	size := 64 + 32*rng.Intn(4)
	var b strings.Builder
	fmt.Fprintf(&b, "program load%d;\nconst n = %d;\n", id, size)
	fmt.Fprintf(&b, "var u, v, w: array [0..%d] of real;\n    s: real;\n    k: int;\nbegin\n  s := 0.0;\n", size-1)
	coef := func() string { return fmt.Sprintf("%.3f", 0.1+0.9*rng.Float64()) }
	nLoops := 1 + rng.Intn(3)
	for i := 0; i < nLoops; i++ {
		switch rng.Intn(4) {
		case 0: // independent elementwise update
			fmt.Fprintf(&b, "  for k := 0 to n-3 do\n    u[k] := v[k]*%s + w[k+%d]*%s;\n",
				coef(), 1+rng.Intn(2), coef())
		case 1: // scalar reduction (recurrence through s)
			fmt.Fprintf(&b, "  for k := 0 to n-1 do\n    s := s + u[k]*%s;\n", coef())
		case 2: // first-order memory recurrence
			fmt.Fprintf(&b, "  for k := 1 to n-1 do\n    w[k] := w[k-1]*%s + v[k];\n", coef())
		default: // conditional body (hierarchical reduction's target)
			fmt.Fprintf(&b, "  for k := 0 to n-1 do\n    if u[k] > %s then\n      v[k] := u[k]*%s\n    else\n      v[k] := u[k] + %s;\n",
				coef(), coef(), coef())
		}
	}
	b.WriteString("end.\n")
	return b.String()
}

// HeavySource generates a program with `loops` independent loops, enough
// compile work that a millisecond-scale deadline reliably trips the
// compiler's between-loop and between-candidate-II context checks before
// compilation can finish.  Deterministic; used by the service's deadline
// tests.
func HeavySource(loops int) string {
	var b strings.Builder
	b.WriteString("program heavy;\nvar a, bb, c, d: array [0..255] of real;\n    k: int;\nbegin\n")
	for i := 0; i < loops; i++ {
		fmt.Fprintf(&b, "  for k := 0 to 254 do\n    a[k] := a[k]*0.5 + bb[k]*c[k] + d[k]*%d.0 + bb[k+1]*c[k];\n", i+1)
	}
	b.WriteString("end.\n")
	return b.String()
}
