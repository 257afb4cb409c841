package workloads

import (
	"fmt"
	"strings"

	"softpipe/internal/codegen"
	"softpipe/internal/ir"
	"softpipe/internal/lang"
	"softpipe/internal/machine"
	"softpipe/internal/sim"
	"softpipe/internal/vliw"
)

// Systolic matrix multiplication, the way the paper's Table 4-1 actually
// ran it: C = A·B on a linear array where cell k owns columns
// [k·w, (k+1)·w) of B, rows of A stream through the cells (each cell
// forwards the stream), and result blocks drain through the array after
// the compute phase.  Per inner step a cell does w multiplies and w adds
// against w independent accumulators, so both FPUs saturate: the modulo
// scheduler reaches II = w with 2w flops per iteration — peak rate.

// SystolicMatmulSource generates the per-cell W2 program: n×n times n×w
// block with w accumulators unrolled in the source.
func SystolicMatmulSource(n, w int) string {
	var decl, zero, acc, store strings.Builder
	for j := 0; j < w; j++ {
		if j > 0 {
			decl.WriteString(", ")
		}
		fmt.Fprintf(&decl, "c%d", j)
		fmt.Fprintf(&zero, "    c%d := 0.0;\n", j)
		fmt.Fprintf(&acc, "      c%d := c%d + a*b[k][%d];\n", j, j, j)
		fmt.Fprintf(&store, "    c[i][%d] := c%d;\n", j, j)
	}
	return fmt.Sprintf(`
program syscell;
const n = %d;
const w = %d;
var b: array [0..%d] of array [0..%d] of real;
    c: array [0..%d] of array [0..%d] of real;
    fwd: array [0..0] of real;
    a, %s: real;
    i, k, m, fn: int;
begin
  for i := 0 to n-1 do begin
%s    for k := 0 to n-1 do begin
      a := receive();
      send(a);
%s    end;
%s  end;
  fn := trunc(fwd[0]);
  for m := 1 to fn do
    send(receive());
  for i := 0 to n-1 do
    for k := 0 to w-1 do
      send(c[i][k]);
end.
`, n, w, n-1, w-1, n-1, w-1, decl.String(), zero.String(), acc.String(), store.String())
}

// SystolicMatmul compiles and runs C = A·B on `cells` cells with block
// width w = n/cells (which must divide n); it returns the result matrix
// (row-major), the array statistics, and the per-cell binary.
func SystolicMatmul(m *machine.Machine, n, cells int, a, b []float64) ([]float64, sim.Stats, *vliw.Program, error) {
	w := n / cells
	if w*cells != n {
		return nil, sim.Stats{}, nil, fmt.Errorf("systolic: %d cells do not divide n=%d", cells, n)
	}
	src := SystolicMatmulSource(n, w)
	p, err := lang.Compile(src)
	if err != nil {
		return nil, sim.Stats{}, nil, err
	}
	return runSystolic(m, p, n, cells, w, a, b)
}

func runSystolic(m *machine.Machine, p *ir.Program, n, cells, w int, a, b []float64) ([]float64, sim.Stats, *vliw.Program, error) {
	bin, _, err := codegen.Compile(p, m, codegen.Options{})
	if err != nil {
		return nil, sim.Stats{}, nil, err
	}
	// One compile, per-cell data: each cell binary shares the code but
	// carries its own B block and forward count.
	sims := make([]*sim.Sim, cells)
	for cell := 0; cell < cells; cell++ {
		cp := *bin
		cp.InitF = map[string][]float64{}
		for k, v := range bin.InitF {
			cp.InitF[k] = v
		}
		block := make([]float64, n*w)
		for i := 0; i < n; i++ {
			for j := 0; j < w; j++ {
				block[i*w+j] = b[i*n+cell*w+j]
			}
		}
		cp.InitF["b"] = block
		cp.InitF["fwd"] = []float64{float64(cell * n * w)}
		sims[cell] = sim.New(&cp, m)
	}
	// Input: rows of A streamed once per row per cell pass.
	input := make([]float64, 0, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			input = append(input, a[i*n+k])
		}
	}
	arr := sim.NewArrayCells(sims, input)
	out, _, err := arr.Run()
	if err != nil {
		return nil, sim.Stats{}, nil, err
	}
	// The last cell forwards the A stream before the result blocks.
	if len(out) != n*n+cells*n*w {
		return nil, sim.Stats{}, nil, fmt.Errorf("systolic: got %d output words, want %d", len(out), n*n+cells*n*w)
	}
	res := out[n*n:]
	c := make([]float64, n*n)
	for cell := 0; cell < cells; cell++ {
		block := res[cell*n*w : (cell+1)*n*w]
		for i := 0; i < n; i++ {
			for j := 0; j < w; j++ {
				c[i*n+cell*w+j] = block[i*w+j]
			}
		}
	}
	return c, arr.Stats(), bin, nil
}
