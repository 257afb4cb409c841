// Conditional: hierarchical reduction (Lam §3) lets a loop whose body
// contains an if/then/else be software pipelined.  The conditional is
// scheduled as a pseudo-operation (both arms compacted, resources
// unioned), the kernel forks into padded arms, and iterations still
// overlap.
package main

import (
	"fmt"
	"log"

	"softpipe"
)

const src = `
program clip;
const n = 300;
var a, c: array [0..299] of real;
    i: int;
begin
  for i := 0 to n-1 do
    if a[i] > 0.0 then
      c[i] := a[i] * 1.5
    else
      c[i] := a[i] + 1.5;
end.
`

func build() *softpipe.Program {
	prog, err := softpipe.ParseSource(src)
	if err != nil {
		log.Fatal(err)
	}
	arr := prog.Array("a")
	for i := 0; i < 300; i++ {
		arr.InitF = append(arr.InitF, float64(i%9)-4)
	}
	return prog
}

func main() {
	warp := softpipe.Warp()
	for _, cfg := range []struct {
		name string
		opts softpipe.Options
	}{
		{"hierarchical reduction", softpipe.Options{}},
		{"unpipelined baseline", softpipe.Options{Baseline: true}},
	} {
		obj, err := softpipe.Compile(build(), warp, cfg.opts)
		if err != nil {
			log.Fatal(err)
		}
		res, err := obj.Verify()
		if err != nil {
			log.Fatal(err)
		}
		lr := obj.Report.Loops[0]
		fmt.Printf("%-26s cycles=%-6d MFLOPS/cell=%5.2f pipelined=%-5v II=%d\n",
			cfg.name, res.Cycles, res.CellMFLOPS, lr.Pipelined, lr.II)
	}
}
