// Outer-loop software pipelining (§3.2 taken to its limit).  A 4-tap
// FIR filter has a serial inner loop: each tap feeds the next through
// the 7-cycle adder, so the inner loop cannot initiate faster than one
// tap per 7 cycles, and loop reduction additionally pays the inner
// prolog and epilog once per output sample.  Fully unrolling the four
// taps (the `unroll` directive on the inner loop) makes the *outer* loop
// innermost: the accumulator is re-initialized every sample, the
// recurrence disappears, and the modulo scheduler initiates a whole
// sample per memory-bound II.
package main

import (
	"fmt"
	"log"
	"strings"

	"softpipe"
)

const src = `
program fir;
const n = 512;
var a: array [0..515] of real;
    w: array [0..3] of real;
    c: array [0..511] of real;
    s: real;
    i, j: int;
begin
  for i := 0 to n-1 do begin
    s := 0.0;
    unroll for j := 0 to 3 do
      s := s + a[i+j]*w[j];
    c[i] := s;
  end;
end.
`

func compile(src string) (*softpipe.Object, *softpipe.Result) {
	prog, err := softpipe.ParseSource(src)
	if err != nil {
		log.Fatal(err)
	}
	a := prog.Array("a")
	for i := 0; i < a.Size; i++ {
		a.InitF = append(a.InitF, float64(i%17)*0.5-4)
	}
	prog.Array("w").InitF = []float64{0.125, 0.375, 0.375, 0.125}
	obj, err := softpipe.Compile(prog, softpipe.Warp(), softpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := obj.Verify()
	if err != nil {
		log.Fatal(err)
	}
	return obj, res
}

func main() {
	_, reduced := compile(strings.Replace(src, "unroll ", "", 1))
	obj, unrolled := compile(src)

	fmt.Printf("loop reduction only:    %6d cycles  %5.2f MFLOPS/cell\n",
		reduced.Cycles, reduced.CellMFLOPS)
	lr := obj.Report.Loops[0]
	fmt.Printf("outer-loop pipelining:  %6d cycles  %5.2f MFLOPS/cell  (one loop, II=%d, bound %d)\n",
		unrolled.Cycles, unrolled.CellMFLOPS, lr.II, lr.MII)
	fmt.Printf("speedup: %.1fx — both verified bit-exact against the interpreter\n",
		float64(reduced.Cycles)/float64(unrolled.Cycles))
}
