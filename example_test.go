package softpipe_test

import (
	"fmt"
	"log"

	"softpipe"
)

// ExampleCompileSource compiles the paper's vector-update example and
// reports the initiation interval the modulo scheduler proves.
func ExampleCompileSource() {
	src := `
program vadd;
var a, c: array [0..99] of real;
    i: int;
begin
  for i := 0 to 99 do
    c[i] := a[i] + 1.0;
end.
`
	obj, err := softpipe.CompileSource(src, softpipe.Warp(), softpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	loop := obj.Report.Loops[0]
	fmt.Printf("pipelined=%v II=%d met-lower-bound=%v\n", loop.Pipelined, loop.II, loop.MetLower)
	// Output:
	// pipelined=true II=1 met-lower-bound=true
}

// ExampleObject_Verify runs a compiled program on the cycle-accurate
// cell model and checks it against the reference interpreter.
func ExampleObject_Verify() {
	src := `
program dot;
var x, y: array [0..49] of real;
    q: real;
    k: int;
begin
  q := 0.0;
  for k := 0 to 49 do
    q := q + x[k]*y[k];
end.
`
	prog, err := softpipe.ParseSource(src)
	if err != nil {
		log.Fatal(err)
	}
	xs, ys := prog.Array("x"), prog.Array("y")
	for i := 0; i < 50; i++ {
		xs.InitF = append(xs.InitF, 1)
		ys.InitF = append(ys.InitF, 2)
	}
	obj, err := softpipe.Compile(prog, softpipe.Warp(), softpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := obj.Verify()
	if err != nil {
		log.Fatal(err)
	}
	// The accumulation is bound by the 7-cycle adder: II = 7.
	fmt.Printf("q = %v, II = %d\n", res.State.Scalars["q"], obj.Report.Loops[0].II)

	// Output:
	// q = 100, II = 7
}

// The report carries a rendering of each pipelined loop's steady-state
// modulo schedule, one row per initiation-interval offset (the paper's
// Figure 2-2 view).
func ExampleLoopInfo_kernel() {
	src := `
program vadd;
var x, y: array [0..99] of real;
    i: int;
begin
  for i := 0 to 99 do
    y[i] := x[i] + 1.0;
end.
`
	obj, err := softpipe.CompileSource(src, softpipe.Warp(), softpipe.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(obj.Report.Loops[0].Kernel())

	// Output:
	// II=1 stages=11 unroll=1  (MII=1: res=1 rec=1)
	//   t%1=0 | s0:adradd  s0:iadd  s0:load[x]  s3:fadd  s10:adradd  s10:store[y]
}
