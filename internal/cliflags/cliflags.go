// Package cliflags declares, once, the flags that w2c, livermore and
// warpbench share, and owns what those flags set up and tear down: the
// parsed machine and compile options, the CPU/heap profiles and
// the Chrome trace file.  A driver binds only the names it has:
//
//	shared := cliflags.Bind(flag.CommandLine, "machine", "verify=true", ...)
//	flag.Parse()
//	run, err := shared.Open("livermore")
//	defer run.Close()
//
// so a flag means the same thing, with the same help text, everywhere it
// exists, and a new shared flag is one case here instead of three
// declarations, three parses and three teardown blocks.
package cliflags

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"softpipe"
)

// Set holds the raw values of the shared flags bound to one FlagSet.
type Set struct {
	machine                       string
	verify, explain               bool
	parallel                      int
	trace, cpuprofile, memprofile string
}

// Bind declares the named shared flags on fs.  A name may carry the
// driver's default as "name=value" (livermore verifies by default, the
// other two do not); an unknown name is a programming error and panics.
func Bind(fs *flag.FlagSet, names ...string) *Set {
	s := &Set{}
	for _, n := range names {
		name, def, hasDef := strings.Cut(n, "=")
		switch name {
		case "machine":
			fs.StringVar(&s.machine, name, "warp", "target machine: warp, scalar, wideN (e.g. wide4), or gen:... (e.g. gen:fa2,fm2,mem2,rot)")
		case "verify":
			fs.BoolVar(&s.verify, name, false, "run the independent object-code verifier on every emitted binary and check every simulation against the reference interpreter")
		case "explain":
			fs.BoolVar(&s.explain, name, false, "print the II-search explain report for every loop")
		case "trace":
			fs.StringVar(&s.trace, name, "", "write a Chrome trace_event JSON of the compile/simulate phases to this file")
		case "parallel":
			fs.IntVar(&s.parallel, name, 0, "worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		case "cpuprofile":
			fs.StringVar(&s.cpuprofile, name, "", "write a CPU profile to this file")
		case "memprofile":
			fs.StringVar(&s.memprofile, name, "", "write a heap profile to this file on exit")
		default:
			panic("cliflags: unknown shared flag " + name)
		}
		if hasDef {
			f := fs.Lookup(name)
			if err := f.Value.Set(def); err != nil {
				panic(fmt.Sprintf("cliflags: default %s: %v", n, err))
			}
			f.DefValue = def
		}
	}
	return s
}

// Run is the parsed, opened state of the shared flags.
type Run struct {
	Machine *softpipe.Machine
	// Options carries what the flags say about a compile: with -trace, a
	// Tracer named after the run.
	// -verify is reported separately: w2c verifies the finished object,
	// the harness drivers set Options.VerifyEmitted.
	Options softpipe.Options
	Verify  bool
	// Explain is -explain: print every loop's explain report, which every
	// compile records.
	Explain bool
	// Workers is -parallel.
	Workers int

	trace, memprofile string
	cpu               *os.File
}

// Open resolves the flag values (call it after fs.Parse) and starts the
// CPU profile.  traceName labels the tracer -trace creates.
func (s *Set) Open(traceName string) (*Run, error) {
	r := &Run{Verify: s.verify, Explain: s.explain, Workers: s.parallel, trace: s.trace, memprofile: s.memprofile}
	var err error
	if r.Machine, err = softpipe.ParseMachine(s.machine); err != nil {
		return nil, err
	}
	if s.trace != "" {
		r.Options.Tracer = softpipe.NewTracer(traceName)
	}
	if s.cpuprofile != "" {
		if r.cpu, err = os.Create(s.cpuprofile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(r.cpu); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Close finishes the CPU profile, snapshots the heap and writes the
// trace.  It reports through log (the drivers' stderr prefix) and exits
// on a write failure, as each driver did on its own.
func (r *Run) Close() {
	if r.cpu != nil {
		pprof.StopCPUProfile()
		r.cpu.Close()
	}
	if r.memprofile != "" {
		writeFile(r.memprofile, func(f *os.File) error {
			runtime.GC()
			return pprof.WriteHeapProfile(f)
		})
	}
	if r.trace != "" {
		writeFile(r.trace, func(f *os.File) error { return r.Options.Tracer.WriteJSON(f) })
		log.Printf("wrote trace to %s", r.trace)
	}
}

func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
