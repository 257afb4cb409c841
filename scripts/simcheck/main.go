// Command simcheck emits Livermore kernel sources for CLI-level
// differential smoke runs (scripts/sim_smoke.sh, scripts/array_smoke.sh):
//
//	simcheck -emit-kernel k1-hydro -o hydro.w2
package main

import (
	"flag"
	"log"
	"os"

	"softpipe/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simcheck: ")
	emit := flag.String("emit-kernel", "", "write this Livermore kernel's W2 source and exit")
	out := flag.String("o", "", "output path for -emit-kernel")
	flag.Parse()

	if *emit == "" || *out == "" {
		log.Fatal("usage: simcheck -emit-kernel name -o file.w2")
	}
	for _, k := range workloads.Livermore() {
		if k.Name == *emit {
			if err := os.WriteFile(*out, []byte(k.Source), 0o644); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	log.Fatalf("unknown Livermore kernel %q", *emit)
}
