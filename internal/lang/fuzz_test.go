package lang

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzFormatFixpoint: whatever Parse accepts, Format prints as text that
// Parse accepts again and Format prints unchanged, so the canonical text a
// compile request is keyed on lexes back to itself.  Tier-1 runs the seeds
// and the crashers in testdata/fuzz/FuzzFormatFixpoint;
//
//	go test -run '^$' -fuzz FuzzFormatFixpoint -fuzztime 60s ./internal/lang
//
// explores.
func FuzzFormatFixpoint(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.w2"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no W2 sources to seed from (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		ast, err := Parse(src)
		if err != nil {
			return
		}
		once := Format(ast)
		again, err := Parse(once)
		if err != nil {
			t.Fatalf("the formatted text does not parse: %v\n%s", err, once)
		}
		if twice := Format(again); twice != once {
			t.Fatalf("Format is not a fixpoint:\n%s\nformats as\n%s", once, twice)
		}
	})
}
