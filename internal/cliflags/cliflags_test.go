package cliflags

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func bind(t *testing.T, names []string, args ...string) (*Set, *flag.FlagSet, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := Bind(fs, names...)
	return s, fs, fs.Parse(args)
}

// TestBindOnlyNamedFlags: a driver gets exactly the flags it binds, with
// the shared defaults unless it overrides one.
func TestBindOnlyNamedFlags(t *testing.T) {
	_, fs, err := bind(t, []string{"machine", "verify=true"})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Lookup("explain") != nil || fs.Lookup("parallel") != nil {
		t.Error("unbound shared flags were declared")
	}
	if f := fs.Lookup("verify"); f == nil || f.DefValue != "true" || f.Value.String() != "true" {
		t.Errorf("verify=true did not become the default: %+v", f)
	}
	if _, _, err := bind(t, []string{"machine"}, "-explain"); err == nil {
		t.Error("a flag the driver did not bind was accepted")
	}
}

func TestBindUnknownNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bind accepted a name it does not declare")
		}
	}()
	Bind(flag.NewFlagSet("test", flag.ContinueOnError), "no-such-flag")
}

// TestOpenResolves: the flag values land in (machine, options,
// workers, verify), and -trace / -memprofile produce their files on Close.
func TestOpenResolves(t *testing.T) {
	dir := t.TempDir()
	trace, mem := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.prof")
	s, _, err := bind(t, []string{"machine", "verify", "explain", "parallel", "trace", "memprofile"},
		"-machine", "wide2", "-verify", "-explain", "-parallel", "3", "-trace", trace, "-memprofile", mem)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Open("unit")
	if err != nil {
		t.Fatal(err)
	}
	if r.Machine.Name != "wide2" || !r.Verify || !r.Explain || r.Workers != 3 {
		t.Errorf("resolved %s verify=%v explain=%v workers=%d", r.Machine.Name, r.Verify, r.Explain, r.Workers)
	}
	o := r.Options
	if o.Tracer == nil || o.VerifyEmitted {
		t.Errorf("options %+v", o)
	}
	r.Close()
	for _, p := range []string{trace, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", p, err)
		}
	}
}

func TestOpenRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{{"-machine", "nope"}} {
		s, _, err := bind(t, []string{"machine"}, args...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Open("unit"); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
