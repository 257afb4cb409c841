package cliflags

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"softpipe"
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
	if fs.Lookup("effort") != nil || fs.Lookup("parallel") != nil {
		t.Error("unbound shared flags were declared")
	}
	if f := fs.Lookup("verify"); f == nil || f.DefValue != "true" || f.Value.String() != "true" {
		t.Errorf("verify=true did not become the default: %+v", f)
	}
	if _, _, err := bind(t, []string{"machine"}, "-effort", "exact"); err == nil {
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
	s, _, err := bind(t, []string{"machine", "effort", "effort-budget", "verify", "explain", "parallel", "trace", "memprofile"},
		"-machine", "wide2", "-effort", "exact", "-effort-budget", "2s",
		"-verify", "-explain", "-parallel", "3", "-trace", trace, "-memprofile", mem)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Open("unit")
	if err != nil {
		t.Fatal(err)
	}
	if r.Machine.Name != "wide2" || !r.Verify || r.Workers != 3 {
		t.Errorf("resolved %s verify=%v workers=%d", r.Machine.Name, r.Verify, r.Workers)
	}
	o := r.Options
	if o.Effort != softpipe.EffortExact || o.EffortBudget != 2*time.Second || !o.Explain || o.Tracer == nil || o.VerifyEmitted {
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
	for _, args := range [][]string{{"-machine", "nope"}, {"-effort", "maximal"}} {
		s, _, err := bind(t, []string{"machine", "effort"}, args...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Open("unit"); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
