package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// spec mirrors the parts of BENCHMARK.json the smoke test holds the
// program to.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all six workloads at a fiftieth of their size, untraced
// twice and traced once, and checks that every metric BENCHMARK.json
// names is emitted with its unit, that nothing fails, and that the exact
// metrics repeat.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(s.Workloads), len(workloadNames))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 1, seconds: 0.2, scale: 0.02, traceOut: filepath.Join(t.TempDir(), "trace.json")}
			first := smokeRun(t, cfg, s.EndToEnd)
			again := smokeRun(t, cfg, s.EndToEnd)
			for _, exact := range []string{"sim_cycles_total", "code_words_total"} {
				if first.Metrics[exact] != again.Metrics[exact] {
					t.Errorf("%s did not repeat: %v, then %v", exact, first.Metrics[exact], again.Metrics[exact])
				}
			}
			cfg.trace = true
			smokeRun(t, cfg, s.PerLayer)
			if _, err := os.Stat(cfg.traceOut); err != nil {
				t.Errorf("traced run wrote no trace: %v", err)
			}
		})
	}
}

func smokeRun(t *testing.T, cfg config, want []specMetric) *result {
	t.Helper()
	res, err := runBench(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !nameRE.MatchString(m.Name):
			t.Errorf("metric name %q is not of the allowed form", m.Name)
		case !ok:
			t.Errorf("metric %s is not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if !cfg.trace {
		for name, m := range res.Metrics {
			if m.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", name)
			}
		}
		printed := map[string]bool{}
		for _, m := range res.ungated {
			printed[m.name] = true
			if !nameRE.MatchString(m.name) || m.unit == "" || m.samples < 1 {
				t.Errorf("printed metric %+v lacks a well-formed name, a unit or a sample count", m)
			}
		}
		for _, name := range []string{"ops_per_s", "op_p50_ms", "fail_share"} {
			if !printed[name] {
				t.Errorf("untraced run does not print %s", name)
			}
		}
		if printed["serve_warm_p50_ms"] != (cfg.workload == "serve-mixed") {
			t.Errorf("serve_* printed: %v on %s", printed["serve_warm_p50_ms"], cfg.workload)
		}
	}
	return res
}

// TestSeedDrawsCorpus checks that the seed decides the drawn programs:
// the same seed draws the same ones, another seed others.
func TestSeedDrawsCorpus(t *testing.T) {
	names := func(us []unit) string {
		s := ""
		for _, u := range us {
			s += u.name + " "
		}
		return s
	}
	exact := func(seed int64) string {
		us, err := exactUnits(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		return names(us)
	}
	if a, b := names(corpusUnits(1, 1)), names(corpusUnits(1, 1)); a != b {
		t.Error("compile-corpus: one seed drew two corpora")
	}
	if a, b := names(corpusUnits(1, 1)), names(corpusUnits(2, 1)); a == b {
		t.Error("compile-corpus: two seeds drew the same corpus")
	}
	if a, b := exact(1), exact(1); a != b {
		t.Error("compile-exact: one seed drew two corpora")
	}
	if a, b := exact(1), exact(2); a == b {
		t.Error("compile-exact: two seeds drew the same corpus")
	}
}
