package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeAndSchema runs every workload at 1/100 size with the oracles on,
// untraced and traced, and holds the output to BENCHMARK.json: exactly the
// declared metrics with their units, well-formed names, counts within the
// contract's limits, no failed operation, and spans that account for the
// operations' wall time.
func TestSmokeAndSchema(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		check("per-layer metric", m.Name)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the runner has %d", len(spec.Workloads), len(workloads))
	}

	outDir := filepath.Join(t.TempDir(), "out")
	for _, ws := range spec.Workloads {
		check("workload", ws.Name)
		if _, ok := workloads[ws.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", ws.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			o := runOpts{workload: ws.Name, seed: 7, seconds: 0.3, trace: trace, scale: 0.01, outDir: outDir}
			res, info, err := runOne(spec, o)
			if err != nil {
				t.Errorf("%s trace=%v: %v", ws.Name, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", ws.Name, trace, res.Failed, res.Attempted, info["first_failure"])
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", ws.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", ws.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, declared %q", ws.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", ws.Name, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", ws.Name, m.Name, got.Value)
				}
			}
			if trace {
				if c, _ := info["span_coverage"].(float64); c < 0.9 || c > 1.1 {
					t.Errorf("%s: span self times cover %.3f of the operations' wall time, want within 10%%", ws.Name, c)
				}
				if _, err := os.Stat(filepath.Join(outDir, "trace_"+ws.Name+".json")); err != nil {
					t.Errorf("%s: %v", ws.Name, err)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; Python gives 1.5, 12", q1, q3)
	}
}
