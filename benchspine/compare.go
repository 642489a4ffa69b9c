package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// suiteDoc is the document `benchspine all` writes and `compare` reads.
type suiteDoc struct {
	Seed      int64                    `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Runs      int                      `json:"runs"`
	Claim     any                      `json:"claim"` // always null: the benchmark measures, it claims nothing
	Workloads map[string]*suiteResults `json:"workloads"`
}

type suiteResults struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]*series     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Info      map[string]any         `json:"info"`
	TraceInfo map[string]any         `json:"trace_info"`
}

// series is one end-to-end metric over the suite's runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
}

// child runs one workload run in a fresh process (so peak RSS, GC state and
// intern tables are per run) and parses the two JSON lines it prints.
func child(args ...string) (runResult, map[string]any, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return runResult{}, nil, fmt.Errorf("run %v printed no result: %v", args, err)
	}
	var res runResult
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return runResult{}, nil, fmt.Errorf("run %v: %v", args, jerr)
	}
	var head struct {
		Info map[string]any `json:"info"`
	}
	_ = json.Unmarshal([]byte(lines[len(lines)-2]), &head)
	// A run that failed its oracle exits non-zero after printing; the
	// result line carries the verdict.
	return res, head.Info, nil
}

// cmdAll runs every workload and prints one JSON document.
func cmdAll(spec *benchSpec, args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "first seed; run i uses seed+i")
	seconds := fs.Float64("seconds", float64(spec.RunSeconds), "length of each timed phase")
	runs := fs.Int("runs", 5, "untraced runs per workload")
	out := fs.String("out", "", "also write the document to this file")
	only := fs.String("workload", "", "run only this workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	doc := suiteDoc{Seed: *seed, Seconds: *seconds, Runs: *runs, Workloads: map[string]*suiteResults{}}
	mismatch := false
	for _, ws := range spec.Workloads {
		if *only != "" && ws.Name != *only {
			continue
		}
		r := &suiteResults{EndToEnd: map[string]*series{}, PerLayer: map[string]metricValue{}}
		doc.Workloads[ws.Name] = r
		for i := 0; i < *runs; i++ {
			res, info, err := child("--workload", ws.Name, "--seed", fmt.Sprint(*seed+int64(i)),
				"--seconds", fmt.Sprint(*seconds), "--trace", "0")
			if err != nil {
				return err
			}
			r.Attempted += res.Attempted
			r.Failed += res.Failed
			r.Info = info
			for name, m := range res.Metrics {
				s := r.EndToEnd[name]
				if s == nil {
					s = &series{Unit: m.Unit}
					r.EndToEnd[name] = s
				}
				s.Values = append(s.Values, m.Value)
			}
		}
		for _, s := range r.EndToEnd {
			s.Median = median(s.Values)
		}
		res, info, err := child("--workload", ws.Name, "--seed", fmt.Sprint(*seed),
			"--seconds", fmt.Sprint(*seconds), "--trace", "1")
		if err != nil {
			return err
		}
		r.Attempted += res.Attempted
		r.Failed += res.Failed
		r.PerLayer, r.TraceInfo = res.Metrics, info
		mismatch = mismatch || r.Failed > 0
		fmt.Fprintf(os.Stderr, "%s: %d runs, %d operations, %d failed\n", ws.Name, *runs+1, r.Attempted, r.Failed)
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	if mismatch {
		return fmt.Errorf("at least one operation failed its oracle")
	}
	return nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is the rule the benchmark's bounds are stated in.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

func loadSuite(path string) (*suiteDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d suiteDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// cmdCompare prints, per workload and end-to-end metric, both medians, the
// ratio B/A, the bound and a verdict: unresolved when either side's own
// spread is wider than the bound, worse when B's median is worse than A's
// by more than the bound, ok otherwise. It fails if anything is worse.
func cmdCompare(spec *benchSpec, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A.json B.json")
	}
	a, err := loadSuite(args[0])
	if err != nil {
		return err
	}
	b, err := loadSuite(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %-16s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "spread", "verdict")
	worse := 0
	for _, ws := range spec.Workloads {
		ra, rb := a.Workloads[ws.Name], b.Workloads[ws.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, sb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			if sa == nil || sb == nil {
				continue
			}
			ma, mb := median(sa.Values), median(sb.Values)
			sp := spread(sa.Values)
			if s := spread(sb.Values); s > sp {
				sp = s
			}
			change := ratio(mb-ma, ma) // positive = B larger
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case sp > m.Bound && m.Name != "setup_s":
				verdict = "unresolved"
			case change > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-15s %-16s %14.4f %14.4f %9.4f %7.2f %8.4f  %s\n", ws.Name, m.Name, ma, mb, ratio(mb, ma), m.Bound, sp, verdict)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Printf("%-15s failed operations: A %d of %d, B %d of %d\n", ws.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			worse++
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
