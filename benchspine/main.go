// Command benchspine is the repository's benchmark: six named closed-loop
// workloads against the product's default options, every answer checked
// against an oracle that is independent of the system, end-to-end metrics
// from untraced runs and per-layer metrics from a separate traced run.
//
//	benchspine --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one run; the last output line is the result object BENCHMARK.json
//	    describes (--trace 0: end-to-end metrics, --trace 1: per-layer).
//	benchspine all [--seed n] [--seconds s] [--runs r] [--out file]
//	    every workload, r untraced runs on consecutive seeds plus one traced
//	    run each, as one JSON document.
//	benchspine compare A.json B.json
//	    per workload and end-to-end metric: both medians, the ratio, the
//	    bound and a verdict.
//
// Run it through benchspine/run.sh, which builds it inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchspine:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "benchspine", "out")
	if len(args) > 0 {
		switch args[0] {
		case "all":
			return cmdAll(spec, args[1:])
		case "compare":
			return cmdCompare(spec, args[1:])
		}
	}
	return cmdRun(spec, outDir, args)
}

// cmdRun is the contract's single run.
func cmdRun(spec *benchSpec, outDir string, args []string) error {
	fs := flag.NewFlagSet("benchspine", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Float64("seconds", float64(spec.RunSeconds), "length of the timed phase")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if _, ok := workloads[*name]; !ok {
		return fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames())
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	o := runOpts{workload: *name, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, outDir: outDir}
	res, info, err := runOne(spec, o)
	if err != nil {
		return err
	}
	if err := printJSON(map[string]any{"workload": *name, "seed": *seed, "trace": *trace, "info": info}); err != nil {
		return err
	}
	if err := printJSON(res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed the oracle: %v", *name, res.Failed, res.Attempted, info["first_failure"])
	}
	return nil
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// runOne performs one run and shapes its result against the spec.
func runOne(spec *benchSpec, o runOpts) (runResult, map[string]any, error) {
	var (
		rec   *recorder
		vals  map[string]float64
		info  map[string]any
		specs []metricSpec
		err   error
	)
	if o.trace {
		rec, vals, info, err = runTraced(o)
		specs = spec.PerLayer
	} else {
		rec, vals, info, err = runUntraced(o)
		specs = spec.EndToEnd
	}
	if err != nil {
		return runResult{}, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	metrics, err := shape(specs, vals)
	if err != nil {
		return runResult{}, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	if rec.firstErr != "" {
		info["first_failure"] = rec.firstErr
	}
	attempted := rec.attempted
	if attempted < 1 {
		attempted = 1
	}
	return runResult{Correct: rec.failed == 0, Attempted: attempted, Failed: rec.failed, Metrics: metrics}, info, nil
}
