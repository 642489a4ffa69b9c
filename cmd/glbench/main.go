// Command glbench regenerates the experiment tables recorded in
// EXPERIMENTS.md: one table per quantitative claim in the paper's §5, §9
// and §10. Each table compares the system's mechanism against the baseline
// the paper argues it beats.
//
// Usage:
//
//	glbench [-e E1,E5,...] [-reps n]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"text/tabwriter"
	"time"

	"gluenail"
	"gluenail/internal/bench"
	"gluenail/internal/server"
	"gluenail/internal/storage"
	"gluenail/internal/storage/disk"
	"gluenail/internal/term"
)

var (
	reps    = flag.Int("reps", 3, "repetitions per measurement (best is reported)")
	dataDir = flag.String("data-dir", "", "directory for E11's durable stores (default: a temp dir; point at a real disk to measure its fsync cost)")
	fsyncE  = flag.String("fsync", "", "restrict E11 to one WAL fsync mode: always, batch, or none (default: sweep all)")
	cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")

	// Governor budget armed on E14's governed runs. The defaults are far
	// away on purpose: E14 measures what the always-on cancellation checks
	// cost when nothing ever trips, which is the price every governed
	// production query pays.
	govTimeout = flag.Duration("timeout", time.Hour, "E14: wall-clock deadline armed on governed runs")
	govTuples  = flag.Int64("max-tuples", 1<<40, "E14: tuple budget armed on governed runs")
	govDepth   = flag.Int("max-depth", 0, "E14: recursion-depth limit on governed runs (0 = library default)")
)

func main() {
	sel := flag.String("e", "", "comma-separated experiments to run (default all)")
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "glbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "glbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "glbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "glbench: memprofile:", err)
			}
		}()
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*sel, ",") {
		if e != "" {
			want[strings.ToUpper(e)] = true
		}
	}
	all := []struct {
		id string
		fn func()
	}{
		{"E1", e1}, {"E2", e2}, {"E3", e3}, {"E4", e4}, {"E5", e5},
		{"E6", e6}, {"E7", e7}, {"E8", e8}, {"E9", e9},
		{"E11", e11}, {"E12", e12}, {"E14", e14}, {"E16", e16},
		{"E17", e17}, {"E18", e18}, {"F1", f1}, {"A1", a1},
	}
	ran := 0
	for _, exp := range all {
		if len(want) > 0 && !want[exp.id] {
			continue
		}
		exp.fn()
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "glbench: no experiments matched; use -e E1..E18,F1,A1")
		os.Exit(1)
	}
}

// best times f over reps runs and returns the fastest.
func best(f func()) time.Duration {
	bestD := time.Duration(1<<62 - 1)
	for i := 0; i < *reps; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < bestD {
			bestD = d
		}
	}
	return bestD
}

// warm runs each function once, untimed: the first runs in a process pay
// for code and allocator warm-up that paired timings must not.
func warm(fs ...func()) {
	for _, f := range fs {
		f()
	}
}

// pair times a and b over reps runs each, alternating which of the two
// runs first, and returns the fastest of each.
func pair(a, b func()) (da, db time.Duration) {
	da, db = time.Duration(1<<62-1), time.Duration(1<<62-1)
	timed := func(f func(), d *time.Duration) {
		start := time.Now()
		f()
		*d = min(*d, time.Since(start))
	}
	for i := 0; i < *reps; i++ {
		if i%2 == 0 {
			timed(a, &da)
			timed(b, &db)
		} else {
			timed(b, &db)
			timed(a, &da)
		}
	}
	return da, db
}

func table(title, claim string, header []string, rows [][]string) {
	fmt.Printf("== %s\n", title)
	fmt.Printf("   paper: %s\n", claim)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  "+strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, "  "+strings.Join(r, "\t"))
	}
	w.Flush()
	fmt.Println()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

func ratio(a, b time.Duration) string {
	if a == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(b)/float64(a))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "glbench:", err)
		os.Exit(1)
	}
}

func e1() {
	var rows [][]string
	for _, n := range []int{10, 50, 100, 500, 1000, 2000} {
		src := bench.SyntheticProgram(n)
		d := best(func() { check(bench.CompileSource(src)) })
		rate := float64(n) / d.Seconds()
		rows = append(rows, []string{
			fmt.Sprint(n), ms(d), fmt.Sprintf("%.0f", rate),
		})
	}
	table("E1: compiler throughput (lex+parse+link+plan)",
		`"compiles about two statements per Mips-second" — expect throughput ~flat in program size`,
		[]string{"statements", "compile ms", "stmts/sec"}, rows)
}

func e2() {
	var rows [][]string
	for _, n := range []int{1000, 5000, 20000} {
		pipe := bench.NewJoinSystem(n, 4)
		mat := bench.NewJoinSystem(n, 4, gluenail.WithBaseline("materialized"))
		runP, runM := func() { check(bench.RunJoin(pipe)) }, func() { check(bench.RunJoin(mat)) }
		warm(runP, runM)
		p0, m0 := pipe.Stats().Exec.TuplesMaterialized, mat.Stats().Exec.TuplesMaterialized
		dp, dm := pair(runP, runM)
		rows = append(rows, []string{
			fmt.Sprint(n), ms(dp), ms(dm), ratio(dp, dm),
			fmt.Sprint((pipe.Stats().Exec.TuplesMaterialized - p0) / int64(*reps)),
			fmt.Sprint((mat.Stats().Exec.TuplesMaterialized - m0) / int64(*reps)),
		})
	}
	table("E2: pipelined vs fully materialized execution (3-way join)",
		`materializing the supplementary relation "costs an extra load and store for each tuple" (§9)`,
		[]string{"rows/rel", "pipelined ms", "materialized ms", "mat/pipe",
			"tuples stored (pipe)", "tuples stored (mat)"}, rows)
}

func e3() {
	var rows [][]string
	for _, dup := range []int{1, 2, 4, 16} {
		with := bench.NewDupSystem(4000/dup, dup)
		without := bench.NewDupSystem(4000/dup, dup, gluenail.WithBaseline("no-dedup"))
		runW, runN := func() { check(bench.RunDup(with)) }, func() { check(bench.RunDup(without)) }
		warm(runW, runN)
		dw, dn := pair(runW, runN)
		rows = append(rows, []string{
			fmt.Sprint(dup), ms(dw), ms(dn), ratio(dw, dn),
		})
	}
	table("E3: duplicate elimination at pipeline breaks",
		`"removing duplicates early has always been advantageous ... in the worst case [no duplicates] a loss" (§9)`,
		[]string{"dup factor", "dedup ms", "no-dedup ms", "no-dedup/dedup"}, rows)
}

func e4() {
	var rows [][]string
	const nRows, keys = 50000, 500
	for _, q := range []int{1, 2, 4, 16, 64, 256} {
		a := bench.RunSelections(storage.IndexAdaptive, nRows, keys, q)
		n := bench.RunSelections(storage.IndexNever, nRows, keys, q)
		al := bench.RunSelections(storage.IndexAlways, nRows, keys, q)
		rows = append(rows, []string{
			fmt.Sprint(q),
			fmt.Sprint(a.RowsScanned), fmt.Sprint(a.IndexBuilds),
			fmt.Sprint(n.RowsScanned),
			fmt.Sprint(al.RowsScanned), fmt.Sprint(al.IndexBuilds),
		})
	}
	table("E4: adaptive run-time index creation (50k rows, repeated selections)",
		`build an index "after the cumulative cost of selection by scanning reaches the cost of creating the index" (§10)`,
		[]string{"queries", "adaptive rows scanned", "adaptive builds",
			"never-index rows scanned", "always-index rows scanned", "always builds"}, rows)
}

func e5() {
	var rows [][]string
	for _, n := range []int{32, 64, 128} {
		semi := bench.NewTCSystem(bench.ChainEdges(n))
		naive := bench.NewTCSystem(bench.ChainEdges(n), gluenail.WithBaseline("naive"))
		ds := best(func() { _, err := semi.Query("tc(X,Y)"); check(err) })
		dn := best(func() { _, err := naive.Query("tc(X,Y)"); check(err) })
		rows = append(rows, []string{
			fmt.Sprint(n), ms(ds), ms(dn), ratio(ds, dn),
		})
	}
	table("E5: semi-naive (uniondiff) vs naive recursion (full closure of a chain)",
		`the back end implements uniondiff "to support compiled recursive NAIL! queries" (§10)`,
		[]string{"chain length", "semi-naive ms", "naive ms", "naive/semi"}, rows)
}

func e6() {
	var rows [][]string
	for _, sets := range []int{8, 64, 256} {
		narrowed := bench.NewDispatchSystem(sets, 4, 400)
		runtime := bench.NewDispatchSystem(sets, 4, 400, gluenail.WithBaseline("no-narrow"))
		dn := best(func() { check(bench.RunDispatch(narrowed)) })
		dr := best(func() { check(bench.RunDispatch(runtime)) })
		rows = append(rows, []string{
			fmt.Sprint(sets), ms(dn), ms(dr), ratio(dn, dr),
		})
	}
	table("E6: HiLog predicate-variable dispatch (400 unrelated relations in store)",
		`"much of the predicate selection analysis can be done at compile time" (§5); naive systems check every class at run time (§9)`,
		[]string{"sets", "narrowed ms", "runtime-deref ms", "runtime/narrowed"}, rows)
}

func e7() {
	sys1 := bench.NewSetEqSystem(64, 100)
	sys2 := bench.NewSetEqSystem(64, 100)
	dn := best(func() { check(bench.RunSetEqByName(sys1)) })
	dm := best(func() { check(bench.RunSetEqByMembers(sys2)) })
	table("E7: set equality, name matching vs extensional comparison (64 pairs of 100-element sets)",
		`"much of the time a simple string-string matching suffices to determine equality" (§5.1)`,
		[]string{"by-name ms", "set_eq ms", "set_eq/by-name"},
		[][]string{{ms(dn), ms(dm), ratio(dn, dm)}})
}

func e8() {
	var rows [][]string
	for _, calls := range []int{10, 50} {
		mem := bench.NewTemporariesSystem(40)
		lay := bench.NewTemporariesSystem(40, gluenail.WithBaseline("layered"))
		dm := best(func() { check(bench.RunTemporaries(mem, calls)) })
		dl := best(func() { check(bench.RunTemporaries(lay, calls)) })
		st := lay.Stats().Scratch
		rows = append(rows, []string{
			fmt.Sprint(calls), ms(dm), ms(dl), ratio(dm, dl),
			fmt.Sprint(st.LogBytes), fmt.Sprint(st.LatchAcquires),
		})
	}
	table("E8: tailored main-memory back end vs DBMS-layered back end (tc_e temporaries)",
		`building on a relational DBMS is "a mistake ... the system wastes much of its time" protecting short-lived temporaries (§10)`,
		[]string{"proc calls", "tailored ms", "layered ms", "layered/tailored",
			"log bytes", "latch acquires"}, rows)
}

func e9() {
	var rows [][]string
	for _, n := range []int{200, 400, 800} {
		magic := bench.NewTCSystem(bench.RandomEdges(n, n, 7))
		full := bench.NewTCSystem(bench.RandomEdges(n, n, 7), gluenail.WithBaseline("no-magic"))
		dm := best(func() { _, err := magic.Query("tc(1, X)"); check(err) })
		df := best(func() { _, err := full.Query("tc(1, X)"); check(err) })
		rows = append(rows, []string{
			fmt.Sprint(n), ms(dm), ms(df), ratio(dm, df),
		})
	}
	table("E9: magic sets for bound queries (tc(1,X) on sparse random graphs)",
		`bound calls evaluate only the relevant subset (magic templates, §8.2; set-at-a-time calls, §4)`,
		[]string{"nodes", "magic ms", "full+filter ms", "full/magic"}, rows)
}

// e12 measures the statistics-driven physical planner on a skewed join
// with no constant arguments: the compiler's static greedy scores tie, so
// textual and greedy both scan the big relation, while live row counts
// steer the run-time planner to start from the tiny probe side. Results
// are verified byte-identical across all three orderings before timing.
func e12() {
	const rare, k = 100, 4
	var rows [][]string
	for _, n := range []int{5000, 20000, 80000} {
		var ref string
		for _, mode := range []struct {
			name string
			opts []gluenail.Option
		}{
			{"textual", []gluenail.Option{gluenail.WithBaseline("no-reorder")}},
			{"greedy", []gluenail.Option{gluenail.WithBaseline("greedy-order")}},
			{"stats", nil},
		} {
			got, err := bench.SkewJoinResult(bench.NewSkewJoinSystem(n, rare, k, mode.opts...))
			check(err)
			if ref == "" {
				ref = got
			} else if got != ref {
				check(fmt.Errorf("E12: %s ordering changed the join result at n=%d", mode.name, n))
			}
		}
		textual := bench.NewSkewJoinSystem(n, rare, k, gluenail.WithBaseline("no-reorder"))
		greedy := bench.NewSkewJoinSystem(n, rare, k, gluenail.WithBaseline("greedy-order"))
		stats := bench.NewSkewJoinSystem(n, rare, k)
		dt := best(func() { check(bench.RunSkewJoin(textual)) })
		dg := best(func() { check(bench.RunSkewJoin(greedy)) })
		ds := best(func() { check(bench.RunSkewJoin(stats)) })
		rows = append(rows, []string{
			fmt.Sprint(n), ms(dt), ms(dg), ms(ds), ratio(ds, dt),
		})
	}
	table("E12: statistics-driven physical ordering (skewed join, identical results)",
		`§3.1 makes subgoal ordering the central optimisation; static scores cannot tell a 4-row probe from an 80k-row scan — live statistics can`,
		[]string{"big rows", "textual ms", "greedy ms", "stats ms", "textual/stats"}, rows)
}

// e14SpinSrc is an infinite repeat/until whose body re-derives a cross
// product, used to measure how quickly a wall-clock deadline actually
// stops a runaway program.
const e14SpinSrc = `
edb e(X), big(X,Y);

proc spin(:)
  repeat
    big(X,Y) := e(X) & e(Y).
  until empty(e(_));
  return(:) := e(_).
end
`

// e14 measures the execution governor two ways. Overhead: the
// closure + group-by workload run ungoverned versus under a never-firing
// deadline + tuple budget (-timeout/-max-tuples/-max-depth set the armed
// budget), which prices the per-instruction and per-8192-row cancellation
// checks; the target recorded in EXPERIMENTS.md is <2%. Abort latency: an
// infinite repeat/until loop under a short deadline must return
// ErrTimeout within 2x the deadline — the acceptance bound for
// cooperative cancellation granularity.
func e14() {
	const n, m, seed = 120, 240, 7
	budget := gluenail.Budget{
		Timeout:   *govTimeout,
		MaxTuples: *govTuples,
		MaxDepth:  *govDepth,
	}
	modes := []struct {
		name     string
		governed bool
		opts     []gluenail.Option
	}{
		{"ungoverned", false, nil},
		{"governed", true, []gluenail.Option{gluenail.WithBudget(budget)}},
	}
	type rec struct {
		Name        string  `json:"name"`
		NsPerOp     int64   `json:"ns_per_op"`
		OverheadPct float64 `json:"overhead_pct_vs_ungoverned"`
	}
	var recs []rec
	var rows [][]string
	var ref string
	var baseNs int64
	for _, mode := range modes {
		sys := bench.NewTCGroupSystem(n, m, seed, mode.opts...)
		check(bench.RunTCGroup(sys))
		got, err := bench.TCGroupResult(sys)
		check(err)
		if ref == "" {
			ref = got
		} else if got != ref {
			check(fmt.Errorf("E14: %s changed the reach relation", mode.name))
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				check(bench.RunTCGroup(sys))
			}
		})
		r := rec{Name: mode.name, NsPerOp: res.NsPerOp()}
		over := "-"
		if mode.governed {
			r.OverheadPct = 100 * (float64(r.NsPerOp) - float64(baseNs)) / float64(baseNs)
			over = fmt.Sprintf("%+.2f%%", r.OverheadPct)
		} else {
			baseNs = r.NsPerOp
		}
		recs = append(recs, r)
		rows = append(rows, []string{
			mode.name, ms(time.Duration(r.NsPerOp)), over,
		})
	}
	table("E14: governor overhead on the closure + group-by workload (armed, never fires)",
		`a production governor is only free if its cancellation checks vanish against tuple work; target <2% overhead`,
		[]string{"mode", "time/op", "overhead vs ungoverned"}, rows)

	// Abort latency: the governor's cooperative checks bound how long a
	// runaway loop survives past its deadline.
	const smokeDeadline = 150 * time.Millisecond
	type smokeRec struct {
		DeadlineMs float64 `json:"deadline_ms"`
		ElapsedMs  float64 `json:"elapsed_ms"`
		Within2x   bool    `json:"within_2x"`
	}
	sys := gluenail.New(gluenail.WithBudget(gluenail.Budget{Timeout: smokeDeadline, MaxLoopIters: -1}))
	check(sys.Load(e14SpinSrc))
	var es [][]any
	for i := int64(0); i < 64; i++ {
		es = append(es, []any{i})
	}
	check(sys.Assert("e", es...))
	start := time.Now()
	_, err := sys.Call("main", "spin", []any{})
	elapsed := time.Since(start)
	if !errors.Is(err, gluenail.ErrTimeout) {
		check(fmt.Errorf("E14 smoke: want ErrTimeout, got %v", err))
	}
	smoke := smokeRec{
		DeadlineMs: float64(smokeDeadline) / 1e6,
		ElapsedMs:  float64(elapsed) / 1e6,
		Within2x:   elapsed <= 2*smokeDeadline,
	}
	table("E14b: timeout abort latency on an infinite repeat/until loop",
		`a deadline is only a guarantee if cooperative checks fire often enough; acceptance bound is abort within 2x the deadline`,
		[]string{"deadline", "aborted after", "within 2x"},
		[][]string{{ms(smokeDeadline), ms(elapsed), fmt.Sprint(smoke.Within2x)}})

	out := struct {
		Experiment string   `json:"experiment"`
		Workload   string   `json:"workload"`
		TargetPct  float64  `json:"target_overhead_pct"`
		Modes      []rec    `json:"modes"`
		Smoke      smokeRec `json:"timeout_smoke"`
	}{
		Experiment: "E14 execution governor overhead + abort latency",
		Workload: fmt.Sprintf(
			"transitive closure + group_by count, %d string nodes, %d edges; smoke: infinite cross-product repeat at %v deadline",
			n, m, smokeDeadline),
		TargetPct: 2,
		Modes:     recs,
		Smoke:     smoke,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	check(err)
	check(os.WriteFile("BENCH_E14.json", append(data, '\n'), 0o644))
	fmt.Println("   wrote BENCH_E14.json")
}

// e16 measures the multi-session server: sustained throughput and tail
// latency for a mixed read/write workload over the wire, swept from 1 to
// 64 concurrent reader sessions while one writer session continuously
// churns a disjoint region of the EDB. Every reader runs inside a read
// transaction (begin/query.../end) and byte-compares each answer of a
// recursive query against its first — any difference is an isolation
// violation, and a single one fails the run. The claim under test: MVCC
// snapshots keep readers byte-stable and writers un-blocked, so read
// p99 stays flat as the writer commits throughout. Recorded in
// BENCH_E16.json for CI.
func e16() {
	const (
		chain      = 64     // reader component: tc(1,X) yields `chain` rows
		writerBase = 100000 // writer component, disjoint from the readers'
		measure    = 400 * time.Millisecond
	)

	sys := gluenail.New()
	check(sys.Load("edb edge(X,Y); tc(X,Y) :- edge(X,Y). tc(X,Z) :- tc(X,Y) & edge(Y,Z)."))
	edges := make([][]any, chain)
	for i := range edges {
		edges[i] = []any{i + 1, i + 2}
	}
	check(sys.Assert("edge", edges...))

	srv, err := server.New(server.Config{System: sys})
	check(err)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go srv.Serve(lis)
	addr := lis.Addr().String()

	render := func(res *server.QueryResult) string {
		var sb strings.Builder
		for _, row := range res.Rows {
			for _, v := range row {
				sb.WriteString(v.String())
				sb.WriteByte(' ')
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}

	type rec struct {
		Sessions   int     `json:"reader_sessions"`
		ReadQPS    float64 `json:"read_qps"`
		WriteQPS   float64 `json:"write_qps"`
		P50Micros  int64   `json:"read_p50_us"`
		P99Micros  int64   `json:"read_p99_us"`
		Violations int64   `json:"isolation_violations"`
	}
	var recs []rec
	var rows [][]string
	for _, n := range []int{1, 4, 16, 64} {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var reads, writes, violations atomic.Int64
		latCh := make(chan []time.Duration, n)

		for r := 0; r < n; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := server.Dial(addr, 5*time.Second)
				check(err)
				defer c.Close()
				if _, err := c.Begin(); err != nil {
					check(err)
				}
				base, err := c.Query("tc(1,X)")
				check(err)
				want := render(base)
				var lats []time.Duration
				for {
					select {
					case <-stop:
						check(c.End())
						latCh <- lats
						return
					default:
					}
					t0 := time.Now()
					res, err := c.Query("tc(1,X)")
					check(err)
					lats = append(lats, time.Since(t0))
					reads.Add(1)
					if render(res) != want {
						violations.Add(1)
					}
				}
			}()
		}
		// The writer churns its own component: assert a fresh edge, and
		// periodically retract the batch so the EDB stays bounded.
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := server.Dial(addr, 5*time.Second)
			check(err)
			defer c.Close()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := writerBase + i%256
				if err := c.Assert("edge", []any{k, k + 1}); err != nil {
					check(err)
				}
				writes.Add(1)
				if i%256 == 255 {
					for j := int64(0); j < 256; j++ {
						if err := c.Retract("edge", []any{writerBase + j, writerBase + j + 1}); err != nil {
							check(err)
						}
						writes.Add(1)
					}
				}
			}
		}()

		start := time.Now()
		time.Sleep(measure)
		close(stop)
		wg.Wait()
		elapsed := time.Since(start)

		var all []time.Duration
		for r := 0; r < n; r++ {
			all = append(all, <-latCh...)
		}
		slices.Sort(all)
		pct := func(p float64) time.Duration {
			if len(all) == 0 {
				return 0
			}
			i := int(p * float64(len(all)-1))
			return all[i]
		}
		if v := violations.Load(); v > 0 {
			check(fmt.Errorf("E16: %d isolation violations at %d sessions", v, n))
		}
		r := rec{
			Sessions:   n,
			ReadQPS:    float64(reads.Load()) / elapsed.Seconds(),
			WriteQPS:   float64(writes.Load()) / elapsed.Seconds(),
			P50Micros:  pct(0.50).Microseconds(),
			P99Micros:  pct(0.99).Microseconds(),
			Violations: violations.Load(),
		}
		recs = append(recs, r)
		rows = append(rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.0f", r.ReadQPS),
			fmt.Sprintf("%.3f", float64(r.P50Micros)/1000),
			fmt.Sprintf("%.3f", float64(r.P99Micros)/1000),
			fmt.Sprintf("%.0f", r.WriteQPS),
			fmt.Sprint(r.Violations),
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	check(srv.Shutdown(ctx))
	cancel()

	table(fmt.Sprintf("E16: multi-session server, snapshot-isolated reads under a live writer (GOMAXPROCS=%d)",
		runtime.GOMAXPROCS(0)),
		`a deductive database serving many sessions must keep readers consistent without blocking them on updates; MVCC snapshots give every read transaction a byte-stable view while the writer commits freely`,
		[]string{"reader sessions", "read qps", "p50 ms", "p99 ms", "write qps", "violations"}, rows)
	out := struct {
		Experiment string `json:"experiment"`
		Workload   string `json:"workload"`
		Scales     []rec  `json:"scales"`
	}{
		Experiment: "E16 multi-session server under mixed read/write load",
		Workload: fmt.Sprintf("recursive tc(1,X) over a %d-edge chain inside pinned read transactions, byte-compared per query, with one writer session churning a disjoint component; %s measurement window per scale",
			chain, measure),
		Scales: recs,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	check(err)
	check(os.WriteFile("BENCH_E16.json", append(data, '\n'), 0o644))
	fmt.Println("   wrote BENCH_E16.json")
}

// e17 measures what leaving main memory costs: the same recursive
// transitive closure on the main-memory engine, on the disk engine
// (EDB in on-disk runs with a block cache), and out-of-core (scratch
// tables capped at a tenth of the working set, spilling to disk runs
// mid-iteration instead of aborting on the cardinality budget). All
// three produce byte-identical answers; the table is the throughput
// degradation. Recorded in BENCH_E17.json for CI.
func e17() {
	const n = 2000
	edges := make([][]any, n)
	for i := range edges {
		edges[i] = []any{i + 1, i + 2}
	}
	budget := n / 10

	type rec struct {
		Config      string  `json:"config"`
		Millis      float64 `json:"ms"`
		Rows        int     `json:"rows"`
		MemRatio    float64 `json:"vs_mem"`
		RunsFlushed int64   `json:"runs_flushed"`
		RowsSpilled int64   `json:"rows_spilled"`
		BlocksRead  int64   `json:"blocks_read"`
	}
	run := func(label string, ckpt bool, opts ...gluenail.Option) rec {
		var r rec
		r.Config = label
		d := best(func() {
			sys := bench.NewTCSystem(edges, opts...)
			if ckpt {
				// Force the disk engine's memtables into on-disk runs, so
				// the measured query reads through the block cache rather
				// than an all-resident memtable.
				check(sys.Checkpoint())
			}
			res, err := sys.Query("tc(1,X)")
			check(err)
			r.Rows = len(res.Rows)
			st := sys.Stats()
			r.RunsFlushed = st.EDB.RunsFlushed + st.Scratch.RunsFlushed
			r.RowsSpilled = st.EDB.RowsSpilled + st.Scratch.RowsSpilled
			r.BlocksRead = st.EDB.BlocksRead + st.Scratch.BlocksRead
			check(sys.Close())
		})
		r.Millis = float64(d.Microseconds()) / 1000
		return r
	}

	base, err := os.MkdirTemp("", "glbench-e17-")
	check(err)
	defer os.RemoveAll(base)

	recs := []rec{
		run("mem", false),
		run("disk", true,
			gluenail.WithBackend("disk"),
			gluenail.WithDurability(filepath.Join(base, "data"))),
		run(fmt.Sprintf("spill (budget %d rows)", budget), false,
			gluenail.WithSpill(filepath.Join(base, "spill"), 0),
			gluenail.WithBudget(gluenail.Budget{MaxRelRows: budget})),
	}
	if recs[1].Rows != recs[0].Rows || recs[2].Rows != recs[0].Rows {
		check(fmt.Errorf("E17: row counts diverge across engines: %d / %d / %d",
			recs[0].Rows, recs[1].Rows, recs[2].Rows))
	}
	var rows [][]string
	for i := range recs {
		recs[i].MemRatio = recs[i].Millis / recs[0].Millis
		rows = append(rows, []string{recs[i].Config,
			fmt.Sprintf("%.3f", recs[i].Millis),
			fmt.Sprint(recs[i].Rows),
			fmt.Sprintf("%.2f", recs[i].MemRatio),
			fmt.Sprint(recs[i].RunsFlushed),
			fmt.Sprint(recs[i].RowsSpilled),
			fmt.Sprint(recs[i].BlocksRead)})
	}
	table(fmt.Sprintf("E17: storage engines & out-of-core execution, tc over a %d-edge chain", n),
		"the tailored back end is main-memory (§6), but the same evaluator runs on disk-resident relations and spills scratch tables past a memory budget — identical answers, bounded slowdown",
		[]string{"engine", "ms", "tc rows", "vs mem", "runs", "rows spilled", "blocks read"}, rows)

	out := struct {
		Experiment string `json:"experiment"`
		Workload   string `json:"workload"`
		Configs    []rec  `json:"configs"`
	}{
		Experiment: "E17 storage-engine throughput: mem vs disk vs out-of-core spill",
		Workload: fmt.Sprintf("tc(1,X) over a %d-edge chain; spill config caps scratch relations at %d in-memory rows (a tenth of the working set)",
			n, budget),
		Configs: recs,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	check(err)
	check(os.WriteFile("BENCH_E17.json", append(data, '\n'), 0o644))
	fmt.Println("   wrote BENCH_E17.json")
}

func a1() {
	var rows [][]string
	for _, n := range []int{500, 1000} {
		ordered := bench.NewReorderSystem(n)
		source := bench.NewReorderSystem(n, gluenail.WithBaseline("no-reorder"))
		do := best(func() { check(bench.RunReorder(ordered)) })
		ds := best(func() { check(bench.RunReorder(source)) })
		rows = append(rows, []string{fmt.Sprint(n), ms(do), ms(ds), ratio(do, ds)})
	}
	table("A1 (ablation): non-fixed subgoal reordering",
		`"A Glue system is free to reorder the non-fixed subgoals" (§3.1): a selective constant-argument lookup moves ahead of an unselective scan`,
		[]string{"rows", "reordered ms", "source-order ms", "source/reordered"}, rows)
}

// e11 measures what durability costs the execution model the paper
// defends: statement throughput with the WAL off, and with the WAL on
// under each fsync policy. Each measurement runs the same EDB-insert
// loop against a fresh store.
func e11() {
	base := *dataDir
	if base == "" {
		var err error
		base, err = os.MkdirTemp("", "glbench-e11-")
		check(err)
		defer os.RemoveAll(base)
	}
	const n = 1500
	type mode struct {
		label string
		dir   string
		fsync gluenail.FsyncMode
	}
	modes := []mode{{"wal off", "", 0}}
	for _, m := range []mode{
		{"wal, fsync=none", "none", gluenail.FsyncNever},
		{"wal, fsync=batch", "batch", gluenail.FsyncBatch},
		{"wal, fsync=always", "always", gluenail.FsyncAlways},
	} {
		if *fsyncE == "" || *fsyncE == m.dir {
			m.dir = filepath.Join(base, m.dir)
			modes = append(modes, m)
		}
	}
	var rows [][]string
	var off time.Duration
	for _, m := range modes {
		var stmts int64
		d := best(func() {
			sys, err := bench.NewDurableSystem(m.dir, m.fsync)
			check(err)
			check(bench.RunDurable(sys, n))
			stmts = sys.Stats().Exec.StmtsExecuted
			check(sys.Close())
		})
		if m.dir == "" {
			off = d
		}
		perSec := float64(stmts) / d.Seconds()
		rows = append(rows, []string{m.label, ms(d),
			fmt.Sprintf("%.0f", perSec), ratio(off, d)})
	}
	table(fmt.Sprintf("E11: durable EDB (write-ahead log), %d-iteration insert loop", n),
		"the tailored back end is strictly main-memory (§6); the WAL adds crash durability at statement boundaries without giving that model up",
		[]string{"mode", "ms", "stmts/sec", "off/this"}, rows)
}

func f1() {
	var rows [][]string
	for _, n := range []int{1000, 10000} {
		r := bench.NewCadRun(n)
		var key string
		d := best(func() {
			var err error
			key, err = r.Select()
			check(err)
		})
		rows = append(rows, []string{fmt.Sprint(n), ms(d), key})
	}
	table("F1: Figure 1 micro-CAD select (scripted reject-then-accept interaction)",
		"the paper's complete worked example runs as written",
		[]string{"elements", "select ms", "chosen"}, rows)
}

// e18 measures the fast-disk-engine additions: (a) query throughput when
// the working set no longer fits the block cache, with compression on and
// off; (b) cold-start membership-miss probes with and without per-run
// bloom filters; (c) durable ingest through the WAL versus the direct
// bulk path; (d) reopen time as the EDB grows (footer-only run opens make
// it a function of run count, not row count).
func e18() {
	base, err := os.MkdirTemp("", "glbench-e18-")
	check(err)
	defer os.RemoveAll(base)

	// (a) tc over a chain whose decoded blocks outsize a deliberately tiny
	// block cache: every iteration of the closure re-reads evicted blocks.
	const n = 4000
	edges := make([][]any, n)
	for i := range edges {
		edges[i] = []any{i + 1, i + 2}
	}
	type qrec struct {
		Config     string  `json:"config"`
		Millis     float64 `json:"ms"`
		Rows       int     `json:"rows"`
		MemRatio   float64 `json:"vs_mem"`
		BlocksRead int64   `json:"blocks_read"`
		CacheHits  int64   `json:"cache_hits"`
	}
	qrun := func(label string, ckpt bool, opts ...gluenail.Option) qrec {
		var r qrec
		r.Config = label
		d := best(func() {
			sys := bench.NewTCSystem(edges, opts...)
			if ckpt {
				check(sys.Checkpoint())
			}
			res, err := sys.Query("tc(1,X)")
			check(err)
			r.Rows = len(res.Rows)
			st := sys.Stats()
			r.BlocksRead = st.EDB.BlocksRead + st.Scratch.BlocksRead
			r.CacheHits = st.EDB.CacheHits + st.Scratch.CacheHits
			check(sys.Close())
		})
		r.Millis = float64(d.Microseconds()) / 1000
		return r
	}
	qrecs := []qrec{
		qrun("mem", false),
		qrun("disk packed, 8-block cache", true,
			gluenail.WithBackend("disk"),
			gluenail.WithBlockCache(8),
			gluenail.WithDurability(filepath.Join(base, "q-packed"))),
		qrun("disk raw, 8-block cache", true,
			gluenail.WithBackend("disk"),
			gluenail.WithBlockCache(8),
			gluenail.WithBlockCompression(false),
			gluenail.WithDurability(filepath.Join(base, "q-raw"))),
	}
	var qrows [][]string
	for i := range qrecs {
		qrecs[i].MemRatio = qrecs[i].Millis / qrecs[0].Millis
		if qrecs[i].Rows != qrecs[0].Rows {
			check(fmt.Errorf("E18: row counts diverge: %d vs %d", qrecs[i].Rows, qrecs[0].Rows))
		}
		qrows = append(qrows, []string{qrecs[i].Config,
			fmt.Sprintf("%.3f", qrecs[i].Millis),
			fmt.Sprint(qrecs[i].Rows),
			fmt.Sprintf("%.2f", qrecs[i].MemRatio),
			fmt.Sprint(qrecs[i].BlocksRead),
			fmt.Sprint(qrecs[i].CacheHits)})
	}
	table(fmt.Sprintf("E18a: query past the block cache, tc over a %d-edge chain", n),
		"a cache an order of magnitude smaller than the working set forces re-reads every closure iteration; packed blocks and raw blocks answer identically",
		[]string{"engine", "ms", "tc rows", "vs mem", "blocks read", "cache hits"}, qrows)

	// (b) cold-start membership misses: a reopened multi-run store is
	// probed for absent keys. Without blooms every probe must load each
	// run's hash index before it can say no; with them the probe ends at
	// an in-memory filter.
	const probeRows, probesPerOpen = 100000, 5
	probeDir := filepath.Join(base, "probe")
	pst, err := disk.Open(probeDir, disk.Options{FlushRows: 4096, NoCompactor: true})
	check(err)
	prel := pst.Ensure(term.Intern("edge"), 2)
	for i := 0; i < probeRows; i++ {
		prel.Insert(term.Tuple{term.NewInt(int64(i)), term.NewInt(int64(i + 1))})
	}
	check(pst.FlushBase())
	check(pst.Close())
	type mrec struct {
		Config      string  `json:"config"`
		MicrosProbe float64 `json:"us_per_probe"`
		RunReads    int64   `json:"run_reads"`
		BloomSkips  int64   `json:"bloom_skips"`
	}
	mrun := func(label string, o disk.Options) mrec {
		var r mrec
		r.Config = label
		d := best(func() {
			s, err := disk.Open(probeDir, o)
			check(err)
			rel, ok := s.Get(term.Intern("edge"), 2)
			if !ok {
				check(fmt.Errorf("E18: probe relation missing"))
			}
			for i := 0; i < probesPerOpen; i++ {
				if rel.Contains(term.Tuple{term.NewInt(int64(probeRows + 7*i + 1)), term.NewInt(0)}) {
					check(fmt.Errorf("E18: absent key reported present"))
				}
			}
			st := s.Stats()
			r.RunReads = st.RunIndexLoads + st.BlocksRead
			r.BloomSkips = st.BloomSkips
			check(s.Close())
		})
		r.MicrosProbe = float64(d.Nanoseconds()) / 1000 / probesPerOpen
		return r
	}
	mrecs := []mrec{
		mrun("blooms", disk.Options{NoCompactor: true}),
		mrun("no blooms", disk.Options{NoCompactor: true, NoBloom: true}),
	}
	missRatio := float64(mrecs[1].RunReads) / float64(max64(mrecs[0].RunReads, 1))
	table(fmt.Sprintf("E18b: cold-start membership misses, %d probes against a %d-row store", probesPerOpen, probeRows),
		"per-run bloom filters answer miss probes from memory; the ablation pays a chain-index load per run before it can say no",
		[]string{"config", "µs/probe (incl. open)", "run reads", "bloom skips"},
		[][]string{
			{mrecs[0].Config, fmt.Sprintf("%.1f", mrecs[0].MicrosProbe), fmt.Sprint(mrecs[0].RunReads), fmt.Sprint(mrecs[0].BloomSkips)},
			{mrecs[1].Config, fmt.Sprintf("%.1f", mrecs[1].MicrosProbe), fmt.Sprint(mrecs[1].RunReads), fmt.Sprint(mrecs[1].BloomSkips)},
		})

	// (c) durable ingest: the same rows through per-statement WAL commits
	// versus one statement large enough to take the direct bulk path.
	const ingestRows, walChunk = 327680, 1024
	type irec struct {
		Config   string  `json:"config"`
		Millis   float64 `json:"ms"`
		BulkRows int64   `json:"bulk_rows"`
		Speedup  float64 `json:"vs_wal"`
	}
	irun := func(label string, chunk int) irec {
		var r irec
		r.Config = label
		// Data synthesis stays outside the measurement: the experiment
		// times the ingest paths, not building the batch.
		var chunks [][][]any
		for lo := 0; lo < ingestRows; lo += chunk {
			rows := make([][]any, chunk)
			for j := range rows {
				rows[j] = []any{lo + j, lo + j + 1}
			}
			chunks = append(chunks, rows)
		}
		d := best(func() {
			dir, err := os.MkdirTemp(base, "ingest-")
			check(err)
			sys, err := gluenail.Open(dir,
				gluenail.WithBackend("disk"),
				gluenail.WithFsync(gluenail.FsyncAlways))
			check(err)
			check(sys.Load(`edb edge(X,Y);`))
			for _, rows := range chunks {
				check(sys.Assert("edge", rows...))
			}
			check(sys.Checkpoint())
			r.BulkRows = sys.Stats().EDB.BulkRows
			check(sys.Close())
		})
		r.Millis = float64(d.Microseconds()) / 1000
		return r
	}
	irecs := []irec{
		irun(fmt.Sprintf("WAL, %d-row statements", walChunk), walChunk),
		irun("bulk, one statement", ingestRows),
	}
	if irecs[0].BulkRows != 0 {
		check(fmt.Errorf("E18: WAL config took the bulk path (%d rows)", irecs[0].BulkRows))
	}
	if irecs[1].BulkRows == 0 {
		check(fmt.Errorf("E18: bulk config never took the bulk path"))
	}
	irecs[0].Speedup = 1
	irecs[1].Speedup = irecs[0].Millis / irecs[1].Millis
	table(fmt.Sprintf("E18c: durable ingest of %d rows, fsync per statement", ingestRows),
		"a batch past the bulk threshold builds fsynced runs directly and makes the manifest its durability point, skipping the WAL's journal-then-flush double write",
		[]string{"path", "ms", "bulk rows", "speedup"},
		[][]string{
			{irecs[0].Config, fmt.Sprintf("%.1f", irecs[0].Millis), fmt.Sprint(irecs[0].BulkRows), "1.00"},
			{irecs[1].Config, fmt.Sprintf("%.1f", irecs[1].Millis), fmt.Sprint(irecs[1].BulkRows), fmt.Sprintf("%.2f", irecs[1].Speedup)},
		})

	// (d) reopen cost versus EDB size: RUN2 opens read a trailer and
	// footer per run and the manifest's digests — no tuple bytes — so
	// reopen scales with run count, not row count.
	type rrec struct {
		Rows        int     `json:"rows"`
		Runs        int     `json:"runs"`
		OpenMillis  float64 `json:"open_ms"`
		MicrosPer1k float64 `json:"us_per_1k_rows"`
	}
	var rrecs []rrec
	var rrows [][]string
	for _, sz := range []int{40960, 163840, 655360} {
		dir := filepath.Join(base, fmt.Sprintf("reopen-%d", sz))
		s, err := disk.Open(dir, disk.Options{NoCompactor: true})
		check(err)
		rel := s.Ensure(term.Intern("edge"), 2)
		for i := 0; i < sz; i++ {
			rel.Insert(term.Tuple{term.NewInt(int64(i)), term.NewInt(int64(i + 1))})
		}
		check(s.FlushBase())
		check(s.Close())
		d := best(func() {
			s2, err := disk.Open(dir, disk.Options{NoCompactor: true})
			check(err)
			r2, _ := s2.Get(term.Intern("edge"), 2)
			if r2.Len() != sz {
				check(fmt.Errorf("E18: reopen of %d-row store sees %d rows", sz, r2.Len()))
			}
			check(s2.Close())
		})
		rec := rrec{
			Rows:        sz,
			Runs:        (sz + 32767) / 32768,
			OpenMillis:  float64(d.Microseconds()) / 1000,
			MicrosPer1k: float64(d.Nanoseconds()) / 1000 / (float64(sz) / 1000),
		}
		rrecs = append(rrecs, rec)
		rrows = append(rrows, []string{fmt.Sprint(rec.Rows), fmt.Sprint(rec.Runs),
			fmt.Sprintf("%.3f", rec.OpenMillis), fmt.Sprintf("%.2f", rec.MicrosPer1k)})
	}
	table("E18d: reopen time vs EDB size",
		"footer-only run opens plus persisted manifest digests keep reopen sublinear in rows: per-row cost falls as the store grows",
		[]string{"rows", "runs", "open ms", "µs per 1k rows"}, rrows)

	out := struct {
		Experiment string  `json:"experiment"`
		CachePress []qrec  `json:"cache_pressure"`
		MissProbes []mrec  `json:"membership_misses"`
		MissRatio  float64 `json:"miss_read_ratio"`
		Ingest     []irec  `json:"ingest"`
		Reopen     []rrec  `json:"reopen"`
	}{
		Experiment: "E18 fast disk engine: block cache pressure, bloom misses, bulk ingest, reopen scaling",
		CachePress: qrecs,
		MissProbes: mrecs,
		MissRatio:  missRatio,
		Ingest:     irecs,
		Reopen:     rrecs,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	check(err)
	check(os.WriteFile("BENCH_E18.json", append(data, '\n'), 0o644))
	fmt.Println("   wrote BENCH_E18.json")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
