// Command gluenail runs Glue-Nail programs: it loads one or more source
// files, optionally restores a persisted EDB, then calls a procedure,
// answers a one-shot query, or starts an interactive query loop.
//
// Usage:
//
//	gluenail [flags] file.glue...
//	gluenail fsck [-repair] -data-dir d        offline integrity check
//
// The fsck subcommand verifies every checksum in a data directory without
// opening the database: WAL frame CRCs, snapshot envelopes, and — when a
// disk-backed store lives under d/store — run blocks, hash sections,
// bloom filters, footers, the manifest, and the intern file. It prints
// one line per finding and exits non-zero if any serious (non-benign)
// damage remains. With -repair, auxiliary artifacts are rebuilt from the
// surviving tuple data and runs with damaged tuple bytes are quarantined
// (renamed aside and dropped from the manifest) instead of being left to
// return wrong answers.
//
//	-edb file     load this EDB image before running, save it after
//	-data-dir d   durable EDB: write-ahead log + snapshots under d,
//	              crash recovery on open
//	-store name   storage engine: mem (default) or disk (index-organized
//	              on-disk runs; with -data-dir the runs persist under
//	              d/store)
//	-spill-dir d  out-of-core scratch tables: spill to disk runs under d
//	              instead of failing on the -max-rel-rows budget
//	-spill-budget n
//	              scratch rows held in memory before spilling (0 = default)
//	-fsync mode   WAL fsync mode: batch (default), always, none
//	-call m.proc  call an exported 0-bound procedure and print its results
//	-q goals      evaluate one query conjunction and print the answers
//	-explain      print the physical plan (estimated cardinalities) for
//	              -q or -call instead of executing it
//	-explain-analyze
//	              execute -q or -call, then print the physical plan with
//	              actual per-operator tuple counts next to the estimates
//	-i            interactive query loop on stdin (default when no -call/-q)
//	-module m     module scope for queries (default "main")
//	-naive        use naive instead of semi-naive evaluation
//	-no-magic     disable magic-set rewriting
//	-timeout d    wall-clock budget per query/call (e.g. -timeout 30s);
//	              an expired call fails with a timeout error at a clean
//	              statement boundary
//	-max-tuples n max tuples inserted per query/call (memory budget)
//	-max-depth n  max procedure-call recursion depth
//	-max-iters n  max repeat-loop iterations (negative = unlimited)
//	-cpuprofile f write a CPU profile to f (inspect with go tool pprof)
//	-memprofile f write a heap profile to f on exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"gluenail"
	"gluenail/internal/storage"
	"gluenail/internal/storage/disk"
	"gluenail/internal/wal"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "fsck" {
		if err := runFsck(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "gluenail: fsck:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gluenail:", err)
		os.Exit(1)
	}
}

// runFsck is the offline integrity checker: it verifies every persistent
// checksum under a data directory (or a bare store directory) without
// opening the database, reports findings one per line, and exits non-zero
// when serious damage remains.
func runFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	repair := fs.Bool("repair", false, "rebuild damaged auxiliary structures from surviving tuple data; quarantine runs with damaged tuples")
	dataDir := fs.String("data-dir", "", "data directory to check (WAL + snapshots; disk store under data-dir/store)")
	storeDir := fs.String("store-dir", "", "bare disk-engine store directory to check (no WAL)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" && *storeDir == "" {
		if fs.NArg() == 1 {
			*dataDir = fs.Arg(0)
		} else {
			return fmt.Errorf("usage: gluenail fsck [-repair] -data-dir d  (or -store-dir d)")
		}
	}
	var findings []storage.Finding
	if *dataDir != "" {
		wf, err := wal.Verify(*dataDir)
		if err != nil {
			return err
		}
		findings = append(findings, wf...)
		st := filepath.Join(*dataDir, "store")
		if _, err := os.Stat(st); err == nil {
			df, err := disk.FsckDir(st, *repair)
			if err != nil {
				return err
			}
			findings = append(findings, df...)
		}
	}
	if *storeDir != "" {
		df, err := disk.FsckDir(*storeDir, *repair)
		if err != nil {
			return err
		}
		findings = append(findings, df...)
	}
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if n := storage.CountSerious(findings); n > 0 {
		return fmt.Errorf("%d serious finding(s)", n)
	}
	if len(findings) == 0 {
		fmt.Println("fsck: clean")
	} else {
		fmt.Println("fsck: no serious damage remains")
	}
	return nil
}

func run() error {
	var (
		edbPath     = flag.String("edb", "", "EDB image to load before and save after the run")
		dataDir     = flag.String("data-dir", "", "durable EDB directory (write-ahead log + snapshots, recovered on open)")
		store       = flag.String("store", "mem", "storage engine: mem or disk")
		spillDir    = flag.String("spill-dir", "", "spill scratch tables to disk runs under this directory")
		spillBudget = flag.Int("spill-budget", 0, "scratch rows held in memory before spilling (0 = default)")
		blockCache  = flag.Int("block-cache", 0, "disk engine decoded-block cache entries (0 = default)")
		noCompress  = flag.Bool("no-compress", false, "store disk run blocks raw instead of compressed")
		fsyncStr    = flag.String("fsync", "batch", "WAL fsync mode: batch, always, or none")
		call        = flag.String("call", "", "procedure to call, as module.proc")
		query       = flag.String("q", "", "query conjunction to evaluate")
		interactive = flag.Bool("i", false, "interactive query loop")
		module      = flag.String("module", "main", "module scope for queries")
		naive       = flag.Bool("naive", false, "naive instead of semi-naive evaluation")
		noMagic     = flag.Bool("no-magic", false, "disable magic-set rewriting")
		explain     = flag.String("plan", "", "print the compiled plan of module.proc (or 'all') and exit")
		explainPhys = flag.Bool("explain", false, "print the physical plan (estimated cardinalities) for -q or -call instead of executing")
		explainAnal = flag.Bool("explain-analyze", false, "execute -q or -call and print the physical plan with actual per-op tuple counts")
		trace       = flag.Bool("trace", false, "trace statement execution to stderr")
		stats       = flag.Bool("stats", false, "print executor statistics after the run")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget per query/call (e.g. 30s; 0 = none)")
		maxTuples   = flag.Int64("max-tuples", 0, "max tuples inserted per query/call (0 = unlimited)")
		maxRelRows  = flag.Int("max-rel-rows", 0, "max rows held in memory per relation (0 = unlimited; with -spill-dir, scratch tables spill instead of failing)")
		maxDepth    = flag.Int("max-depth", 0, "max procedure-call recursion depth (0 = default, negative = unlimited)")
		maxIters    = flag.Int("max-iters", 0, "max repeat-loop iterations (0 = default, negative = unlimited)")
	)
	var loadCSVs, saveCSVs []string
	flag.Func("load-csv", "load rel=file.csv into the EDB (repeatable)", func(v string) error {
		loadCSVs = append(loadCSVs, v)
		return nil
	})
	flag.Func("save-csv", "save rel/arity=file.csv after the run (repeatable)", func(v string) error {
		saveCSVs = append(saveCSVs, v)
		return nil
	})
	flag.Parse()
	if flag.NArg() == 0 {
		return fmt.Errorf("no source files; usage: gluenail [flags] file.glue...")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gluenail: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "gluenail: memprofile:", err)
			}
		}()
	}
	var opts []gluenail.Option
	opts = append(opts, gluenail.WithOutput(os.Stdout), gluenail.WithInput(os.Stdin))
	if *trace {
		opts = append(opts, gluenail.WithTrace(os.Stderr))
	}
	if *naive {
		opts = append(opts, gluenail.WithNaiveEvaluation())
	}
	if *noMagic {
		opts = append(opts, gluenail.WithoutMagicSets())
	}
	if *timeout != 0 || *maxTuples != 0 || *maxRelRows != 0 || *maxDepth != 0 || *maxIters != 0 {
		opts = append(opts, gluenail.WithBudget(gluenail.Budget{
			Timeout:      *timeout,
			MaxTuples:    *maxTuples,
			MaxRelRows:   *maxRelRows,
			MaxDepth:     *maxDepth,
			MaxLoopIters: *maxIters,
		}))
	}
	if *store != "" && *store != "mem" {
		opts = append(opts, gluenail.WithBackend(*store))
	}
	if *spillDir != "" {
		opts = append(opts, gluenail.WithSpill(*spillDir, *spillBudget))
	}
	if *blockCache != 0 {
		opts = append(opts, gluenail.WithBlockCache(*blockCache))
	}
	if *noCompress {
		opts = append(opts, gluenail.WithBlockCompression(false))
	}
	var sys *gluenail.System
	if *dataDir != "" {
		mode, err := parseFsync(*fsyncStr)
		if err != nil {
			return err
		}
		sys, err = gluenail.Open(*dataDir, append(opts, gluenail.WithFsync(mode))...)
		if err != nil {
			return fmt.Errorf("recovering -data-dir %q: %w", *dataDir, err)
		}
	} else {
		sys = gluenail.New(opts...)
	}
	for _, path := range flag.Args() {
		if err := sys.LoadFile(path); err != nil {
			return fmt.Errorf("loading %s: %w", path, err)
		}
	}
	if *edbPath != "" {
		if _, err := os.Stat(*edbPath); err == nil {
			if err := sys.LoadEDB(*edbPath); err != nil {
				return fmt.Errorf("loading EDB image %s: %w", *edbPath, err)
			}
		}
	}
	for _, spec := range loadCSVs {
		rel, path, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-load-csv wants rel=file.csv, got %q", spec)
		}
		if err := sys.LoadCSVFile(rel, path); err != nil {
			return fmt.Errorf("loading CSV %s into %s: %w", path, rel, err)
		}
	}
	if *explain != "" {
		if *explain == "all" {
			ids, err := sys.Procs()
			if err != nil {
				return err
			}
			for _, id := range ids {
				mod, proc, _ := strings.Cut(id, ".")
				text, err := sys.ExplainProc(mod, proc)
				if err != nil {
					return err
				}
				fmt.Print(text)
			}
			return nil
		}
		mod, proc, ok := strings.Cut(*explain, ".")
		if !ok {
			mod, proc = "main", *explain
		}
		text, err := sys.ExplainProc(mod, proc)
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil
	}
	switch {
	case (*explainPhys || *explainAnal) && *query != "":
		var text string
		var err error
		if *explainAnal {
			text, err = sys.ExplainAnalyzeIn(*module, *query)
		} else {
			text, err = sys.ExplainIn(*module, *query)
		}
		if err != nil {
			return fmt.Errorf("explaining query %q: %w", *query, err)
		}
		fmt.Print(text)
	case (*explainPhys || *explainAnal) && *call != "":
		mod, proc, ok := strings.Cut(*call, ".")
		if !ok {
			mod, proc = "main", *call
		}
		var text string
		var err error
		if *explainAnal {
			text, err = sys.ExplainAnalyzeCall(mod, proc)
		} else {
			text, err = sys.ExplainProcPhysical(mod, proc)
		}
		if err != nil {
			return fmt.Errorf("explaining %s.%s: %w", mod, proc, err)
		}
		fmt.Print(text)
	case *explainPhys || *explainAnal:
		return fmt.Errorf("-explain/-explain-analyze need -q or -call")
	case *call != "":
		mod, proc, ok := strings.Cut(*call, ".")
		if !ok {
			mod, proc = "main", *call
		}
		rows, err := sys.Call(mod, proc)
		if err != nil {
			return fmt.Errorf("calling %s.%s: %w", mod, proc, err)
		}
		printRows(rows)
	case *query != "":
		if err := answer(sys, *module, *query); err != nil {
			return fmt.Errorf("query %q: %w", *query, err)
		}
	default:
		*interactive = true
	}
	if *interactive {
		if err := repl(sys, *module); err != nil {
			return err
		}
	}
	if *edbPath != "" {
		if err := sys.SaveEDB(*edbPath); err != nil {
			return fmt.Errorf("saving EDB image %s: %w", *edbPath, err)
		}
	}
	for _, spec := range saveCSVs {
		relArity, path, ok := strings.Cut(spec, "=")
		rel, arityText, ok2 := strings.Cut(relArity, "/")
		if !ok || !ok2 {
			return fmt.Errorf("-save-csv wants rel/arity=file.csv, got %q", spec)
		}
		arity, err := strconv.Atoi(arityText)
		if err != nil {
			return fmt.Errorf("-save-csv arity: %w", err)
		}
		if err := sys.SaveCSVFile(rel, arity, path); err != nil {
			return fmt.Errorf("saving CSV %s from %s/%d: %w", path, rel, arity, err)
		}
	}
	if err := sys.Close(); err != nil {
		return fmt.Errorf("closing -data-dir %q: %w", *dataDir, err)
	}
	if *stats {
		st := sys.Stats()
		fmt.Fprintf(os.Stderr,
			"stats: %d stmts, %d loop iterations, %d pipeline breaks, %d tuples stored, %d deduped, %d proc calls\n",
			st.Exec.StmtsExecuted, st.Exec.LoopIterations, st.Exec.PipelineBreaks,
			st.Exec.TuplesMaterialized, st.Exec.RowsDeduped, st.Exec.ProcCalls)
		fmt.Fprintf(os.Stderr,
			"stats: EDB %d inserts, %d deletes, %d rows scanned, %d index builds; scratch %d relations created\n",
			st.EDB.Inserts, st.EDB.Deletes, st.EDB.RowsScanned, st.EDB.IndexBuilds,
			st.Scratch.RelsCreated)
		if rf, rs := st.EDB.RunsFlushed+st.Scratch.RunsFlushed, st.EDB.RowsSpilled+st.Scratch.RowsSpilled; rf > 0 || rs > 0 {
			fmt.Fprintf(os.Stderr,
				"stats: disk %d runs flushed, %d rows spilled, %d runs compacted, %d blocks read\n",
				rf, rs,
				st.EDB.RunsCompacted+st.Scratch.RunsCompacted,
				st.EDB.BlocksRead+st.Scratch.BlocksRead)
		}
		pc := sys.PlanCacheStats()
		fmt.Fprintf(os.Stderr, "stats: plan cache %d hits, %d misses, %d invalidations\n",
			pc.Hits, pc.Misses, pc.Invalidations)
	}
	return nil
}

// parseFsync maps the -fsync flag to a WAL fsync mode.
func parseFsync(s string) (gluenail.FsyncMode, error) {
	switch s {
	case "batch", "":
		return gluenail.FsyncBatch, nil
	case "always":
		return gluenail.FsyncAlways, nil
	case "none", "never":
		return gluenail.FsyncNever, nil
	}
	return 0, fmt.Errorf("-fsync wants batch, always, or none; got %q", s)
}

func answer(sys *gluenail.System, module, goals string) error {
	res, err := sys.QueryIn(module, goals)
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

func printResult(res *gluenail.Result) {
	if len(res.Vars) == 0 {
		if len(res.Rows) > 0 {
			fmt.Println("true")
		} else {
			fmt.Println("false")
		}
		return
	}
	fmt.Println(strings.Join(res.Vars, "\t"))
	printRows(res.Rows)
	fmt.Printf("(%d answers)\n", len(res.Rows))
}

func printRows(rows [][]gluenail.Value) {
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, "\t"))
	}
}

func repl(sys *gluenail.System, module string) error {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("Glue-Nail interactive query loop; enter goal conjunctions, or 'quit'.")
	// Prepared handles per goal text: re-entering a query reuses its
	// compiled procedure (and, through the prepared-plan cache, its
	// physical plans) instead of re-parsing and re-compiling.
	prepared := make(map[string]*gluenail.Prepared)
	for {
		fmt.Print("?- ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return nil
		}
		p, ok := prepared[line]
		if !ok {
			var err error
			p, err = sys.PrepareIn(module, line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			prepared[line] = p
		}
		res, err := p.Execute()
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		printResult(res)
	}
}
