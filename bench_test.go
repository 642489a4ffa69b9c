// Benchmarks regenerating every quantitative claim of the paper's
// evaluation content (§5, §9, §10); see DESIGN.md §4 for the experiment
// index and EXPERIMENTS.md for paper-vs-measured results. cmd/glbench
// prints the same comparisons as tables.
package gluenail_test

import (
	"fmt"
	"testing"
	"time"

	"gluenail"
	"gluenail/internal/bench"
	"gluenail/internal/storage"
	"gluenail/internal/storage/disk"
	"gluenail/internal/term"
)

// BenchmarkE1CompilerThroughput measures end-to-end compilation speed
// (lex+parse+link+plan) in statements per second. §9: "The system compiles
// about two statements per Mips-second"; the shape to reproduce is
// throughput roughly flat in program size (linear total cost).
func BenchmarkE1CompilerThroughput(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("stmts=%d", n), func(b *testing.B) {
			src := bench.SyntheticProgram(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bench.CompileSource(src); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "stmts/sec")
		})
	}
}

// BenchmarkE2PipelineVsMaterialize compares the pipelined (nested-join)
// execution strategy against full materialization of every supplementary
// relation. §9: breaking the pipeline "costs an extra load and store for
// each tuple".
func BenchmarkE2PipelineVsMaterialize(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		for _, mode := range []string{"pipelined", "materialized"} {
			b.Run(fmt.Sprintf("rows=%d/%s", n, mode), func(b *testing.B) {
				var opts []gluenail.Option
				if mode == "materialized" {
					opts = append(opts, gluenail.WithMaterializedExecution())
				}
				sys := bench.NewJoinSystem(n, 4, opts...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := bench.RunJoin(sys); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(sys.Stats().Exec.TuplesMaterialized)/float64(b.N),
					"tuples-stored/op")
			})
		}
	}
}

// BenchmarkE3EarlyDupElim measures duplicate elimination at pipeline
// breaks across duplicate factors. §9: "removing duplicates early has
// always been advantageous ... in the worst case [dup factor 1] pipeline
// breakage is a loss".
func BenchmarkE3EarlyDupElim(b *testing.B) {
	for _, dup := range []int{1, 4, 16} {
		for _, mode := range []string{"dedup", "no-dedup"} {
			b.Run(fmt.Sprintf("dup=%d/%s", dup, mode), func(b *testing.B) {
				var opts []gluenail.Option
				if mode == "no-dedup" {
					opts = append(opts, gluenail.WithoutDupElimination())
				}
				sys := bench.NewDupSystem(2000/dup, dup, opts...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := bench.RunDup(sys); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE4AdaptiveIndex sweeps repeated selections under the three
// index policies. §10: "an index could be created for a relation after the
// cumulative cost of selection by scanning the relation reaches the cost
// of creating the index" — adaptive should track never-index for few
// queries and always-index for many, crossing over after ~2 scans.
func BenchmarkE4AdaptiveIndex(b *testing.B) {
	policies := map[string]storage.IndexPolicy{
		"adaptive": storage.IndexAdaptive,
		"never":    storage.IndexNever,
		"always":   storage.IndexAlways,
	}
	for _, q := range []int{1, 4, 64} {
		for _, name := range []string{"adaptive", "never", "always"} {
			b.Run(fmt.Sprintf("queries=%d/%s", q, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bench.RunSelections(policies[name], 50000, 500, q)
				}
			})
		}
	}
}

// BenchmarkE5SeminaiveVsNaive compares delta-driven (uniondiff-supported)
// recursion against naive re-derivation on transitive closure. §10: the
// back end implements uniondiff "to support compiled recursive NAIL!
// queries".
func BenchmarkE5SeminaiveVsNaive(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		for _, mode := range []string{"seminaive", "naive"} {
			b.Run(fmt.Sprintf("chain=%d/%s", n, mode), func(b *testing.B) {
				var opts []gluenail.Option
				if mode == "naive" {
					opts = append(opts, gluenail.WithNaiveEvaluation())
				}
				sys := bench.NewTCSystem(bench.ChainEdges(n), opts...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sys.Query("tc(X, Y)"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE6HiLogDispatch compares compile-time-narrowed HiLog predicate
// dispatch against runtime class search. §5/§9: "much of the predicate
// selection analysis can be done at compile time".
func BenchmarkE6HiLogDispatch(b *testing.B) {
	for _, sets := range []int{8, 64, 256} {
		for _, mode := range []string{"narrowed", "runtime"} {
			b.Run(fmt.Sprintf("sets=%d/%s", sets, mode), func(b *testing.B) {
				var opts []gluenail.Option
				if mode == "runtime" {
					opts = append(opts, gluenail.WithoutDispatchNarrowing())
				}
				sys := bench.NewDispatchSystem(sets, 4, 400, opts...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := bench.RunDispatch(sys); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE7SetEqByName compares name equality of set-valued attributes
// with extensional comparison. §5.1: "much of the time a simple
// string-string matching suffices".
func BenchmarkE7SetEqByName(b *testing.B) {
	for _, mode := range []string{"by-name", "by-members"} {
		b.Run(mode, func(b *testing.B) {
			sys := bench.NewSetEqSystem(64, 100)
			run := bench.RunSetEqByName
			if mode == "by-members" {
				run = bench.RunSetEqByMembers
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8BackendLayering runs a temporary-heavy procedural workload on
// the tailored main-memory store and on the simulated DBMS-layered store.
// §10: building on a protected relational system "wastes much of its time"
// on short-lived temporaries.
func BenchmarkE8BackendLayering(b *testing.B) {
	for _, mode := range []string{"tailored", "layered"} {
		b.Run(mode, func(b *testing.B) {
			var opts []gluenail.Option
			if mode == "layered" {
				opts = append(opts, gluenail.WithLayeredBackend())
			}
			sys := bench.NewTemporariesSystem(40, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bench.RunTemporaries(sys, 20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9MagicSets compares magic-set-rewritten bound queries against
// computing the full closure and filtering. §8.2/§4: procedures are called
// on their bound arguments, so only the relevant subset is derived.
func BenchmarkE9MagicSets(b *testing.B) {
	for _, n := range []int{200, 400} {
		for _, mode := range []string{"magic", "full"} {
			b.Run(fmt.Sprintf("nodes=%d/%s", n, mode), func(b *testing.B) {
				var opts []gluenail.Option
				if mode == "full" {
					opts = append(opts, gluenail.WithoutMagicSets())
				}
				// Sparse random graph: most nodes unreachable from node 1,
				// which is where magic wins.
				sys := bench.NewTCSystem(bench.RandomEdges(n, n, 7), opts...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sys.Query("tc(1, X)"); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE11Durability measures what crash durability costs the
// main-memory execution model (§6): the same EDB-insert loop with the
// WAL off and with the WAL on under each fsync policy. Each iteration
// runs against a fresh store so every statement genuinely mutates (and
// therefore commits).
func BenchmarkE11Durability(b *testing.B) {
	modes := []struct {
		name  string
		dir   string
		fsync gluenail.FsyncMode
	}{
		{"wal=off", "", 0},
		{"fsync=none", "none", gluenail.FsyncNever},
		{"fsync=batch", "batch", gluenail.FsyncBatch},
		{"fsync=always", "always", gluenail.FsyncAlways},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			dir := ""
			if m.dir != "" {
				dir = b.TempDir()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys, err := bench.NewDurableSystem(dir, m.fsync)
				if err != nil {
					b.Fatal(err)
				}
				if err := bench.RunDurable(sys, 500); err != nil {
					b.Fatal(err)
				}
				if err := sys.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkA1ReorderingAblation measures the subgoal-reordering
// optimization (§3.1: "A Glue system is free to reorder the non-fixed
// subgoals"): a selective bound-argument lookup written last in the source
// should be moved ahead of an unselective scan.
func BenchmarkA1ReorderingAblation(b *testing.B) {
	for _, mode := range []string{"reordered", "source-order"} {
		b.Run(mode, func(b *testing.B) {
			var opts []gluenail.Option
			if mode == "source-order" {
				opts = append(opts, gluenail.WithoutReordering())
			}
			sys := bench.NewReorderSystem(1000, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bench.RunReorder(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12StatsOrdering measures the statistics-driven physical
// planner on a skewed join where the compiler's static orderings (textual
// and greedy coincide here — no constant arguments to score) scan the big
// relation, while live row counts steer the run-time planner to start from
// the tiny probe relation and index-probe only the matching slice of big.
func BenchmarkE12StatsOrdering(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []gluenail.Option
	}{
		{"textual", []gluenail.Option{gluenail.WithoutReordering()}},
		{"greedy", []gluenail.Option{gluenail.WithGreedyOrdering()}},
		{"stats", nil},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sys := bench.NewSkewJoinSystem(20000, 100, 4, mode.opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bench.RunSkewJoin(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF1CadSelect times the Figure 1 micro-CAD select interaction
// end-to-end over a 10k-element drawing.
func BenchmarkF1CadSelect(b *testing.B) {
	r := bench.NewCadRun(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Select(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14GovernorOverhead measures what the execution governor costs
// when it never fires: the closure + group-by workload run ungoverned
// versus under a far-away wall-clock deadline and tuple budget (which is
// what arms the per-instruction / per-8192-rows cancellation checks).
// EXPERIMENTS.md target: governed within 2% of ungoverned time/op.
func BenchmarkE14GovernorOverhead(b *testing.B) {
	governed := gluenail.WithBudget(gluenail.Budget{
		Timeout:   time.Hour,
		MaxTuples: 1 << 40,
	})
	for _, mode := range []struct {
		name string
		opts []gluenail.Option
	}{
		{"ungoverned", nil},
		{"governed", []gluenail.Option{governed}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sys := bench.NewTCGroupSystem(120, 240, 7, mode.opts...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bench.RunTCGroup(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE18DiskEngine measures the fast-disk-engine paths: membership
// miss probes against a reopened multi-run store with and without per-run
// bloom filters, and durable ingest through per-statement WAL commits
// versus the direct bulk path. EXPERIMENTS.md targets: blooms answer miss
// probes without touching run files; bulk ingest ≥2× the WAL path.
func BenchmarkE18DiskEngine(b *testing.B) {
	b.Run("miss-probe", func(b *testing.B) {
		const rows = 65536
		for _, mode := range []struct {
			name    string
			noBloom bool
		}{{"bloom", false}, {"no-bloom", true}} {
			b.Run(mode.name, func(b *testing.B) {
				dir := b.TempDir()
				st, err := disk.Open(dir, disk.Options{FlushRows: 4096, NoCompactor: true})
				if err != nil {
					b.Fatal(err)
				}
				rel := st.Ensure(term.Intern("edge"), 2)
				for i := 0; i < rows; i++ {
					rel.Insert(term.Tuple{term.NewInt(int64(i)), term.NewInt(int64(i + 1))})
				}
				if err := st.FlushBase(); err != nil {
					b.Fatal(err)
				}
				st.Close()
				st, err = disk.Open(dir, disk.Options{
					FlushRows: 4096, NoCompactor: true, NoBloom: mode.noBloom})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				probed, _ := st.Get(term.Intern("edge"), 2)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if probed.Contains(term.Tuple{term.NewInt(int64(rows + i)), term.NewInt(0)}) {
						b.Fatal("absent key reported present")
					}
				}
			})
		}
	})
	b.Run("ingest-16k", func(b *testing.B) {
		const n = 16384
		for _, mode := range []struct {
			name  string
			chunk int
		}{{"wal-1024", 1024}, {"bulk", n}} {
			b.Run(mode.name, func(b *testing.B) {
				var chunks [][][]any
				for lo := 0; lo < n; lo += mode.chunk {
					rows := make([][]any, mode.chunk)
					for j := range rows {
						rows[j] = []any{lo + j, lo + j + 1}
					}
					chunks = append(chunks, rows)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dir := b.TempDir()
					sys, err := gluenail.Open(dir,
						gluenail.WithBackend("disk"),
						gluenail.WithFsync(gluenail.FsyncAlways))
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Load(`edb edge(X,Y);`); err != nil {
						b.Fatal(err)
					}
					for _, rows := range chunks {
						if err := sys.Assert("edge", rows...); err != nil {
							b.Fatal(err)
						}
					}
					if err := sys.Checkpoint(); err != nil {
						b.Fatal(err)
					}
					sys.Close()
				}
			})
		}
	})
}
