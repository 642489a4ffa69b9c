// Benchmarks that scripts/check.sh runs as smokes: the governor's
// overhead when it never fires (E14) and the disk engine's miss probes and
// bulk ingest (E18). The paper-claim experiments (E1-E12, A1, F1) run from
// cmd/glbench; see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package gluenail_test

import (
	"testing"
	"time"

	"gluenail"
	"gluenail/internal/bench"
	"gluenail/internal/storage/disk"
	"gluenail/internal/term"
)

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
