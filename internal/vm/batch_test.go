package vm

import (
	"testing"

	"gluenail/internal/ast"
	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// batchTestFrame builds a frame over an EDB store holding r/2 with n rows
// (i, i%97), plus the scan→filter→probe segment over it used by the batch
// kernel tests.
func batchTestFrame(n int) (*frame, *plan.PhysStep) {
	store := storage.NewMemStore(storage.IndexAdaptive)
	rel := store.Ensure(term.Intern("r"), 2)
	for i := 0; i < n; i++ {
		rel.Insert(term.Tuple{term.NewInt(int64(i)), term.NewInt(int64(i % 97))})
	}
	f := &frame{m: &Machine{EDB: store}}
	scan := &plan.Match{
		Rel:  plan.RelRef{Space: plan.SpaceEDB, Name: term.Ground(term.Intern("r")), Arity: 2},
		Args: []term.Pattern{term.Var(0), term.Var(1)},
		Bind: []int{0, 1},
	}
	filter := &plan.Compare{Op: ast.CmpLt, L: plan.RegE{Reg: 1}, R: plan.ConstE{V: term.NewInt(48)}}
	probe := &plan.Match{
		Rel:       plan.RelRef{Space: plan.SpaceEDB, Name: term.Ground(term.Intern("r")), Arity: 2},
		Args:      []term.Pattern{term.Var(1), term.Var(2)},
		BoundMask: 1,
		Bind:      []int{2},
	}
	step := &plan.Step{Pipe: []plan.PipeOp{scan, filter, probe}}
	pstep := &plan.PhysStep{
		Step: step,
		Ops: []plan.PhysOp{
			{Op: scan, LogIdx: 0},
			{Op: filter, LogIdx: 1},
			{Op: probe, LogIdx: 2},
		},
	}
	return f, pstep
}

// runSegmentRows runs the segment as a one-step statement and returns
// its rows, row-major, and the step's per-op tuple counters.
func runSegmentRows(t *testing.T, f *frame, pstep *plan.PhysStep) ([][]term.Value, *plan.StmtProfile) {
	t.Helper()
	prof := plan.NewStmtProfile([]plan.Step{*pstep.Step})
	var rows [][]term.Value
	err := f.runSteps(3, []plan.PhysStep{*pstep}, prof, func(b *batchState) error {
		rf := b.filler([]int{0, 1, 2})
		for k := 0; k < b.active(); k++ {
			row := make([]term.Value, 3)
			rf.fill(b.row(k), row)
			rows = append(rows, row)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, prof
}

// TestBatchMatchesMaterializedSegment runs the same scan→filter→probe
// segment through the materialized baseline and the batch kernels and
// requires byte-identical row streams and identical per-op tuple counters.
func TestBatchMatchesMaterializedSegment(t *testing.T) {
	f, pstep := batchTestFrame(500)
	f.m.Materialized = true
	ref, refProf := runSegmentRows(t, f, pstep)
	f.m.Materialized = false
	batch, batchProf := runSegmentRows(t, f, pstep)
	if len(ref) == 0 {
		t.Fatal("segment produced no rows; nothing exercised")
	}
	if len(batch) != len(ref) {
		t.Fatalf("batch produced %d rows, materialized %d", len(batch), len(ref))
	}
	for i := range ref {
		for r := range ref[i] {
			if !ref[i][r].Equal(batch[i][r]) {
				t.Fatalf("row %d register %d: batch %v, materialized %v",
					i, r, batch[i][r], ref[i][r])
			}
		}
	}
	for k := range refProf.Steps[0].Ops {
		m, b := refProf.Steps[0].Ops[k], batchProf.Steps[0].Ops[k]
		if m.In != b.In || m.Out != b.Out {
			t.Fatalf("op %d counters differ: materialized in=%d out=%d, batch in=%d out=%d",
				k, m.In, m.Out, b.In, b.Out)
		}
	}
}

// TestBatchSegmentAllocsPerRow pins the batch kernels' allocation
// contract: filters and probes must not allocate per row — the whole
// statement's allocations (selection vector, column vectors) must
// amortize to well under one object per emitted row.
func TestBatchSegmentAllocsPerRow(t *testing.T) {
	const n = 20000
	f, pstep := batchTestFrame(n)
	steps := []plan.PhysStep{*pstep}
	var produced int
	count := func(b *batchState) error { produced = b.active(); return nil }
	allocs := testing.AllocsPerRun(5, func() {
		if err := f.runSteps(3, steps, nil, count); err != nil {
			t.Fatal(err)
		}
	})
	if produced < n/3 {
		t.Fatalf("segment produced only %d rows from %d — workload too small to measure", produced, n)
	}
	perRow := allocs / float64(produced)
	if perRow > 0.05 {
		t.Fatalf("batch segment allocates %.3f objects per emitted row (%.0f total for %d rows); want amortized ~0",
			perRow, allocs, produced)
	}
}
