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

// TestBatchMatchesMaterializedSegment runs the same scan→filter→probe
// segment through the materialized baseline and the batch kernels and
// requires byte-identical row streams and identical per-op tuple counters.
func TestBatchMatchesMaterializedSegment(t *testing.T) {
	f, pstep := batchTestFrame(500)
	seed := func() [][]term.Value { return [][]term.Value{make([]term.Value, 3)} }

	f.m.Materialized = true
	refProf := plan.NewStmtProfile([]plan.Step{*pstep.Step})
	ref, err := f.runPipe(pstep, seed(), &refProf.Steps[0])
	if err != nil {
		t.Fatal(err)
	}
	f.m.Materialized = false
	batchProf := plan.NewStmtProfile([]plan.Step{*pstep.Step})
	batch, err := f.runPipe(pstep, seed(), &batchProf.Steps[0])
	if err != nil {
		t.Fatal(err)
	}
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
// segment's allocations (selection vector, column vectors, output slab)
// must amortize to well under one object per emitted row.
func TestBatchSegmentAllocsPerRow(t *testing.T) {
	const n = 20000
	f, pstep := batchTestFrame(n)
	ops := make([]plan.PipeOp, len(pstep.Ops))
	for i := range pstep.Ops {
		ops[i] = pstep.Ops[i].Op
	}
	rels := []storage.Rel{nil, nil, nil}
	have := []bool{false, false, false}
	for i, op := range ops {
		if m, ok := op.(*plan.Match); ok {
			rel, err := f.resolveRead(m.Rel, nil)
			if err != nil {
				t.Fatal(err)
			}
			rels[i], have[i] = rel, true
		}
	}
	cnt := make([]int64, len(ops)+1)
	var produced int
	allocs := testing.AllocsPerRun(5, func() {
		rows := [][]term.Value{make([]term.Value, 3)}
		out, err := f.runPipeBatch(ops, rels, have, rows, cnt)
		if err != nil {
			t.Fatal(err)
		}
		produced = len(out)
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
