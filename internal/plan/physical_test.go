package plan

import (
	"slices"
	"strings"
	"testing"

	"gluenail/internal/term"
)

// tableStats is a StatsSource backed by a fixed name→estimate table.
type tableStats map[string]RelEstimate

func (s tableStats) RelStats(ref RelRef) (RelEstimate, bool) {
	if !ref.Name.IsGround() {
		return RelEstimate{}, false
	}
	name, err := ref.Name.Build(nil)
	if err != nil {
		return RelEstimate{}, false
	}
	re, ok := s[name.String()]
	return re, ok
}

func physShape(ops []PhysOp) []string {
	pipe := make([]PipeOp, len(ops))
	for i, po := range ops {
		pipe[i] = po.Op
	}
	return pipeShape(pipe)
}

// TestStatsReorderPicksSmallRelationFirst checks the planner's core
// decision: with a tiny relation and a huge one in one segment, the
// cost-based order starts from the tiny one even though the compiler's
// static greedy order (which cannot see row counts) chose the other.
func TestStatsReorderPicksSmallRelationFirst(t *testing.T) {
	c := compileSrc(t, `
edb big(X,Y), tiny(Y,Z), r(X,Z);
proc go(:)
  r(X,Z) := big(X,Y) & tiny(Y,Z).
  return(:) := r(_,_).
end
`, Options{})
	st := onlyStmt(t, c, "main.go")
	stats := tableStats{
		"big":  {Rows: 100000, Distinct: []int{1000, 2}},
		"tiny": {Rows: 3, Distinct: []int{2, 3}},
	}
	pl := &Planner{Stats: stats, Reorder: true}
	ps := pl.PlanStmt(st, nil)
	got := physShape(ps.Steps[0].Ops)
	want := []string{"match:tiny", "match:big"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("stats order = %v, want %v", got, want)
	}
	// The big match now runs with column Y bound; its clone must carry the
	// re-derived mask while the shared logical op keeps the compile-time one.
	bigOp := ps.Steps[0].Ops[1].Op.(*Match)
	if bigOp.BoundMask == 0 {
		t.Error("reordered big match should probe on the bound join column")
	}
	for _, op := range st.Steps[0].Pipe {
		if m, ok := op.(*Match); ok && m == bigOp {
			t.Error("physical plan must clone ops, not mutate the logical plan")
		}
	}
	// Without Reorder the compiled order is kept but still annotated.
	pl2 := &Planner{Stats: stats, Reorder: false}
	ps2 := pl2.PlanStmt(st, nil)
	got2 := physShape(ps2.Steps[0].Ops)
	logical := pipeShape(st.Steps[0].Pipe)
	if strings.Join(got2, ",") != strings.Join(logical, ",") {
		t.Errorf("Reorder=false order = %v, want logical %v", got2, logical)
	}
}

// TestPhysHintsMatchFinalMasks is the regression test for the access
// hint the physical plan hands storage — each *Match's BoundMask, which
// picks the index a probe uses and the mask adaptive credit accrues
// under. After stats-driven reordering, walking the physical op order,
// every mask must select exactly the argument positions bound by the
// step's inputs and the ops before it: a mask left over from the
// compile-time order would probe (and build) the wrong index.
func TestPhysHintsMatchFinalMasks(t *testing.T) {
	c := compileSrc(t, `
edb big(X,Y), tiny(Y,Z), other(X,W), r(X,Z);
proc go(:)
  r(W,Z) := big(X,Y) & tiny(Y,Z) & other(X,W) & !r(W,Z).
  return(:) := r(_,_).
end
`, Options{})
	st := onlyStmt(t, c, "main.go")
	for name, stats := range map[string]tableStats{
		"defaults": nil,
		"skewed": {
			"big":   {Rows: 50000, Distinct: []int{500, 2}},
			"tiny":  {Rows: 2, Distinct: []int{2, 2}},
			"other": {Rows: 400, Distinct: []int{400, 80}},
		},
		"inverse": {
			"big":   {Rows: 2, Distinct: []int{2, 2}},
			"tiny":  {Rows: 9000, Distinct: []int{10, 9000}},
			"other": {Rows: 5, Distinct: []int{5, 5}},
		},
	} {
		t.Run(name, func(t *testing.T) {
			pl := &Planner{Stats: stats, Reorder: true}
			checkMasks(t, pl.PlanStmt(st, nil).Steps)
		})
	}
}

// checkMasks derives, independently of the planner, the bound set at each
// physical op of steps: nothing is bound at the first segment's entry, a
// positive match and a binding equation bind their registers, and a
// segment starts from what the segments and barriers before it bound.
func checkMasks(t *testing.T, steps []PhysStep) {
	t.Helper()
	bound := map[int]bool{}
	for _, ps := range steps {
		checkSegmentMasks(t, ps, bound)
		switch b := ps.Step.Barrier.(type) {
		case *Aggregate:
			bound[b.Dest] = true
		case *Call:
			for _, p := range b.FreeArgs {
				for _, r := range p.Regs(nil) {
					bound[r] = true
				}
			}
		}
	}
}

func checkSegmentMasks(t *testing.T, ps PhysStep, bound map[int]bool) {
	t.Helper()
	for i, po := range ps.Ops {
		if mb, ok := po.Op.(*MatchBind); ok {
			for _, r := range mb.Pat.Regs(nil) {
				bound[r] = true
			}
		}
		m, ok := po.Op.(*Match)
		if !ok {
			continue
		}
		var want uint32
		for a, p := range m.Args {
			all := true
			for _, r := range p.Regs(nil) {
				all = all && bound[r]
			}
			if p.Kind != term.PatWild && all {
				want |= 1 << uint(a)
			}
		}
		if m.BoundMask != want {
			t.Fatalf("op %d (%v): BoundMask %b, want %b for the physical order", i, m.Rel.Name, m.BoundMask, want)
		}
		if !m.Negated {
			for _, p := range m.Args {
				for _, r := range p.Regs(nil) {
					bound[r] = true
				}
			}
		}
	}
}

// TestProfileFeedbackOverridesModel checks the executor-feedback loop: an
// observed selectivity replaces the static estimate when the op runs with
// the mask it was measured under, and is ignored after the mask changes.
func TestProfileFeedbackOverridesModel(t *testing.T) {
	c := compileSrc(t, `
edb a(X), b(X,Y), r(X,Y);
proc go(:)
  r(X,Y) := a(X) & b(X,Y).
  return(:) := r(_,_).
end
`, Options{})
	st := onlyStmt(t, c, "main.go")
	pl := &Planner{Reorder: true}
	base := pl.PlanStmt(st, nil)
	prof := NewStmtProfile(st.Steps)
	for k := range base.Steps {
		for _, po := range base.Steps[k].Ops {
			prof.Steps[k].Ops[po.LogIdx] = OpProfile{
				In: 10, Out: 70, Mask: OpMask(po.Op),
			}
		}
	}
	fed := pl.PlanStmt(st, prof)
	for _, po := range fed.Steps[0].Ops {
		if !po.FromProfile {
			t.Errorf("op %d: profile with matching mask not applied", po.LogIdx)
		}
		if po.Sel != 7 {
			t.Errorf("op %d: Sel = %v, want observed 7", po.LogIdx, po.Sel)
		}
	}
	// A mask mismatch (access path changed since measurement) must fall
	// back to the static model.
	for k := range prof.Steps {
		for i := range prof.Steps[k].Ops {
			prof.Steps[k].Ops[i].Mask ^= 1 << 20
		}
	}
	stale := pl.PlanStmt(st, prof)
	for _, po := range stale.Steps[0].Ops {
		if po.FromProfile {
			t.Errorf("op %d: stale profile (changed mask) applied", po.LogIdx)
		}
	}
}

// TestBoundInForwardPass checks the bound sets the planner carries from
// segment to segment: the first segment starts from nothing bound
// (sup_0 = {ε}), and the segment after an aggregate probes on the
// aggregate's input and its destination, in the compiled order and in a
// reordered one.
func TestBoundInForwardPass(t *testing.T) {
	c := compileSrc(t, `
edb temp(T), lim(T,L), out(M,L);
proc go(:)
  out(M,L) := temp(T) & M = max(T) & lim(T,L) & lim(M,L).
  return(:) := out(_,_).
end
`, Options{})
	st := onlyStmt(t, c, "main.go")
	if len(st.Steps) != 2 {
		t.Fatalf("want 2 segments, got %d", len(st.Steps))
	}
	steps := (&Planner{}).PlanStmt(st, nil).Steps
	var masks []uint32
	for _, ps := range steps {
		for _, po := range ps.Ops {
			masks = append(masks, OpMask(po.Op))
		}
	}
	if want := []uint32{0, 0b01, 0b11}; !slices.Equal(masks, want) {
		t.Errorf("masks %v, want %v: temp(T) scans, lim(T,L) probes on T, lim(M,L) on M and L", masks, want)
	}
	pl := &Planner{Reorder: true, Stats: tableStats{
		"lim": {Rows: 1000, Distinct: []int{1000, 2}},
	}}
	checkMasks(t, pl.PlanStmt(st, nil).Steps)
}

// TestPlannerOrderIndependentResults checks the safety property the
// reordering rests on (any runnable order yields the same rows) at the
// plan level: every op appears exactly once, and each op's required
// registers are bound by the ops placed before it.
func TestPlannerOrderIndependentResults(t *testing.T) {
	c := compileSrc(t, `
edb a(X), b(X,Y), c(Y,Z), r(X,Z);
proc go(:)
  r(X,Z) := a(X) & b(X,Y) & c(Y,Z) & X != Z & !r(X,Z).
  return(:) := r(_,_).
end
`, Options{})
	st := onlyStmt(t, c, "main.go")
	stats := tableStats{
		"a": {Rows: 7, Distinct: []int{7}},
		"b": {Rows: 900, Distinct: []int{30, 40}},
		"c": {Rows: 13, Distinct: []int{5, 13}},
	}
	pl := &Planner{Stats: stats, Reorder: true}
	ps := pl.PlanStmt(st, nil).Steps[0]
	if len(ps.Ops) != len(st.Steps[0].Pipe) {
		t.Fatalf("physical plan has %d ops, logical %d", len(ps.Ops), len(st.Steps[0].Pipe))
	}
	seen := map[int]bool{}
	var bound regSet
	for _, po := range ps.Ops {
		if seen[po.LogIdx] {
			t.Fatalf("logical op %d placed twice", po.LogIdx)
		}
		seen[po.LogIdx] = true
		switch op := po.Op.(type) {
		case *Match:
			if op.Negated && len(op.Bind) > 0 {
				t.Fatalf("negated match placed with unbound registers %v", op.Bind)
			}
		case *Compare:
			if !bound.hasExpr(op.L) || !bound.hasExpr(op.R) {
				t.Fatal("comparison placed before its registers are bound")
			}
		}
		bound.addOp(po.Op)
	}
}

// TestRegSetGrowsPastOneWord checks the planner's bound-register bitset on
// registers beyond the first 64-bit word, and that a cleared set keeps
// nothing.
func TestRegSetGrowsPastOneWord(t *testing.T) {
	var s regSet
	for _, r := range []int{0, 63, 64, 130} {
		s.add(r)
	}
	for r := 0; r < 200; r++ {
		want := r == 0 || r == 63 || r == 64 || r == 130
		if s.has(r) != want {
			t.Errorf("has(%d) = %v, want %v", r, s.has(r), want)
		}
	}
	mask, bind := s.bindArgs([]term.Pattern{term.Var(1), term.Var(64), term.Var(65), term.Var(130), term.Var(500)})
	if mask != 0b01010 || !slices.Equal(bind, []int{1, 65, 500}) {
		t.Errorf("bindArgs = %b, %v, want 1010, [1 65 500]", mask, bind)
	}
	if got := s.list(); !slices.Equal(got, []int{0, 63, 64, 130}) {
		t.Errorf("list = %v, want [0 63 64 130]", got)
	}
	clear(s)
	if s.has(64) || s.has(130) {
		t.Error("cleared set still holds registers")
	}
}
