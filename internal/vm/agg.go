package vm

import (
	"fmt"
	"math"
	"sort"

	"gluenail/internal/ast"
	"gluenail/internal/plan"
	"gluenail/internal/term"
)

// applyAggregate computes the aggregate over the supplementary tuples —
// per §3.3, over every tuple, not over the projection, so duplicates count
// — partitioned by the group_by registers in effect, groups in first-seen
// order. It pushes a level listing the rows group by group: a bound
// destination register keeps the rows whose value equals their group's
// aggregate, an unbound one takes the aggregate as a new column.
func (f *frame) applyAggregate(b *batchState, op *plan.Aggregate, groupRegs []int) error {
	n, row, scr := b.active(), b.scr.rowBuf, b.scr
	gid := scr.grabIdx(n)
	reps := f.groups(b, groupRegs, gid)
	// A stable counting sort lists the rows (perm) and their values (gv),
	// evaluated in row order, group by group; pos[g] ends as one past group
	// g's last row.
	pos := scr.grabIdx(len(reps))
	clear(pos)
	for _, g := range gid {
		pos[g]++
	}
	sum := int32(0)
	for g, c := range pos {
		pos[g], sum = sum, sum+c
	}
	perm, gv := scr.grabIdx(n), scr.grabVals(n)
	rf := b.filler(plan.OpRegs(scr.regs[:0], op))
	for k, g := range gid {
		rf.fill(b.row(k), row)
		v, err := evalExpr(op.Arg, row)
		if err != nil {
			return err
		}
		perm[pos[g]], gv[pos[g]] = int32(k), v
		pos[g]++
	}
	var dest []term.Value
	bind := scr.bind[:0]
	if op.DestBound {
		dest = b.colAt(op.Dest)
	} else {
		bind = append(bind, op.Dest)
	}
	scr.bind = bind
	cols, src := scr.grabBindCols(len(bind), n), scr.grabIdxCap(n)
	lo := int32(0)
	for _, hi := range pos {
		agg, err := aggregate(op.Op, gv[lo:hi])
		if err != nil {
			return err
		}
		for _, k := range perm[lo:hi] {
			i := b.row(int(k))
			if op.DestBound {
				ok, err := compareValues(ast.CmpEq, colVal(dest, i), agg)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			} else {
				cols[0] = append(cols[0], agg)
			}
			src = append(src, i)
		}
		lo = hi
	}
	for _, v := range [][]int32{gid, reps, pos, perm} {
		scr.putIdx(v)
	}
	scr.putVals(gv)
	b.pushLevel(src, bind, cols)
	return nil
}

// groups numbers the active rows by their values in the registers regs
// (unbound matches only unbound), groups in first-seen order — the
// hash-first kernel: each row is hashed from the columns, a pooled
// open-addressing table maps the hash to its group, and a hash match
// compares the columns directly. No key is built. It returns each group's
// first row and, when gid is non-nil, sets gid[k] to the k-th active row's
// group.
func (f *frame) groups(b *batchState, regs []int, gid []int32) []int32 {
	cols, n := b.filler(regs).cols, b.active()
	reps := b.scr.grabIdxCap(n)
	t := f.grabTable(n)
	var cur int32
	eq := func(g int32) bool { return equalCols(cols, reps[g], cur) }
	for k := 0; k < n; k++ {
		cur = b.row(k)
		g, found := t.FindOrAdd(hashCols(cols, cur), int32(len(reps)), eq)
		if !found {
			reps = append(reps, cur)
		}
		if gid != nil {
			gid[k] = g
		}
	}
	f.releaseTable(t)
	return reps
}

// aggregate computes one aggregate operator over the value list (§3.3).
// The arbitrary operator deterministically returns the smallest value.
func aggregate(op string, vals []term.Value) (term.Value, error) {
	if len(vals) == 0 {
		return term.Value{}, fmt.Errorf("aggregate %s over empty set", op)
	}
	switch op {
	case "count":
		return term.NewInt(int64(len(vals))), nil
	case "min", "arbitrary":
		best := vals[0]
		for _, v := range vals[1:] {
			if less, _ := numericLess(v, best); less {
				best = v
			}
		}
		return best, nil
	case "max":
		best := vals[0]
		for _, v := range vals[1:] {
			if less, _ := numericLess(best, v); less {
				best = v
			}
		}
		return best, nil
	case "sum", "product", "mean", "std_dev":
		fs := make([]float64, len(vals))
		allInt := true
		for i, v := range vals {
			x, ok := v.Num()
			if !ok {
				return term.Value{}, fmt.Errorf("%s over non-numeric value %v", op, v)
			}
			fs[i] = x
			if v.Kind() != term.Int {
				allInt = false
			}
		}
		// Canonical fold order: floating-point folds are not associative,
		// and the row order within a group depends on the join order the
		// physical planner chose. Sorting the values first makes every
		// ordering (textual, greedy, stats-driven) produce bit-identical
		// aggregates.
		sort.Float64s(fs)
		switch op {
		case "sum":
			s := 0.0
			for _, x := range fs {
				s += x
			}
			if allInt {
				return term.NewInt(int64(s)), nil
			}
			return term.NewFloat(s), nil
		case "product":
			p := 1.0
			for _, x := range fs {
				p *= x
			}
			if allInt {
				return term.NewInt(int64(p)), nil
			}
			return term.NewFloat(p), nil
		case "mean":
			s := 0.0
			for _, x := range fs {
				s += x
			}
			return term.NewFloat(s / float64(len(fs))), nil
		default: // std_dev (population)
			s := 0.0
			for _, x := range fs {
				s += x
			}
			mu := s / float64(len(fs))
			ss := 0.0
			for _, x := range fs {
				ss += (x - mu) * (x - mu)
			}
			return term.NewFloat(math.Sqrt(ss / float64(len(fs)))), nil
		}
	}
	return term.Value{}, fmt.Errorf("unknown aggregate operator %q", op)
}

// numericLess orders values: numerics numerically, anything else by the
// term order.
func numericLess(a, b term.Value) (bool, error) {
	af, aok := a.Num()
	bf, bok := b.Num()
	if aok && bok {
		return af < bf, nil
	}
	return a.Compare(b) < 0, nil
}
