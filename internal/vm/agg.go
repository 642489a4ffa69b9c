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
// — partitioned by the group_by registers in effect. A bound destination
// register selects tuples whose aggregate equals it; an unbound one is
// extended onto every tuple of the group.
func (f *frame) applyAggregate(b *plan.Aggregate, rows [][]term.Value,
	state *stmtState) ([][]term.Value, error) {
	var groups [][]int // row indices per group, groups in first-seen order
	switch {
	case len(state.groupRegs) == 0:
		// No group_by in effect: every row is in the single group.
		all := make([]int, len(rows))
		for ri := range all {
			all[ri] = ri
		}
		groups = [][]int{all}
	case f.m.StringKeyKernels:
		groups = f.groupRowsStringKey(rows, state.groupRegs)
	default:
		groups = f.groupRows(rows, state.groupRegs)
	}
	vals := make([]term.Value, len(rows))
	for ri, row := range rows {
		v, err := evalExpr(b.Arg, row)
		if err != nil {
			return nil, err
		}
		vals[ri] = v
	}
	var out [][]term.Value
	for _, idxs := range groups {
		gv := make([]term.Value, len(idxs))
		for i, ri := range idxs {
			gv[i] = vals[ri]
		}
		agg, err := aggregate(b.Op, gv)
		if err != nil {
			return nil, err
		}
		for _, ri := range idxs {
			row := rows[ri]
			if b.DestBound {
				ok, err := compareValues(ast.CmpEq, row[b.Dest], agg)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, row)
				}
			} else {
				cp := cloneRow(row)
				cp[b.Dest] = agg
				out = append(out, cp)
			}
		}
	}
	return out, nil
}

// groupRows partitions row indices by the values of the grouping
// registers, groups in first-seen order — the hash-first kernel: rows are
// hashed in place, a pooled open-addressing table maps each hash to its
// group, and collisions compare the live registers directly. No group-key
// bytes are built.
func (f *frame) groupRows(rows [][]term.Value, regs []int) [][]int {
	hashes := make([]uint64, len(rows))
	for ri := range rows {
		hashes[ri] = rowHashLive(rows[ri], regs)
	}
	t := f.grabTable(len(rows))
	var groups [][]int
	cand := 0
	eq := func(g int32) bool { return rowsEqualLive(rows[groups[g][0]], rows[cand], regs) }
	for ri := range rows {
		cand = ri
		if g, found := t.findOrAdd(hashes[ri], int32(len(groups)), eq); found {
			groups[g] = append(groups[g], ri)
		} else {
			groups = append(groups, []int{ri})
		}
	}
	f.releaseTable(t)
	return groups
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
