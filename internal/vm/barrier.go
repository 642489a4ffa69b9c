package vm

import (
	"fmt"

	"gluenail/internal/ast"
	"gluenail/internal/plan"
	"gluenail/internal/term"
)

func (f *frame) applyBarrier(b plan.BarrierOp, rows [][]term.Value,
	state *stmtState) ([][]term.Value, error) {
	switch b := b.(type) {
	case *plan.Call:
		return f.applyCall(b, rows)
	case *plan.DynCall:
		return f.applyDynCall(b, rows)
	case *plan.Aggregate:
		return f.applyAggregate(b, rows, state)
	case *plan.GroupBy:
		state.groupRegs = append(state.groupRegs, b.Regs...)
		return rows, nil
	case *plan.Update:
		for _, row := range rows {
			rel, err := f.resolveWrite(b.Rel, row)
			if err != nil {
				return nil, err
			}
			tup, err := f.m.headRow(b.Args, row)
			if err != nil {
				return nil, err
			}
			switch b.Kind {
			case ast.UpdateInsert:
				rel.Insert(tup)
				if err := f.checkRelBudget(rel); err != nil {
					return nil, err
				}
			case ast.UpdateDelete:
				rel.Delete(tup)
			}
		}
		return rows, nil
	case *plan.UnchangedChk:
		rel, err := f.resolveRead(b.Rel, nil)
		if err != nil {
			return nil, err
		}
		var cur uint64
		if rel != nil {
			cur = rel.Version()
		}
		if f.unchanged == nil {
			f.unchanged = map[int]uint64{}
		}
		prev, seen := f.unchanged[b.Site]
		f.unchanged[b.Site] = cur
		if seen && prev == cur {
			return rows, nil
		}
		return nil, nil
	case *plan.EmptyChk:
		rel, err := f.resolveRead(b.Rel, nil)
		if err != nil {
			return nil, err
		}
		if rel == nil || rel.Len() == 0 {
			return rows, nil
		}
		return nil, nil
	}
	return nil, fmt.Errorf("vm: unknown barrier %T", b)
}

// applyCall runs a procedure/builtin once on all the distinct bindings of
// its input arguments (§4) and joins the results back to the supplementary
// rows, in row order.
func (f *frame) applyCall(b *plan.Call, rows [][]term.Value) ([][]term.Value, error) {
	nb := len(b.BoundArgs)
	// Build each row's input tuple, all in one slab, and cache its 64-bit
	// hash, reused by both the distinct pass and the join-back probe.
	slab := make([]term.Value, len(rows)*nb)
	tuples := make([]term.Tuple, len(rows))
	rowHashes := make([]uint64, len(rows))
	for ri, row := range rows {
		tup := term.Tuple(slab[ri*nb : (ri+1)*nb : (ri+1)*nb])
		for i := range b.BoundArgs {
			v, err := b.BoundArgs[i].Build(row)
			if err != nil {
				return nil, err
			}
			tup[i] = v
		}
		tuples[ri] = tup
		rowHashes[ri] = tup.Hash()
	}
	// Distinct input tuples, in first-seen order (then sorted).
	var inTuples []term.Tuple
	t := f.grabTable(len(rows))
	cand := 0
	eq := func(r int32) bool { return inTuples[r].Equal(tuples[cand]) }
	for ri := range rows {
		cand = ri
		if _, found := t.findOrAdd(rowHashes[ri], int32(len(inTuples)), eq); !found {
			inTuples = append(inTuples, tuples[ri])
		}
	}
	f.releaseTable(t)
	sortTuples(inTuples)
	var results []term.Tuple
	var err error
	if b.ProcID != "" {
		results, err = f.m.CallProc(b.ProcID, inTuples)
	} else {
		impl, ok := f.m.Builtins.impl(b.Builtin)
		if !ok {
			return nil, fmt.Errorf("no builtin %q", b.Builtin)
		}
		results, err = impl(f.m, inTuples)
	}
	if err != nil {
		return nil, err
	}
	// Index results by bound prefix.
	wantArity := nb + len(b.FreeArgs)
	var px prefixIndex
	px.init(len(results))
	for _, r := range results {
		if len(r) != wantArity {
			return nil, fmt.Errorf("call result arity %d, want %d", len(r), wantArity)
		}
		px.add(r[:nb], r)
	}
	var out [][]term.Value
	if b.Negated {
		// One scratch row serves every probe: a surviving row is the
		// input row itself.
		var cp []term.Value
		for ri, row := range rows {
			exists := false
			for _, r := range px.get(rowHashes[ri], tuples[ri]) {
				cp = append(cp[:0], row...)
				if matchArgs(b.FreeArgs, r[nb:], cp) {
					exists = true
					break
				}
			}
			if !exists {
				out = append(out, row)
			}
		}
		return out, nil
	}
	// The joined rows go into one slab sized by the prefix matches; a
	// candidate whose free arguments do not match gives its room back.
	matches, width := 0, 0
	for ri, row := range rows {
		n := len(px.get(rowHashes[ri], tuples[ri]))
		matches += n
		width += n * len(row)
	}
	out = make([][]term.Value, 0, matches)
	rowSlab := make([]term.Value, width)
	for ri, row := range rows {
		for _, r := range px.get(rowHashes[ri], tuples[ri]) {
			cp := rowSlab[:len(row):len(row)]
			copy(cp, row)
			if matchArgs(b.FreeArgs, r[nb:], cp) {
				out = append(out, cp)
				rowSlab = rowSlab[len(row):]
			}
		}
	}
	return out, nil
}

// applyDynCall dispatches a HiLog subgoal whose candidates include NAIL!
// families: per row, the computed name either selects a family (whose
// generated procedure is called once and memoized for the barrier) or falls
// back to stored-relation lookup.
func (f *frame) applyDynCall(b *plan.DynCall, rows [][]term.Value) ([][]term.Value, error) {
	famResults := map[string][]term.Tuple{}
	family := func(name term.Value) *plan.FamilyCand {
		if name.Kind() != term.Compound {
			return nil
		}
		fn := name.Functor()
		if fn.Kind() != term.Str {
			return nil
		}
		for i := range b.Families {
			if b.Families[i].Base == fn.Str() && b.Families[i].NameArity == name.NumArgs() {
				return &b.Families[i]
			}
		}
		return nil
	}
	var out [][]term.Value
	for _, row := range rows {
		name, err := b.Pred.Build(row)
		if err != nil {
			return nil, err
		}
		matched := false
		emit := func(cp []term.Value) {
			if !b.Negated {
				out = append(out, cp)
			}
			matched = true
		}
		if fam := family(name); fam != nil {
			res, ok := famResults[fam.ProcID]
			if !ok {
				res, err = f.m.CallProc(fam.ProcID, []term.Tuple{{}})
				if err != nil {
					return nil, err
				}
				famResults[fam.ProcID] = res
			}
			k := fam.NameArity
			nameArgs := name.Args()
		resultLoop:
			for _, r := range res {
				for i := 0; i < k; i++ {
					if !nameArgs[i].Equal(r[i]) {
						continue resultLoop
					}
				}
				cp := cloneRow(row)
				if matchArgs(b.Args, r[k:], cp) {
					emit(cp)
					if b.Negated {
						break
					}
				}
			}
		} else {
			if rel := f.dynResolve(name, len(b.Args), b.Narrowed, b.Candidates); rel != nil {
				rel.Lookup(0, nil, func(t term.Tuple) bool {
					if matchArgs(b.Args, t, row) {
						emit(cloneRow(row))
					}
					unbind(row, b.Bind)
					return true
				})
			}
		}
		if b.Negated && !matched {
			out = append(out, row)
		}
	}
	return out, nil
}
