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
			tup := make(term.Tuple, len(b.Args))
			for i := range b.Args {
				v, err := b.Args[i].Build(row)
				if err != nil {
					return nil, err
				}
				tup[i] = v
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
	// Build each row's input tuple and cache its 64-bit hash, reused by
	// both the distinct pass and the join-back probe.
	tuples := make([]term.Tuple, len(rows))
	rowHashes := make([]uint64, len(rows))
	for ri, row := range rows {
		tup := make(term.Tuple, nb)
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
	for ri, row := range rows {
		rs := px.get(rowHashes[ri], tuples[ri])
		if b.Negated {
			exists := false
			for _, r := range rs {
				cp := cloneRow(row)
				if matchArgs(b.FreeArgs, r[nb:], cp) {
					exists = true
					break
				}
			}
			if !exists {
				out = append(out, row)
			}
			continue
		}
		for _, r := range rs {
			cp := cloneRow(row)
			if matchArgs(b.FreeArgs, r[nb:], cp) {
				out = append(out, cp)
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
	var dynKey term.Tuple
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
			rel := f.dynResolve(name, len(b.Args), b.Narrowed, b.Candidates)
			if rel != nil {
				err := f.scanRel(rel, &dynKey, b.Bind, 0, b.Args, row, func() error {
					emit(cloneRow(row))
					return nil
				})
				if err != nil {
					return nil, err
				}
			}
		}
		if b.Negated && !matched {
			out = append(out, row)
		}
	}
	return out, nil
}
