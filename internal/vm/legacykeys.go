// Legacy string-key kernels: duplicate elimination, aggregation grouping,
// and head grouping that materialize an encoded string key per row and
// probe Go maps with it. Retained behind Machine.StringKeyKernels
// (gluenail.WithStringKeyKernels) as the E13 ablation baseline and as a
// reference implementation for the difftests — both kernel families must
// produce byte-identical results on every program.
package vm

import (
	"sync/atomic"

	"gluenail/internal/plan"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// appendDedupKey encodes the live registers of a row as a dedup key. An
// unbound register is marked with term.NonTag, a byte no value encoding
// starts with, so an unbound slot can never alias a bound value's
// encoding.
func appendDedupKey(buf []byte, row []term.Value, live []int) []byte {
	for _, r := range live {
		if row[r].IsZero() {
			buf = append(buf, term.NonTag)
			continue
		}
		buf = term.AppendValue(buf, row[r])
	}
	return buf
}

// dedupRowsStringKey is the legacy sequential dedup kernel: one encoded
// string key per row, probed through a Go map.
func (f *frame) dedupRowsStringKey(rows [][]term.Value, live []int) [][]term.Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	var buf []byte
	for _, row := range rows {
		buf = appendDedupKey(buf[:0], row, live)
		k := string(buf)
		if seen[k] {
			atomic.AddInt64(&f.m.Stats.RowsDeduped, 1)
			continue
		}
		seen[k] = true
		out = append(out, row)
	}
	return out
}

// groupRowsStringKey is the legacy aggregation-grouping kernel: group keys
// encoded into strings, grouped through a Go map, groups in first-seen
// order.
func (f *frame) groupRowsStringKey(rows [][]term.Value, regs []int) [][]int {
	byKey := map[string]int{}
	var groups [][]int
	var buf []byte
	for ri, row := range rows {
		buf = buf[:0]
		for _, r := range regs {
			buf = term.AppendValue(buf, row[r])
		}
		k := string(buf)
		if g, ok := byKey[k]; ok {
			groups[g] = append(groups[g], ri)
		} else {
			byKey[k] = len(groups)
			groups = append(groups, []int{ri})
		}
	}
	return groups
}

func tupleKey(t term.Tuple) string {
	var buf []byte
	for i := range t {
		buf = term.AppendValue(buf, t[i])
	}
	return string(buf)
}

// applyHeadStringKey is the legacy head kernel: targets grouped by the
// canonical encoding (term.Key) of the computed relation name, rebuilt
// per row.
func (f *frame) applyHeadStringKey(st *plan.Stmt, rows [][]term.Value) error {
	type target struct {
		rel    storage.Rel
		tuples []term.Tuple
	}
	groups := map[string]*target{}
	order := []string{}
	ensure := func(regs []term.Value) (*target, error) {
		name, err := st.Head.Ref.Name.Build(regs)
		if err != nil {
			return nil, err
		}
		k := term.Key(name)
		if g, ok := groups[k]; ok {
			return g, nil
		}
		rel, err := f.resolveWrite(st.Head.Ref, regs)
		if err != nil {
			return nil, err
		}
		groups[k] = &target{rel: rel}
		order = append(order, k)
		return groups[k], nil
	}
	// A statically named target participates even with an empty body
	// (":=" clears it); a computed name cannot be known without rows.
	if st.Head.Ref.Name.IsGround() {
		if _, err := ensure(nil); err != nil {
			return err
		}
	}
	for _, row := range rows {
		g, err := ensure(row)
		if err != nil {
			return err
		}
		tup, err := buildHeadTuple(st, row)
		if err != nil {
			return err
		}
		g.tuples = append(g.tuples, tup)
	}
	for _, k := range order {
		g := groups[k]
		applyHeadOp(st, g.rel, g.tuples)
		if err := f.checkRelBudget(g.rel); err != nil {
			return err
		}
	}
	if st.Head.IsReturn {
		f.returned = true
	}
	return nil
}
