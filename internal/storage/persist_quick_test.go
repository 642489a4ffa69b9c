package storage

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"gluenail/internal/term"
)

// TestQuickPersistenceRoundTrip: any randomly populated store survives a
// Save/Load cycle with identical contents.
func TestQuickPersistenceRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := NewMemStore(IndexAdaptive)
		nRels := 1 + rng.Intn(5)
		for r := 0; r < nRels; r++ {
			var name term.Value
			if rng.Intn(2) == 0 {
				name = term.NewString(string(rune('a' + r)))
			} else {
				name = term.Atom("fam", term.NewInt(int64(r)))
			}
			arity := 1 + rng.Intn(3)
			rel := src.Ensure(name, arity)
			for i := 0; i < rng.Intn(30); i++ {
				tup := make(term.Tuple, arity)
				for j := range tup {
					switch rng.Intn(4) {
					case 0:
						tup[j] = term.NewInt(int64(rng.Intn(100)))
					case 1:
						tup[j] = term.NewFloat(float64(rng.Intn(20)) / 4)
					case 2:
						tup[j] = term.NewString(string(rune('x' + rng.Intn(3))))
					default:
						tup[j] = term.Atom("g", term.NewInt(int64(rng.Intn(5))))
					}
				}
				rel.Insert(tup)
			}
		}
		var buf bytes.Buffer
		if err := Save(&buf, src); err != nil {
			return false
		}
		dst := NewMemStore(IndexAdaptive)
		if err := Load(&buf, dst); err != nil {
			return false
		}
		if len(dst.Names()) != len(src.Names()) {
			return false
		}
		for _, rn := range src.Names() {
			srcRel, _ := src.Get(rn.Name, rn.Arity)
			dstRel, ok := dst.Get(rn.Name, rn.Arity)
			if !ok || dstRel.Len() != srcRel.Len() {
				return false
			}
			for _, tup := range srcRel.All() {
				if !dstRel.Contains(tup) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickInsertDeltaInvariant: the rows Insert reports new (the
// uniondiff delta) are exactly the batch minus what was already present,
// and the relation afterwards equals the union — with the whole batch
// inserted from one scratch tuple rewritten per row.
func TestQuickInsertDeltaInvariant(t *testing.T) {
	prop := func(existing, batch []int8) bool {
		rel := NewRelation(term.NewString("u"), 1, IndexAdaptive, nil)
		before := map[int8]bool{}
		for _, v := range existing {
			rel.Insert(term.Tuple{term.NewInt(int64(v))})
			before[v] = true
		}
		var delta []int64
		scratch := make(term.Tuple, 1)
		for _, v := range batch {
			scratch[0] = term.NewInt(int64(v))
			if rel.Insert(scratch) {
				delta = append(delta, int64(v))
			}
		}
		// Delta contains only genuinely new values, each exactly once.
		seen := map[int64]bool{}
		for _, v := range delta {
			if before[int8(v)] || seen[v] {
				return false
			}
			seen[v] = true
		}
		// Union correctness.
		want := map[int8]bool{}
		for v := range before {
			want[v] = true
		}
		for _, v := range batch {
			want[v] = true
		}
		if rel.Len() != len(want) {
			return false
		}
		for v := range want {
			if !rel.Contains(term.Tuple{term.NewInt(int64(v))}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickModifyByKeyInvariant: after ModifyByKey, every row's key maps to
// exactly its new tuple, and unrelated keys are untouched.
func TestQuickModifyByKeyInvariant(t *testing.T) {
	prop := func(initial [][2]int8, updates [][2]int8) bool {
		rel := NewRelation(term.NewString("m"), 2, IndexAdaptive, nil)
		for _, kv := range initial {
			rel.Insert(term.Tuple{term.NewInt(int64(kv[0])), term.NewInt(int64(kv[1]))})
		}
		rows := make([]term.Tuple, len(updates))
		for i, kv := range updates {
			rows[i] = term.Tuple{term.NewInt(int64(kv[0])), term.NewInt(int64(kv[1]))}
		}
		rel.ModifyByKey(0b01, rows)
		// Model: later updates win per key; untouched keys keep all values.
		final := map[int8]map[int8]bool{}
		for _, kv := range initial {
			if final[kv[0]] == nil {
				final[kv[0]] = map[int8]bool{}
			}
			final[kv[0]][kv[1]] = true
		}
		for _, kv := range updates {
			final[kv[0]] = map[int8]bool{kv[1]: true}
		}
		n := 0
		for k, vs := range final {
			for v := range vs {
				n++
				if !rel.Contains(term.Tuple{term.NewInt(int64(k)), term.NewInt(int64(v))}) {
					return false
				}
			}
		}
		return rel.Len() == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
