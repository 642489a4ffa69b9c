package storage

import (
	"bytes"
	"runtime"
	"testing"

	"gluenail/internal/term"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzEDBImage throws arbitrary bytes at Load, the decoder behind
// System.LoadEDB and every WAL snapshot. The contract: no panic, and no
// allocation sized from a count the image does not back. Decoding may
// allocate at most 2 MiB plus 128 bytes per input byte, the bound
// FuzzReplay holds the WAL to; on top of that the relations the image
// declares cost what creating them in a fresh store costs, and their
// arities are bounded by the bytes of their tuples or, for empty ones, by
// maxEmptyArity. The store has the BulkLoader face, so large relations
// take the batch path.
func FuzzEDBImage(f *testing.F) {
	src := NewMemStore(IndexAdaptive)
	edge := src.Ensure(term.Intern("edge"), 2)
	edge.Insert(term.Tuple{term.NewInt(1), term.NewInt(2)})
	edge.Insert(term.Tuple{term.NewInt(2), term.Intern("x")})
	src.Ensure(term.Atom("team", term.Intern("d1")), 1).Insert(term.Tuple{term.NewFloat(1.5)})
	src.Ensure(term.Intern("empty"), 3)
	var img bytes.Buffer
	if err := Save(&img, src); err != nil {
		f.Fatal(err)
	}
	f.Add(img.Bytes())
	f.Add(imageHeader(1<<40, 0))
	f.Add(imageHeader(2, 1<<62))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st := bulkStore{NewMemStore(IndexAdaptive)}
		got := allocated(func() { _ = Load(bytes.NewReader(data), st) })
		names := st.Names()
		declared := allocated(func() {
			fresh := NewMemStore(IndexAdaptive)
			for _, rn := range names {
				fresh.Ensure(rn.Name, rn.Arity)
			}
		})
		if limit := uint64(2<<20+128*len(data)) + declared; got > limit {
			t.Fatalf("allocated %d bytes loading %d bytes (limit %d)", got, len(data), limit)
		}
		for _, rn := range names {
			rel, _ := st.Get(rn.Name, rn.Arity)
			if rn.Arity > maxEmptyArity && (rel.Len() == 0 || rn.Arity > len(data)) {
				t.Fatalf("image of %d bytes declared %v with %d tuples", len(data), rn, rel.Len())
			}
		}
	})
}
