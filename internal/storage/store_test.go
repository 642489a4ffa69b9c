package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"

	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

func TestMemStoreEnsureGet(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	name := term.NewString("edge")
	r := s.Ensure(name, 2)
	if r.Arity() != 2 || !r.Name().Equal(name) {
		t.Errorf("Ensure returned wrong relation %v/%d", r.Name(), r.Arity())
	}
	if r2 := s.Ensure(name, 2); r2 != r {
		t.Error("Ensure should return the same relation object")
	}
	// Same name, different arity is a different relation.
	r3 := s.Ensure(name, 3)
	if r3 == r {
		t.Error("arity should distinguish relations")
	}
	if _, ok := s.Get(name, 2); !ok {
		t.Error("Get should find existing relation")
	}
	if _, ok := s.Get(term.NewString("nope"), 2); ok {
		t.Error("Get should miss absent relation")
	}
	if got := len(s.Names()); got != 2 {
		t.Errorf("Names = %d entries, want 2", got)
	}
	// A scratch relation takes no place in the catalog.
	s.Release(s.New(2))
	if got := len(s.Names()); got != 2 {
		t.Errorf("Names = %d entries after New, want 2", got)
	}
	if s.Stats().RelsCreated != 3 || s.Stats().RelsDropped != 1 {
		t.Errorf("stats: created=%d dropped=%d", s.Stats().RelsCreated, s.Stats().RelsDropped)
	}
}

func TestHiLogRelationNames(t *testing.T) {
	// students(cs99) is a legal relation name (§5).
	s := NewMemStore(IndexAdaptive)
	n1 := term.Atom("students", term.NewString("cs99"))
	n2 := term.Atom("students", term.NewString("cs101"))
	r1 := s.Ensure(n1, 1)
	r2 := s.Ensure(n2, 1)
	if r1 == r2 {
		t.Fatal("distinct compound names must map to distinct relations")
	}
	r1.Insert(term.Tuple{term.NewString("wilson")})
	if r2.Len() != 0 {
		t.Error("insert leaked across compound-named relations")
	}
}

func TestRelNameString(t *testing.T) {
	rn := RelName{Name: term.NewString("edge"), Arity: 2}
	if rn.String() != "edge/2" {
		t.Errorf("String = %q", rn.String())
	}
}

func TestMemStoreString(t *testing.T) {
	s := NewMemStore(IndexNever)
	s.Ensure(term.NewString("a"), 1)
	if got := s.String(); got != "MemStore(1 relations)" {
		t.Errorf("String = %q", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := NewMemStore(IndexAdaptive)
	edge := src.Ensure(term.NewString("edge"), 2)
	edge.Insert(term.Tuple{term.NewInt(1), term.NewInt(2)})
	edge.Insert(term.Tuple{term.NewInt(2), term.NewInt(3)})
	hilog := src.Ensure(term.Atom("students", term.NewString("cs99")), 1)
	hilog.Insert(term.Tuple{term.NewString("wilson")})
	empty := src.Ensure(term.NewString("empty"), 3)
	_ = empty

	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewMemStore(IndexAdaptive)
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	e2, ok := dst.Get(term.NewString("edge"), 2)
	if !ok || e2.Len() != 2 {
		t.Fatalf("edge not restored (ok=%v)", ok)
	}
	if !e2.Contains(term.Tuple{term.NewInt(1), term.NewInt(2)}) {
		t.Error("edge tuple missing after load")
	}
	h2, ok := dst.Get(term.Atom("students", term.NewString("cs99")), 1)
	if !ok || h2.Len() != 1 {
		t.Error("HiLog-named relation not restored")
	}
	if _, ok := dst.Get(term.NewString("empty"), 3); !ok {
		t.Error("empty relation should still be declared after load")
	}
}

func TestSaveDeterministic(t *testing.T) {
	build := func() *MemStore {
		s := NewMemStore(IndexAdaptive)
		r := s.Ensure(term.NewString("r"), 1)
		for i := int64(0); i < 50; i++ {
			r.Insert(term.Tuple{term.NewInt(i * 7 % 50)})
		}
		s.Ensure(term.NewString("a"), 2).Insert(term.Tuple{term.NewInt(1), term.NewInt(2)})
		return s
	}
	var b1, b2 bytes.Buffer
	if err := Save(&b1, build()); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b2, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("Save output should be deterministic")
	}
}

func TestLoadErrors(t *testing.T) {
	s := NewMemStore(IndexAdaptive)
	if err := Load(bytes.NewReader(nil), s); err == nil {
		t.Error("empty input should fail")
	}
	if err := Load(bytes.NewReader([]byte("NOT-AN-EDB-FILE!!")), s); err == nil {
		t.Error("bad magic should fail")
	}
	truncated := append([]byte{}, magic...)
	truncated = append(truncated, 5) // claims 5 relations, provides none
	if err := Load(bytes.NewReader(truncated), s); err == nil {
		t.Error("truncated input should fail")
	}
}

// bulkStore is a MemStore with the BulkLoader face, so Load takes its
// batch path.
type bulkStore struct{ *MemStore }

func (b bulkStore) BulkLoad(name term.Value, arity int, rows []term.Tuple) (int, error) {
	rel := b.Ensure(name, arity)
	before := rel.Len()
	for _, t := range rows {
		rel.Insert(t)
	}
	return rel.Len() - before, nil
}

// imageHeader returns an EDB image declaring one relation e with the
// given arity and tuple count, followed by body.
func imageHeader(arity, n uint64, body ...byte) []byte {
	img := append([]byte{}, magic...)
	img = binary.AppendUvarint(img, 1)
	img = term.AppendValue(img, term.Intern("e"))
	img = binary.AppendUvarint(img, arity)
	img = binary.AppendUvarint(img, n)
	return append(img, body...)
}

// TestLoadMalformedImages: header counts that nothing in the image backs
// are refused with a typed error before anything is sized from them.
func TestLoadMalformedImages(t *testing.T) {
	oneTuple := binary.AppendUvarint(nil, 1) // a 1-tuple: (7)
	oneTuple = term.AppendValue(oneTuple, term.NewInt(7))
	for _, tc := range []struct {
		name  string
		img   []byte
		store Store
	}{
		// 25 bytes declaring an empty relation of arity 2^40.
		{"empty relation, arity 2^40", imageHeader(1<<40, 0), NewMemStore(IndexAdaptive)},
		{"empty relation, arity 1025", imageHeader(maxEmptyArity+1, 0), NewMemStore(IndexAdaptive)},
		// Arity 2^40 with a tuple that decodes at arity 1.
		{"tuple short of arity 2^40", imageHeader(1<<40, 1, oneTuple...), NewMemStore(IndexAdaptive)},
		// A bulk-sized count of 2^62 with no tuples behind it.
		{"tuple count 2^62", imageHeader(2, 1<<62), bulkStore{NewMemStore(IndexAdaptive)}},
	} {
		err := Load(bytes.NewReader(tc.img), tc.store)
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Artifact != "edb-image" || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want a corrupt edb-image error", tc.name, err)
		}
		if names := tc.store.Names(); len(names) != 0 {
			t.Errorf("%s: malformed image created %v", tc.name, names)
		}
	}
	if n := len(imageHeader(1<<40, 0)); n != 25 {
		t.Errorf("arity image is %d bytes, want 25", n)
	}
	// The bound admits what it names.
	s := NewMemStore(IndexAdaptive)
	if err := Load(bytes.NewReader(imageHeader(maxEmptyArity, 0)), s); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(term.Intern("e"), maxEmptyArity); !ok {
		t.Error("empty relation at the arity bound was not declared")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "edb.bin")
	src := NewMemStore(IndexAdaptive)
	src.Ensure(term.NewString("r"), 1).Insert(term.Tuple{term.NewInt(7)})
	if err := SaveFile(fsio.OS, path, src); err != nil {
		t.Fatal(err)
	}
	dst := NewMemStore(IndexAdaptive)
	if err := LoadFile(fsio.OS, path, dst); err != nil {
		t.Fatal(err)
	}
	r, ok := dst.Get(term.NewString("r"), 1)
	if !ok || !r.Contains(term.Tuple{term.NewInt(7)}) {
		t.Error("file round trip lost data")
	}
	if err := LoadFile(fsio.OS, filepath.Join(dir, "missing.bin"), dst); err == nil {
		t.Error("loading a missing file should fail")
	}
}
