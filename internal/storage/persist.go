package storage

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"

	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

// EDB persistence (§10: the back end manages "relations in main memory as
// much as possible, storing EDB relations on disk between runs").

// magic identifies a Glue-Nail EDB image; the trailing digit is the format
// version.
var magic = []byte("GLUENAIL-EDB1\n")

// Save writes every relation of the store to w in a deterministic order.
func Save(w io.Writer, s Store) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic); err != nil {
		return err
	}
	names := s.Names()
	slices.SortFunc(names, func(a, b RelName) int {
		if c := a.Name.Compare(b.Name); c != 0 {
			return c
		}
		return cmp.Compare(a.Arity, b.Arity)
	})
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for _, rn := range names {
		rel, _ := s.Get(rn.Name, rn.Arity)
		buf = buf[:0]
		buf = term.AppendValue(buf, rn.Name)
		buf = binary.AppendUvarint(buf, uint64(rn.Arity))
		buf = binary.AppendUvarint(buf, uint64(rel.Len()))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		tuples := Sorted(rel)
		for _, t := range tuples {
			if err := term.WriteTuple(bw, t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxEmptyArity bounds the arity an image may declare for a relation with
// no tuples. Nothing in the image backs that claim, and creating the
// relation sizes per-column state from it; the bound is the term codec's
// eager tuple size. A relation with tuples needs no bound: it is created
// only once its first tuple has decoded at the declared arity.
const maxEmptyArity = 1 << 10

// Load reads an EDB image from r into the store, adding to any existing
// contents. An image that does not decode fails with a *CorruptError. No
// count in the image sizes an allocation beyond a fixed bound before the
// bytes it describes have arrived.
func Load(r io.Reader, s Store) error {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return corruptImage("", "reading header: %v", err)
	}
	if string(head) != string(magic) {
		return corruptImage("", "not a Glue-Nail EDB image")
	}
	nRels, err := binary.ReadUvarint(br)
	if err != nil {
		return corruptImage("", "reading relation count: %v", err)
	}
	bulk, _ := s.(BulkLoader)
	for i := uint64(0); i < nRels; i++ {
		name, err := term.ReadValue(br)
		if err != nil {
			return corruptImage("", "reading relation name: %v", err)
		}
		arity, err := binary.ReadUvarint(br)
		if err != nil {
			return corruptImage(name.String(), "reading arity: %v", err)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return corruptImage(name.String(), "reading tuple count: %v", err)
		}
		if n == 0 {
			if arity > maxEmptyArity {
				return corruptImage(name.String(), "empty relation declares arity %d (max %d)", arity, maxEmptyArity)
			}
			s.Ensure(name, int(arity))
			continue
		}
		if bulk != nil && n >= BulkThreshold {
			rows := make([]term.Tuple, 0, min(n, BulkThreshold))
			for j := uint64(0); j < n; j++ {
				t, err := readImageTuple(br, name, arity, j)
				if err != nil {
					return err
				}
				rows = append(rows, t)
			}
			if _, err := bulk.BulkLoad(name, int(arity), rows); err != nil {
				return fmt.Errorf("storage: bulk loading %v: %w", name, err)
			}
			continue
		}
		var rel Rel
		for j := uint64(0); j < n; j++ {
			t, err := readImageTuple(br, name, arity, j)
			if err != nil {
				return err
			}
			if rel == nil {
				rel = s.Ensure(name, int(arity))
			}
			rel.Insert(t)
		}
	}
	return nil
}

// readImageTuple decodes tuple j of relation name and checks it has the
// declared arity.
func readImageTuple(br *bufio.Reader, name term.Value, arity, j uint64) (term.Tuple, error) {
	t, err := term.ReadTuple(br)
	if err != nil {
		return nil, corruptImage(name.String(), "reading tuple %d: %v", j, err)
	}
	if uint64(len(t)) != arity {
		return nil, corruptImage(name.String(), "tuple %d has arity %d, relation declares %d", j, len(t), arity)
	}
	return t, nil
}

// corruptImage reports an EDB image that does not decode. An image has no
// checksum of its own, so every inconsistency surfaces at decode time.
func corruptImage(rel, format string, args ...any) error {
	return &CorruptError{Artifact: "edb-image", Relation: rel, Offset: -1,
		Detail: fmt.Sprintf(format, args...)}
}

// SaveFile writes the store to path through fsys, atomically and
// durably: the image is fsynced before it is renamed over path, and the
// directory after, so a crash leaves the old file or the whole new image.
func SaveFile(fsys fsio.FS, path string, s Store) error {
	if _, err := fsio.WriteAtomic(fsys, path, true, func(w io.Writer) error { return Save(w, s) }); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// LoadFile reads an EDB image from path, through fsys, into the store.
func LoadFile(fsys fsio.FS, path string, s Store) error {
	f, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	// An fsio.File reads by offset; a section reader streams it.
	return Load(io.NewSectionReader(f, 0, math.MaxInt64), s)
}
