package gluenail

// The EDB through the API: rows in (Assert, LoadCSV, LoadEDB), rows out
// (Relation, Snapshot.Relation, SaveCSV), deletes, checkpoints and the
// disk engine's scrub and fault state.

import (
	"fmt"
	"slices"

	"gluenail/internal/modsys"
	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// toValue converts a Go value to a term value.
func toValue(v any) (Value, error) {
	switch v := v.(type) {
	case Value:
		return v, nil
	case int:
		return term.NewInt(int64(v)), nil
	case int64:
		return term.NewInt(v), nil
	case float64:
		return term.NewFloat(v), nil
	case string:
		return term.Intern(v), nil
	}
	return Value{}, fmt.Errorf("gluenail: cannot convert %T to a value", v)
}

// scratchKeep caps the input scratch (in values) a System keeps between
// calls; a larger batch's scratch is left to the GC.
const scratchKeep = 1024

// withRows converts rows, after lead, into the system's reusable scratch
// — one value slab and one tuple list — and hands them to use: the input
// path of Assert, Retract and Call. Every consumer (Insert, BulkLoad, a
// procedure's input relation) copies what it keeps, so afterwards the
// values go to the GC, and a scratch too large to keep is dropped. Called
// under do.
func (s *System) withRows(lead []term.Tuple, rows [][]any, use func([]term.Tuple) error) error {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	vals := slices.Grow(s.rowVals[:0], n)[:n]
	tuples := append(s.rowTuples[:0], lead...)
	s.rowVals = vals
	defer func() {
		if cap(s.rowVals) > scratchKeep || cap(tuples) > scratchKeep {
			s.rowVals, s.rowTuples = nil, nil
			return
		}
		clear(s.rowVals)
		clear(tuples)
		s.rowTuples = tuples
	}()
	for _, row := range rows {
		t := term.Tuple(vals[:len(row):len(row)])
		vals = vals[len(row):]
		for i, v := range row {
			val, err := toValue(v)
			if err != nil {
				return err
			}
			t[i] = val
		}
		tuples = append(tuples, t)
	}
	return use(tuples)
}

// Assert inserts facts into an EDB relation, creating it on first use. The
// relation name may be a simple name ("edge") or a Value for HiLog set
// relations. If the program is already compiled and declares the relation
// with a different arity, the mismatch is reported instead of silently
// creating a parallel relation.
func (s *System) Assert(relation any, rows ...[]any) error {
	return s.do(needStore, func() error {
		name, err := toValue(relation)
		if err != nil {
			return err
		}
		return s.withRows(nil, rows, func(tuples []term.Tuple) error { return s.insert(name, tuples) })
	})
}

// insert adds rows to the EDB relation name as one statement and commits
// it: the one path by which the API's rows enter the store (Assert and
// LoadCSV). Once the program is compiled, a row whose arity differs from
// the relation's edb declaration rejects the whole batch. Each run of
// consecutive rows of one arity goes through the engine's direct bulk path
// (storage.BulkLoader, inside bulkFence) when it holds at least
// storage.BulkThreshold rows, and row at a time through the journal
// otherwise. The store copies what it keeps, so rows may be scratch.
func (s *System) insert(name term.Value, rows []term.Tuple) error {
	if err := s.checkArity(name, rows); err != nil {
		return err
	}
	for len(rows) > 0 {
		arity, n := len(rows[0]), 1
		for n < len(rows) && len(rows[n]) == arity {
			n++
		}
		group := rows[:n]
		rows = rows[n:]
		if bulk, ok := s.edb.(storage.BulkLoader); ok && len(group) >= storage.BulkThreshold {
			err := s.bulkFence(func() error {
				_, err := bulk.BulkLoad(name, arity, group)
				return err
			})
			if err != nil {
				return err
			}
		} else {
			rel := s.edb.Ensure(name, arity)
			rel.Grow(len(group))
			for _, t := range group {
				rel.Insert(t)
			}
		}
	}
	return s.commit()
}

// checkArity rejects rows whose arity differs from the edb declaration of
// name in the compiled program; before the first compile nothing is
// declared yet.
func (s *System) checkArity(name term.Value, rows []term.Tuple) error {
	if s.lp == nil || name.Kind() != term.Str {
		return nil
	}
	sym := s.lp.Resolve("main", name.Str())
	if sym == nil || sym.Class != modsys.ClassEDB {
		return nil
	}
	for _, t := range rows {
		if len(t) != sym.Arity() {
			return fmt.Errorf("gluenail: %s is declared with arity %d, asserted tuple has %d",
				name.Str(), sym.Arity(), len(t))
		}
	}
	return nil
}

// bulkFence runs load, which may write through the engine's direct bulk
// path (storage.BulkLoader) and so bypass the WAL, between two WAL
// fences: pending deltas are committed and the log rotated empty first
// (replay must never re-apply an older tail over a base that already
// contains the batch), and a closing checkpoint makes the engine's base —
// now the batch's only home — durable. A crash between the fences reverts
// to the pre-statement base: the batch's runs are swept as orphans on
// reopen, so recovery still yields a statement-boundary prefix. Without a
// WAL or a bulk path there is nothing to fence.
func (s *System) bulkFence(load func() error) error {
	if _, ok := s.edb.(storage.BulkLoader); !ok || s.wlog == nil {
		return load()
	}
	if err := s.commit(); err != nil {
		return err
	}
	if err := s.wlog.Checkpoint(s.edb); err != nil {
		return err
	}
	if err := load(); err != nil {
		return err
	}
	return s.wlog.Checkpoint(s.edb)
}

// Retract removes facts from an EDB relation.
func (s *System) Retract(relation any, rows ...[]any) error {
	return s.do(needStore, func() error {
		name, err := toValue(relation)
		if err != nil {
			return err
		}
		return s.withRows(nil, rows, func(tuples []term.Tuple) error {
			for _, t := range tuples {
				if rel, ok := s.edb.Get(name, len(t)); ok {
					rel.Delete(t)
				}
			}
			return s.commit()
		})
	})
}

// Relation returns the current sorted contents of an EDB relation.
func (s *System) Relation(relation any, arity int) ([][]Value, error) {
	return value(s, needStore, func() ([][]Value, error) { return readRelation(s.edb, relation, arity) })
}

// readRelation returns a sorted copy of relation/arity's rows in st, nil
// if the relation does not exist: the one read-out behind System.Relation,
// Snapshot.Relation and SaveCSV. The rows are cut from one slab, so a
// caller that writes to them cannot reach the relation's storage.
func readRelation(st storage.Store, relation any, arity int) ([][]Value, error) {
	name, err := toValue(relation)
	if err != nil {
		return nil, err
	}
	rel, ok := st.Get(name, arity)
	if !ok {
		return nil, nil
	}
	tuples := storage.Sorted(rel)
	n := 0
	for _, t := range tuples {
		n += len(t)
	}
	slab := make([]Value, n)
	out := make([][]Value, len(tuples))
	for i, t := range tuples {
		out[i] = slab[:len(t):len(t)]
		copy(out[i], t)
		slab = slab[len(t):]
	}
	return out, nil
}

// SaveEDB writes the EDB to a file (§10: EDB relations persist on disk
// between runs).
func (s *System) SaveEDB(path string) error {
	return s.do(needStore, func() error { return storage.SaveFile(s.cfg.fs, path, s.edb) })
}

// LoadEDB reads an EDB image into the store. On an engine with a direct
// bulk path (storage.BulkLoader — the disk backend), large relations in
// the image bypass the WAL and land straight in runs, fenced by a
// checkpoint on each side (see bulkFence for the crash-safety argument);
// small relations still insert row at a time through the journal.
func (s *System) LoadEDB(path string) error {
	return s.do(needStore, func() error {
		return s.bulkFence(func() error {
			if err := storage.LoadFile(s.cfg.fs, path, s.edb); err != nil {
				return err
			}
			return s.commit()
		})
	})
}

// Checkpoint serializes the EDB into a fresh snapshot and rotates the
// write-ahead log. It may only be called between statements (never from
// inside a Register callback). Without durability it reports an error.
func (s *System) Checkpoint() error {
	return s.do(needStore, func() error {
		if s.wlog == nil {
			return fmt.Errorf("gluenail: Checkpoint requires durability (use Open or WithDurability)")
		}
		if err := s.commit(); err != nil {
			return err
		}
		return s.wlog.Checkpoint(s.edb)
	})
}

// ScrubEDB verifies every checksum in a disk-backed EDB's stored runs,
// manifest, and intern file, returning one human-readable line per
// finding (empty means clean). With repair set, auxiliary damage — hash
// sections, bloom filters, footers — is healed by rewriting the run from
// its surviving tuple data, and runs with damaged tuple bytes are
// quarantined (renamed aside and dropped from the relation) rather than
// left to return wrong answers. Requires the disk backend.
func (s *System) ScrubEDB(repair bool) ([]string, error) {
	return value(s, needStore, func() ([]string, error) {
		sc, ok := s.edb.(interface {
			Scrub(repair bool) []storage.Finding
		})
		if !ok {
			return nil, fmt.Errorf("gluenail: ScrubEDB requires the disk backend (WithBackend(\"disk\"))")
		}
		findings := sc.Scrub(repair)
		out := make([]string, len(findings))
		for i, f := range findings {
			out[i] = f.String()
		}
		return out, nil
	})
}

// Degraded reports whether the EDB engine has entered read-only degraded
// mode after a disk fault: non-nil is the fault that tripped it (an
// ErrDiskFault). A degraded store keeps serving reads from its durable
// base; writes fail typed until the store is reopened. Always nil for the
// main-memory backend; a system whose startup failed reports its startup
// error, as every operation does.
func (s *System) Degraded() error {
	return s.do(needStore, func() error {
		if d, ok := s.edb.(interface{ Degraded() error }); ok {
			return d.Degraded()
		}
		return nil
	})
}
