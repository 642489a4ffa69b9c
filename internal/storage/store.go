package storage

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"gluenail/internal/term"
)

// Store manages a namespace of relations keyed by HiLog name and arity: the
// persistent EDB, or a snapshot session's view of it. Relations are never
// dropped from it. Every store is also a Scratch allocator, whose
// relations — the short-lived ones of procedure frames — stay outside the
// namespace, unnamed; Stats counts both kinds.
type Store interface {
	Scratch
	// Ensure returns the relation for (name, arity), creating it if absent.
	Ensure(name term.Value, arity int) Rel
	// Get returns the relation if it exists.
	Get(name term.Value, arity int) (Rel, bool)
	// Names returns the (name, arity) pairs of all live relations.
	Names() []RelName
	// SetJournal attaches j to every current and future relation of the
	// store so successful mutations are observed for write-ahead logging;
	// nil detaches. Attach only while no mutation is in flight (the
	// executor mutates only at barriers and statement heads, which run
	// sequentially).
	SetJournal(j Journal)
}

// Scratch allocates the relations of procedure frames (§4's in, return and
// locals). Such a relation has no place in a catalog: its frame holds it in
// a slot and releases it when the call returns. Releases may come in any
// order, and none searches a catalog. Allocator-made relations are never
// snapshotted.
type Scratch interface {
	// New returns an empty relation of the given arity.
	New(arity int) Rel
	// Release frees a relation New returned; the caller uses it no more.
	Release(r Rel)
	// Stats returns the shared back-end counters; RelsCreated and
	// RelsDropped count New and Release too.
	Stats() *Stats
}

// ScratchName is the name every allocator-made relation reports.
var ScratchName = term.Intern("$scratch")

// Journal observes successful EDB mutations. Callbacks fire only for
// mutations that changed state: an Insert of a present tuple, a Delete of
// a missing one, or a Clear of an empty relation is not reported. Tuples
// are passed by reference and must not be mutated (the Rel contract
// already forbids mutating stored tuples).
type Journal interface {
	// JournalCreate reports that a relation was created.
	JournalCreate(name term.Value, arity int)
	// JournalClear reports that a non-empty relation was emptied.
	JournalClear(name term.Value, arity int)
	// JournalInsert reports a tuple newly added to the relation.
	JournalInsert(name term.Value, arity int, t term.Tuple)
	// JournalDelete reports a tuple removed from the relation.
	JournalDelete(name term.Value, arity int, t term.Tuple)
}

// RelName identifies a relation in a store.
type RelName struct {
	Name  term.Value
	Arity int
}

// String renders "name/arity".
func (rn RelName) String() string {
	return rn.Name.String() + "/" + strconv.Itoa(rn.Arity)
}

// MemStore is the tailored main-memory store (§10): no locking, no logging,
// relations are created in constant time. As a Scratch it hands out plain
// Relations outside its catalog, which the garbage collector frees.
//
// The store also owns the commit sequence number (CSN) that versions its
// relations: every mutation is stamped with commitCSN+1 (the CSN the
// statement in flight will commit as), AdvanceCSN publishes a statement
// boundary, and Snapshot captures an immutable view of every relation at
// the current committed CSN for concurrent readers.
type MemStore struct {
	rels    Catalog[*Relation]
	policy  IndexPolicy
	stats   Stats
	journal Journal
	// commitCSN is the last committed statement's sequence number; shared
	// with every relation as the deletion-stamp source.
	commitCSN atomic.Uint64
}

// NewMemStore returns an empty store whose relations follow the given index
// policy.
func NewMemStore(policy IndexPolicy) *MemStore {
	return &MemStore{policy: policy}
}

// Ensure implements Store.
func (s *MemStore) Ensure(name term.Value, arity int) Rel {
	return s.ensure(name, arity)
}

func (s *MemStore) ensure(name term.Value, arity int) *Relation {
	if r, ok := s.rels.Get(name, arity); ok {
		return r
	}
	r := NewRelation(name, arity, s.policy, &s.stats)
	r.journal = s.journal
	r.csn = &s.commitCSN
	s.rels.Add(name, arity, r)
	atomic.AddInt64(&s.stats.RelsCreated, 1)
	if s.journal != nil {
		s.journal.JournalCreate(name, arity)
	}
	return r
}

// Get implements Store.
func (s *MemStore) Get(name term.Value, arity int) (Rel, bool) {
	r, ok := s.rels.Get(name, arity)
	if !ok {
		return nil, false
	}
	return r, true
}

// New implements Scratch.
func (s *MemStore) New(arity int) Rel {
	atomic.AddInt64(&s.stats.RelsCreated, 1)
	return NewRelation(ScratchName, arity, s.policy, &s.stats)
}

// Release implements Scratch.
func (s *MemStore) Release(Rel) { atomic.AddInt64(&s.stats.RelsDropped, 1) }

// Names implements Store.
func (s *MemStore) Names() []RelName { return s.rels.Names() }

// Stats implements Store.
func (s *MemStore) Stats() *Stats { return &s.stats }

// SetJournal implements Store.
func (s *MemStore) SetJournal(j Journal) {
	s.journal = j
	for _, r := range s.rels.Rels() {
		r.journal = j
	}
}

// CommitCSN returns the last committed statement's sequence number.
func (s *MemStore) CommitCSN() uint64 { return s.commitCSN.Load() }

// AdvanceCSN publishes a statement boundary: mutations stamped since the
// previous boundary become part of the returned CSN, and snapshots taken
// from here on see them. Called by the (single) writer at commit points.
func (s *MemStore) AdvanceCSN() uint64 { return s.commitCSN.Add(1) }

// String summarizes the store for diagnostics.
func (s *MemStore) String() string {
	return fmt.Sprintf("MemStore(%d relations)", s.rels.Len())
}
