package storage

import (
	"strconv"
	"sync"
	"sync/atomic"

	"gluenail/internal/term"
)

// LayeredStore simulates building the deductive system on top of an existing
// protected relational DBMS, the design §10 of the paper calls a mistake:
// "in a traditional relational database there are few relations, they live
// for a long time ... [deductive] relations do not need the level of
// protection that a relational database provides, and in fact the system
// wastes much of its time performing such tasks."
//
// Every operation pays for the protections a general-purpose DBMS imposes:
//
//   - a catalog probe (name resolution through a second hash table),
//   - a latch acquire/release (even though the workload is single-user),
//   - write-ahead logging of every mutation (encoded tuple appended to an
//     in-memory log, counted in Stats.LogBytes), and
//   - logged relation creation/destruction, making short-lived temporaries
//     expensive: as a Scratch it numbers each frame relation, enters it in
//     the catalog and logs it, and Release logs the destruction and
//     removes the catalog entry.
//
// It is functionally identical to MemStore and exists as the measured
// baseline for experiment E8.
type LayeredStore struct {
	inner *MemStore
	// catalog holds the key of every live relation.
	catalog map[string]RelName
	mu      sync.Mutex
	log     []byte
	// temps counts the relations New made; each is named by its count.
	temps int64
}

// NewLayeredStore returns a layered baseline store with the given index
// policy for its underlying relations.
func NewLayeredStore(policy IndexPolicy) *LayeredStore {
	return &LayeredStore{
		inner:   NewMemStore(policy),
		catalog: make(map[string]RelName),
	}
}

// latch charges the cost of a latch acquire/release at operation entry.
// The workload is single-user (§10), so the latch is not held across scan
// callbacks — nested scans would self-deadlock — but every operation still
// pays for an uncontended lock/unlock pair, which is the cost being
// simulated.
func (s *LayeredStore) latch() func() {
	s.mu.Lock()
	atomic.AddInt64(&s.inner.stats.LatchAcquires, 1)
	s.mu.Unlock()
	return func() {}
}

// catalogKey builds the string key a general-purpose DBMS catalog
// resolves names by: the name's canonical encoding plus the arity.
// Building it on every operation is part of the simulated cost.
func catalogKey(name term.Value, arity int) string {
	b := term.AppendValue(nil, name)
	b = append(b, '/')
	return string(strconv.AppendInt(b, int64(arity), 10))
}

// catalogLookup resolves a name through the catalog and returns its key.
func (s *LayeredStore) catalogLookup(name term.Value, arity int) string {
	k := catalogKey(name, arity)
	s.catalogProbe(k, name, arity)
	return k
}

// catalogProbe resolves key k through the catalog; the catalog map is
// guarded by mu so parallel pipeline readers can resolve concurrently.
func (s *LayeredStore) catalogProbe(k string, name term.Value, arity int) {
	atomic.AddInt64(&s.inner.stats.CatalogProbes, 1)
	s.mu.Lock()
	if _, ok := s.catalog[k]; !ok {
		s.catalog[k] = RelName{Name: name, Arity: arity}
	}
	s.mu.Unlock()
}

func (s *LayeredStore) appendLog(op byte, name term.Value, t term.Tuple) {
	s.mu.Lock()
	s.log = append(s.log, op)
	s.log = term.AppendValue(s.log, name)
	for i := range t {
		s.log = term.AppendValue(s.log, t[i])
	}
	atomic.StoreInt64(&s.inner.stats.LogBytes, int64(len(s.log)))
	s.mu.Unlock()
}

// Ensure implements Store; creation is logged.
func (s *LayeredStore) Ensure(name term.Value, arity int) Rel {
	defer s.latch()()
	k := s.catalogLookup(name, arity)
	if r, ok := s.inner.Get(name, arity); ok {
		return &layeredRel{store: s, key: k, inner: r.(*Relation)}
	}
	s.appendLog('C', name, nil)
	return &layeredRel{store: s, key: k, inner: s.inner.ensure(name, arity)}
}

// Get implements Store.
func (s *LayeredStore) Get(name term.Value, arity int) (Rel, bool) {
	defer s.latch()()
	k := s.catalogLookup(name, arity)
	r, ok := s.inner.Get(name, arity)
	if !ok {
		return nil, false
	}
	return &layeredRel{store: s, key: k, inner: r.(*Relation)}, true
}

// New implements Scratch; creation is logged.
func (s *LayeredStore) New(arity int) Rel {
	defer s.latch()()
	s.temps++
	name := term.NewInt(s.temps)
	k := s.catalogLookup(name, arity)
	s.appendLog('C', name, nil)
	atomic.AddInt64(&s.inner.stats.RelsCreated, 1)
	return &layeredRel{store: s, key: k, inner: NewRelation(name, arity, s.inner.policy, &s.inner.stats)}
}

// Release implements Scratch; destruction is logged, and the catalog
// forgets the relation.
func (s *LayeredStore) Release(rel Rel) {
	defer s.latch()()
	r := rel.(*layeredRel)
	k := s.catalogLookup(r.inner.name, r.Arity())
	s.appendLog('D', r.inner.name, nil)
	s.mu.Lock()
	delete(s.catalog, k)
	s.mu.Unlock()
	atomic.AddInt64(&s.inner.stats.RelsDropped, 1)
}

// Names implements Store.
func (s *LayeredStore) Names() []RelName {
	defer s.latch()()
	return s.inner.Names()
}

// Stats implements Store.
func (s *LayeredStore) Stats() *Stats { return s.inner.Stats() }

// SetJournal implements Store; the hook attaches to the underlying
// relations, so mutations made through layeredRel wrappers are observed.
func (s *LayeredStore) SetJournal(j Journal) {
	defer s.latch()()
	s.inner.SetJournal(j)
}

// layeredRel wraps a Relation, charging the DBMS toll on every operation.
// key is its catalog key, resolved again by every operation.
type layeredRel struct {
	store *LayeredStore
	key   string
	inner *Relation
}

func (r *layeredRel) Name() term.Value { return r.inner.Name() }
func (r *layeredRel) Arity() int       { return r.inner.Arity() }

func (r *layeredRel) Len() int {
	defer r.store.latch()()
	return r.inner.Len()
}

func (r *layeredRel) Version() uint64 {
	defer r.store.latch()()
	return r.inner.Version()
}

func (r *layeredRel) Insert(t term.Tuple) bool {
	defer r.store.latch()()
	r.store.catalogProbe(r.key, r.inner.name, r.inner.Arity())
	if r.inner.Insert(t) {
		r.store.appendLog('I', r.inner.name, t)
		return true
	}
	return false
}

func (r *layeredRel) Delete(t term.Tuple) bool {
	defer r.store.latch()()
	r.store.catalogProbe(r.key, r.inner.name, r.inner.Arity())
	if r.inner.Delete(t) {
		r.store.appendLog('X', r.inner.name, t)
		return true
	}
	return false
}

func (r *layeredRel) Contains(t term.Tuple) bool {
	defer r.store.latch()()
	r.store.catalogProbe(r.key, r.inner.name, r.inner.Arity())
	return r.inner.Contains(t)
}

func (r *layeredRel) Clear() {
	defer r.store.latch()()
	r.store.appendLog('D', r.inner.name, nil)
	r.inner.Clear()
}

func (r *layeredRel) Scan(yield func(term.Tuple) bool) {
	defer r.store.latch()()
	r.store.catalogProbe(r.key, r.inner.name, r.inner.Arity())
	r.inner.Scan(yield)
}

func (r *layeredRel) Lookup(mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	defer r.store.latch()()
	r.store.catalogProbe(r.key, r.inner.name, r.inner.Arity())
	r.inner.Lookup(mask, key, yield)
}

func (r *layeredRel) LookupRange(lo, hi int, mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	defer r.store.latch()()
	r.store.catalogProbe(r.key, r.inner.name, r.inner.Arity())
	r.inner.LookupRange(lo, hi, mask, key, yield)
}

func (r *layeredRel) DistinctEst(col int) int {
	defer r.store.latch()()
	return r.inner.DistinctEst(col)
}

func (r *layeredRel) Grow(n int) {
	defer r.store.latch()()
	r.inner.Grow(n)
}

func (r *layeredRel) ModifyByKey(mask uint32, rows []term.Tuple) {
	for _, row := range rows {
		var victims []term.Tuple
		r.Lookup(mask, row, func(t term.Tuple) bool {
			victims = append(victims, t)
			return true
		})
		for _, v := range victims {
			r.Delete(v)
		}
		r.Insert(row)
	}
}

func (r *layeredRel) All() []term.Tuple {
	defer r.store.latch()()
	return r.inner.All()
}
