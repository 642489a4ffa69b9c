package storage

import (
	"gluenail/internal/hashtab"
	"gluenail/internal/term"
)

// Catalog is a store's relation namespace (§10: relations are created and
// found at almost no cost). It finds a relation by the hash of its name and
// arity, without building a key, and compares names by term identity
// (term.Value.Identical): two names are one relation iff their canonical
// encodings are equal. Entries keep creation order, so Names and Rels are
// deterministic; the hash table (the hashtab.Table every row set uses) maps
// a key hash to an entry's index. Entries are never removed: a store's
// relations live as long as it does, and procedure frames take theirs from
// a Scratch allocator, outside any catalog. A Catalog does no locking; each
// store guards its own. The zero value is an empty catalog.
type Catalog[R any] struct {
	tab  hashtab.Table
	ents []catEntry[R]
}

type catEntry[R any] struct {
	name RelName
	rel  R
}

// catalogHash folds the arity into the name's hash.
func catalogHash(name term.Value, arity int) uint64 {
	return (name.Hash() ^ uint64(arity)) * 1099511628211
}

// find returns the index of (name, arity) in ents, or -1.
func (c *Catalog[R]) find(name term.Value, arity int, h uint64) int {
	return int(c.tab.Find(h, func(i int32) bool {
		e := &c.ents[i]
		return e.name.Arity == arity && e.name.Name.Identical(name)
	}))
}

// Get returns the relation for (name, arity) if the catalog holds it.
func (c *Catalog[R]) Get(name term.Value, arity int) (R, bool) {
	if i := c.find(name, arity, catalogHash(name, arity)); i >= 0 {
		return c.ents[i].rel, true
	}
	var zero R
	return zero, false
}

// Add records r as the youngest relation, under (name, arity); the caller
// has checked that the catalog does not hold that key yet.
func (c *Catalog[R]) Add(name term.Value, arity int, r R) {
	c.add(name, arity, catalogHash(name, arity), r)
}

func (c *Catalog[R]) add(name term.Value, arity int, h uint64, r R) {
	c.tab.Add(h, int32(len(c.ents)))
	c.ents = append(c.ents, catEntry[R]{name: RelName{Name: name, Arity: arity}, rel: r})
}

// Len returns the number of relations.
func (c *Catalog[R]) Len() int { return len(c.ents) }

// Names returns the (name, arity) pairs in creation order.
func (c *Catalog[R]) Names() []RelName {
	out := make([]RelName, len(c.ents))
	for i := range c.ents {
		out[i] = c.ents[i].name
	}
	return out
}

// Rels returns the relations in creation order.
func (c *Catalog[R]) Rels() []R {
	out := make([]R, len(c.ents))
	for i := range c.ents {
		out[i] = c.ents[i].rel
	}
	return out
}

// mapCatalog returns a catalog with the same keys and order as c holding
// f of each relation. It reuses c's table: the copy is one slice and a
// table clone, with no per-relation allocation of its own.
func mapCatalog[R, S any](c *Catalog[R], f func(R) S) Catalog[S] {
	out := Catalog[S]{tab: c.tab.Clone(), ents: make([]catEntry[S], len(c.ents))}
	for i := range c.ents {
		e := &c.ents[i]
		out.ents[i] = catEntry[S]{name: e.name, rel: f(e.rel)}
	}
	return out
}
