// Package hashtab is the one hash table behind every row set and name set
// of the system (§10's tailored relation manager): relations, disk runs,
// the bulk loader, store catalogs and the executor's scratch. A Table maps
// 64-bit hashes to int32 refs by open addressing with linear probing. The
// caller owns the entries and confirms equality with a predicate on refs,
// invoked only on entries whose 32-bit tag matches, so no key is ever
// built. Deletion shifts the rest of a probe run back, leaving no
// tombstones. The zero value allocates nothing until its first add.
//
// A slot is one word, the tag above ref+1. Past pageSize slots a table is
// a directory of pages indexed by the tag's top bits (extendible hashing,
// Fagin et al., TODS 1979) that split, so each new slot is allocated once.
package hashtab

import (
	"math/bits"
	"slices"
)

// Table is an open-addressing hash table of int32 refs keyed by 64-bit
// hashes. Finds may run concurrently with each other, not with a writer.
type Table struct {
	one   page    // the whole table until it outgrows pageSize; unused after
	dir   []*page // then: entry i is the page of the tags whose top depth bits are i
	depth uint8   // log2(len(dir))
}

// A page is one open-addressing array. In a directory, a page of local
// depth d holds the tags that share its top d bits, and the 2^(depth-d)
// directory entries that point at it are contiguous.
type page struct {
	slots []uint64 // tag<<32 | ref+1
	used  int32
	depth uint8
}

// A block is a directory page and its slots in one 16 KiB allocation, an
// exact size class (TestBlockSize), so a split allocates one object.
type block struct {
	page
	arr [blockSlots]uint64
}

const (
	minSlots   = 8            // the smallest array: a one-row relation pays 64 bytes
	pageSize   = 2048         // the most slots a table doubles to before it splits
	blockSlots = pageSize - 5 // 16 KiB less the page and the allocator's type header
	maxDepth   = 16           // a full page this deep doubles instead of splitting
)

// tagOf takes the top 32 bits of the hash times the golden ratio
// (Fibonacci hashing), so FNV's regular low bits never cluster a probe run.
func tagOf(h uint64) uint32 {
	return uint32((h * 0x9e3779b97f4a7c15) >> 32)
}

// home returns the slot a tag starts probing at: the tag times the 32-bit
// golden ratio, scaled to p, spreads tags that share their top bits.
func (p *page) home(tag uint32) int {
	return int(uint64(tag*0x9e3779b9) * uint64(len(p.slots)) >> 32)
}

// next returns the slot after i, wrapping past the end.
func (p *page) next(i int) int {
	if i++; i == len(p.slots) {
		return 0
	}
	return i
}

// put stores the word w in the first empty slot of its probe run.
func (p *page) put(w uint64) {
	i := p.home(uint32(w >> 32))
	for p.slots[i] != 0 {
		i = p.next(i)
	}
	p.slots[i] = w
	p.used++
}

// find returns the slot and ref of the first entry under tag that eq
// confirms, or the empty slot that ends the probe run and -1.
func (p *page) find(tag uint32, eq func(int32) bool) (int, int32) {
	if p.used == 0 {
		return 0, -1
	}
	i := p.home(tag)
	for ; p.slots[i] != 0; i = p.next(i) {
		if w := p.slots[i]; uint32(w>>32) == tag && eq(int32(w)-1) {
			return i, int32(w) - 1
		}
	}
	return i, -1
}

// remove empties slot i. The entries after it in its probe run move back
// to close the gap, each only as far as its own home slot allows, so
// every remaining entry stays reachable from its home.
func (p *page) remove(i int) {
	p.slots[i] = 0
	p.used--
	for j := p.next(i); p.slots[j] != 0; j = p.next(j) {
		// The entry at j fills the gap unless its home h is in (i, j].
		if h := p.home(uint32(p.slots[j] >> 32)); i < j && (h <= i || h > j) || i > j && h <= i && h > j {
			p.slots[i], p.slots[j] = p.slots[j], 0
			i = j
		}
	}
}

// resize moves p's entries to a new array of size slots.
func (p *page) resize(size int) {
	old := p.slots
	p.slots, p.used = make([]uint64, size), 0
	for _, w := range old {
		if w != 0 {
			p.put(w)
		}
	}
}

// pageOf returns the page a tag belongs in.
func (t *Table) pageOf(tag uint32) *page {
	if t.dir == nil {
		return &t.one
	}
	return t.dir[tag>>(32-t.depth)]
}

// eachPage calls fn once for every page of the table.
func (t *Table) eachPage(fn func(*page)) {
	if t.dir == nil {
		fn(&t.one)
	}
	for i := 0; i < len(t.dir); i += 1 << (t.depth - t.dir[i].depth) {
		fn(t.dir[i])
	}
}

// Grow makes room for n more entries without another allocation. Within
// pageSize slots the load stays at or below three quarters. An empty
// table that needs more carves its blocks from one array, at most half
// full, so no page fills before its share of the n adds. One with entries
// grows to pageSize slots, and one with pages, by splits.
func (t *Table) Grow(n int) {
	if t.dir != nil {
		return
	}
	want := int(t.one.used) + n
	switch {
	case t.one.used == 0 && 4*want > 3*pageSize:
		// The fewest blocks, a power of two, that want fills at most half.
		depth := uint8(bits.Len(uint((2*want - 1) / blockSlots)))
		blocks := make([]block, 1<<depth)
		*t = Table{dir: make([]*page, len(blocks)), depth: depth}
		for i := range blocks {
			blocks[i].slots, blocks[i].depth = blocks[i].arr[:], t.depth
			t.dir[i] = &blocks[i].page
		}
	case 4*want > 3*len(t.one.slots) && len(t.one.slots) < pageSize:
		// The smallest power of two that want fills at most three quarters.
		t.one.resize(min(pageSize, max(minSlots, 1<<bits.Len(uint((4*want-1)/3)))))
	}
}

// room returns the page for tag with room for one more entry at a load
// of at most three quarters, growing the table first if it has none.
func (t *Table) room(tag uint32) *page {
	p := t.pageOf(tag)
	if 4*(int(p.used)+1) > 3*len(p.slots) {
		t.grow(p, tag)
		p = t.pageOf(tag)
	}
	return p
}

// grow makes room in the full page p, which holds tag: below pageSize
// slots the table doubles; past it p splits on its next tag bit, or
// doubles in place if that bit would move under an eighth of its entries
// or all but an eighth (equal hashes share every tag bit) or p is maxDepth
// deep. Either way, one call leaves room.
func (t *Table) grow(p *page, tag uint32) {
	if t.dir == nil && len(p.slots) < pageSize {
		p.resize(max(minSlots, 2*len(p.slots)))
		return
	}
	bit, moved := uint64(1)<<(63-p.depth), 0
	for _, w := range p.slots {
		moved += int(w & bit >> (63 - p.depth))
	}
	if p.depth >= maxDepth || 8*moved < int(p.used) || 8*moved > 7*int(p.used) {
		p.resize(2 * len(p.slots))
		return
	}
	if t.dir == nil { // the first array has room for four doublings
		p = &page{slots: t.one.slots, used: t.one.used}
		t.one, t.dir = page{}, append(make([]*page, 0, 16), p)
	}
	if p.depth == t.depth {
		t.dir = slices.Grow(t.dir, len(t.dir))[:2*len(t.dir)]
		for i := len(t.dir) - 1; i > 0; i-- {
			t.dir[i] = t.dir[i/2]
		}
		t.depth++
	}
	p.depth++
	b := new(block)
	b.slots, b.depth = b.arr[:], p.depth
	if len(p.slots) > pageSize { // p doubled in place; its entries may not fit b.arr
		b.slots = make([]uint64, len(p.slots))
	}
	// Walk p once from an empty slot, moving the entries with the bit set
	// to b. No probe run crosses that slot, so remove only shifts back
	// entries the walk has yet to reach.
	start := slices.Index(p.slots, 0)
	for i := p.next(start); i != start; i = p.next(i) {
		for p.slots[i]&bit != 0 {
			b.put(p.slots[i])
			p.remove(i)
		}
	}
	// The upper half of p's run of directory entries now points at b.
	span := 1 << (t.depth - p.depth)
	first := int(tag>>(32-t.depth))&^(2*span-1) + span
	for i := first; i < first+span; i++ {
		t.dir[i] = &b.page
	}
}

// Add records ref under h without looking for an equal entry: the caller
// knows there is none, or keeps equal entries apart on purpose (a disk run
// may hold a dead and a live copy of one tuple).
func (t *Table) Add(h uint64, ref int32) {
	tag := tagOf(h)
	t.room(tag).put(uint64(tag)<<32 | uint64(uint32(ref+1)))
}

// FindOrAdd looks h up; eq(ref) confirms that a same-tag entry is the one
// sought. On a hit it returns the entry's ref and true; on a miss it adds
// newRef and returns it with false.
func (t *Table) FindOrAdd(h uint64, newRef int32, eq func(int32) bool) (int32, bool) {
	tag := tagOf(h)
	p := t.pageOf(tag)
	i, ref := p.find(tag, eq)
	switch {
	case ref >= 0:
		return ref, true
	case p.used == 0 || 4*(int(p.used)+1) > 3*len(p.slots):
		t.Add(h, newRef)
	default:
		p.slots[i] = uint64(tag)<<32 | uint64(uint32(newRef+1))
		p.used++
	}
	return newRef, false
}

// Find returns the ref of the first entry under h that eq confirms, or -1.
func (t *Table) Find(h uint64, eq func(int32) bool) int32 {
	tag := tagOf(h)
	_, ref := t.pageOf(tag).find(tag, eq)
	return ref
}

// Delete removes the first entry under h that eq confirms and returns its
// ref, or -1 if there is none.
func (t *Table) Delete(h uint64, eq func(int32) bool) int32 {
	tag := tagOf(h)
	p := t.pageOf(tag)
	i, ref := p.find(tag, eq)
	if ref >= 0 {
		p.remove(i)
	}
	return ref
}

// Clear removes every entry, keeping the pages for the next fill.
func (t *Table) Clear() {
	t.eachPage(func(p *page) {
		if p.used > 0 {
			clear(p.slots)
			p.used = 0
		}
	})
}

// Clone returns an independent copy of the table, built entry by entry.
func (t *Table) Clone() Table {
	var c Table
	c.Grow(int(t.one.used)) // a table with pages: c splits as it fills
	t.eachPage(func(p *page) {
		for _, w := range p.slots {
			if w != 0 {
				c.room(uint32(w >> 32)).put(w)
			}
		}
	})
	return c
}
