// Package storage implements the Glue-Nail relational back end described in
// §10 of the paper: a main-memory relation manager tailored to deductive
// database workloads. Relations are duplicate-free sets of ground tuples
// in insertion-ordered chunked storage, found through one open-addressing
// table (internal/hashtab), with adaptive run-time index creation, early
// duplicate elimination (Insert reports whether a row was new — the
// uniondiff compiled recursive NAIL! queries are built on), and disk
// persistence for EDB relations between runs.
//
// There is one adaptive index (index.go): a SlotIndex of int32 slot
// postings per column mask, held per slot numbering and shared by every
// reader of it — the live relation, its snapshots, and the disk engine's
// memtables and runs. A live read is a snapshot read at the live CSN, and
// a deletion only stamps a slot dead; it never edits an index.
//
// Relations support any number of concurrent readers (Scan/Lookup/Contains,
// including adaptive index construction triggered by a Lookup) OR a single
// writer; readers and writers must not overlap. The executor guarantees
// this: segment pipelines only read, and all mutation happens at barriers
// and statement heads, which run sequentially.
//
// The package also provides a deliberately pessimized LayeredStore that
// simulates building the system on top of a protected relational DBMS
// (write-ahead logging, latching, catalog indirection per operation), the
// design the paper argues is a mistake for the hundreds of small short-lived
// temporaries a deductive program creates.
package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"gluenail/internal/hashtab"
	"gluenail/internal/term"
)

// Column-distinct tracking: each column keeps an exact multiset of value
// hashes while small, falling back to a fixed-size linear-counting sketch
// once the exact map outgrows distinctExactLimit. The estimates drive the
// physical planner's join-selectivity model, so they only need to be
// roughly right — the sketch ignores deletions (estimates may stay high
// until a Clear resets them), and 64-bit hash collisions conflate values
// at a negligible rate. A Relation folds its rows into the digest only
// when the planner asks (DistinctEst); most relations never pay for it.
const (
	// distinctExactLimit caps the exact per-column hash→multiplicity map.
	distinctExactLimit = 256
	// sketchBits is the linear-counting bitmap size (bits) used past the
	// exact limit: estimate = -m·ln(zeroFraction), good to a few percent
	// up to ~m distinct values.
	sketchBits = 8192
)

// colStats estimates the number of distinct values in one column.
type colStats struct {
	exact  map[uint64]uint32 // value hash -> multiplicity, while small
	sketch []uint64          // linear-counting bitmap once exact overflows
	ones   int               // set bits in sketch
}

// reset empties the digest, keeping the exact map for reuse.
func (c *colStats) reset() {
	clear(c.exact)
	c.sketch, c.ones = nil, 0
}

// fold counts one value hash.
func (c *colStats) fold(h uint64) {
	if c.sketch == nil {
		if c.exact == nil {
			c.exact = make(map[uint64]uint32)
		}
		if _, ok := c.exact[h]; ok || len(c.exact) < distinctExactLimit {
			c.exact[h]++
			return
		}
		// Overflow: seed the sketch with the exact values, then fall through.
		c.sketch = make([]uint64, sketchBits/64)
		for eh := range c.exact {
			c.set(eh)
		}
		c.exact = nil
	}
	c.set(h)
}

// mix64 is the splitmix64 finalizer: FNV's low bits are too regular on
// short or sequential inputs for linear counting (the bitmap fills more
// evenly than random, inflating the estimate), so the bit position is
// drawn from a fully avalanched mix of the hash.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (c *colStats) set(h uint64) {
	bit := mix64(h) % sketchBits
	w, m := bit/64, uint64(1)<<(bit%64)
	if c.sketch[w]&m == 0 {
		c.sketch[w] |= m
		c.ones++
	}
}

func (c *colStats) remove(h uint64) {
	if c.exact == nil {
		return // sketches cannot forget; Clear resets them
	}
	if n, ok := c.exact[h]; ok {
		if n <= 1 {
			delete(c.exact, h)
		} else {
			c.exact[h] = n - 1
		}
	}
}

// appendDigest serializes the column digest: mode byte 0 = exact map
// (sorted hash/multiplicity pairs, so the encoding is deterministic),
// mode 1 = raw sketch bitmap. The disk engine's manifest persists these so
// reopening a store restores planner statistics without re-decoding runs.
func (c *colStats) appendDigest(dst []byte) []byte {
	if c.sketch == nil {
		dst = append(dst, 0)
		dst = binary.AppendUvarint(dst, uint64(len(c.exact)))
		keys := make([]uint64, 0, len(c.exact))
		for h := range c.exact {
			keys = append(keys, h)
		}
		slices.Sort(keys)
		for _, h := range keys {
			dst = binary.AppendUvarint(dst, h)
			dst = binary.AppendUvarint(dst, uint64(c.exact[h]))
		}
		return dst
	}
	dst = append(dst, 1)
	for _, w := range c.sketch {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// readDigest restores a digest serialized by appendDigest, replacing the
// column's current state. An exact map never outgrows distinctExactLimit,
// so a larger count is damage and is refused before anything is sized
// from it.
func (c *colStats) readDigest(r *bufio.Reader) error {
	mode, err := r.ReadByte()
	if err != nil {
		return err
	}
	*c = colStats{}
	switch mode {
	case 0:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return err
		}
		if n > distinctExactLimit {
			return fmt.Errorf("storage: exact digest of %d values exceeds the limit of %d", n, distinctExactLimit)
		}
		c.exact = make(map[uint64]uint32, n)
		for i := uint64(0); i < n; i++ {
			h, err := binary.ReadUvarint(r)
			if err != nil {
				return err
			}
			m, err := binary.ReadUvarint(r)
			if err != nil {
				return err
			}
			c.exact[h] = uint32(m)
		}
		return nil
	case 1:
		c.sketch = make([]uint64, sketchBits/64)
		var buf [8]byte
		for i := range c.sketch {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return err
			}
			c.sketch[i] = binary.LittleEndian.Uint64(buf[:])
			c.ones += bits.OnesCount64(c.sketch[i])
		}
		return nil
	}
	return fmt.Errorf("storage: bad digest mode %d", mode)
}

// estimate returns the distinct-value estimate for the column.
func (c *colStats) estimate() int {
	if c.sketch == nil {
		return len(c.exact)
	}
	if c.ones >= sketchBits {
		return sketchBits // saturated; a gross underestimate, but bounded
	}
	zero := float64(sketchBits-c.ones) / float64(sketchBits)
	return int(-float64(sketchBits) * math.Log(zero))
}

// Stats accumulates back-end counters; a Store shares one Stats across its
// relations so benchmarks can attribute work. Counters are updated with
// atomic adds so concurrent readers can account their work; read a snapshot
// only after the work being measured has completed.
type Stats struct {
	RowsScanned   int64 // tuples visited by full scans
	RowsProbed    int64 // tuples returned through an index
	IndexBuilds   int64
	Inserts       int64
	Deletes       int64
	RelsCreated   int64
	RelsDropped   int64
	LogBytes      int64 // layered backend only
	LatchAcquires int64 // layered backend only
	CatalogProbes int64 // layered backend only
	RunsFlushed   int64 // disk backend: memtables written out as runs
	RunsCompacted int64 // disk backend: runs replaced by merged runs
	BlocksRead    int64 // disk backend: run blocks fetched from disk (cache misses)
	RowsSpilled   int64 // disk backend: rows written to run files
	CacheHits     int64 // disk backend: block reads served by the decoded-block cache
	BloomChecks   int64 // disk backend: run membership probes screened by a bloom filter
	BloomSkips    int64 // disk backend: probes a bloom answered "absent" (no run I/O)
	RunIndexLoads int64 // disk backend: lazy run hash-index loads after reopen
	BulkRows      int64 // disk backend: rows ingested via the WAL-bypassing bulk path
}

// TuplesInserted returns the cumulative insert count with an atomic load,
// so the execution governor can poll the tuple budget while other
// goroutines account their inserts.
func (s *Stats) TuplesInserted() int64 {
	return atomic.LoadInt64(&s.Inserts)
}

// Rel is the interface the executor uses to talk to a relation, satisfied by
// both the tailored main-memory implementation and the layered baseline.
//
// A relation owns its rows: Insert copies a new row into storage the
// relation manages, and tuples handed out by reads point into that storage.
// A tuple yielded by Scan or Lookup stays valid until the relation's next
// Clear, which may refill the same storage in place; a caller that keeps
// one past that must copy it. Tuples returned by All stay valid for good:
// All marks the rows lent, and the next Clear leaves them to the garbage
// collector. No tuple from a read may be mutated.
type Rel interface {
	// Name returns the HiLog predicate name of the relation.
	Name() term.Value
	// Arity returns the number of columns.
	Arity() int
	// Len returns the number of tuples. It must be cheap (a counter, or a
	// count taken once per snapshot): the prepared-plan cache selects plans by
	// each input's cardinality class, bits.Len(Len()), before every
	// statement.
	Len() int
	// Version returns a counter bumped by every successful mutation; the
	// unchanged(P) builtin compares versions across loop iterations.
	Version() uint64
	// Insert adds t, reporting whether it was not already present. The
	// relation keeps a copy of a new row, never t itself, so the caller may
	// reuse t at once; a duplicate is rejected before anything is copied.
	Insert(t term.Tuple) bool
	// Delete removes t, reporting whether it was present.
	Delete(t term.Tuple) bool
	// Contains reports membership.
	Contains(t term.Tuple) bool
	// Clear removes all tuples.
	Clear()
	// Scan visits every tuple until yield returns false. The relation must
	// not be mutated during the scan.
	Scan(yield func(term.Tuple) bool)
	// Lookup visits the tuples whose columns selected by mask equal the
	// corresponding columns of key, in insertion order. A zero mask
	// degenerates to Scan. Every engine answers a partial mask through the
	// one adaptive index (LookupSlots), which the lookup may build.
	// Lookups from multiple goroutines are safe with each other (but not
	// with a concurrent writer).
	Lookup(mask uint32, key term.Tuple, yield func(term.Tuple) bool)
	// DistinctEst estimates the number of distinct values in column col —
	// exact while the column holds few distinct values, a fixed-size
	// sketch estimate beyond that. The physical planner reads it when it
	// plans a statement. Unlike the other reads it is safe concurrently
	// with the writer: a snapshot session's planner estimates while the
	// live machine writes, so an engine guards its digest itself.
	DistinctEst(col int) int
	// Grow is a sizing hint: room for n more rows is reserved, so a caller
	// that knows its batch size stores it in exactly sized arrays. Without
	// it, row storage grows geometrically.
	Grow(n int)
	// ModifyByKey implements the +=[key] assignment: for each row, tuples
	// agreeing with it on the key columns (mask) are replaced by the row.
	ModifyByKey(mask uint32, rows []term.Tuple)
	// All returns a snapshot slice of the tuples in insertion order.
	All() []term.Tuple
}

// Ranger is Lookup over slots [lo, hi) of insertion order, which every
// engine a frame relation lives in implements: while a relation only
// grows, the slots between two Lens hold the rows inserted in between,
// a semi-naive loop's delta (DESIGN §5.28).
type Ranger interface {
	LookupRange(lo, hi int, mask uint32, key term.Tuple, yield func(term.Tuple) bool)
}

// Relation is the tailored main-memory implementation of Rel. Rows live
// in insertion-ordered slots of chunked storage (rowChunks), where a slot's
// row is found by arithmetic, so a stored row costs only its values; a
// hashtab.Table maps each live row's hash to its slot.
// Scans, lookups, and index builds all walk insertion order, so every
// enumeration is deterministic run to run — which keeps order-sensitive
// downstream work (floating-point aggregation, golden output) reproducible
// regardless of Go's randomized map iteration.
//
// Multi-version visibility: a deleted row is not removed from its slot
// immediately — the slot is stamped with the commit sequence number (CSN)
// of the deleting statement in the parallel dead slice and removed from
// the hash table. The live view (this type's own methods) reads at LiveCSN,
// where any nonzero stamp is gone; a SnapRel captured at snapshot CSN S
// still sees slots stamped dead at a CSN > S. Because snapshots capture
// slice headers and every structural rewrite of a captured numbering
// (compact, Clear) builds fresh backing arrays, a snapshot keeps reading
// its own frozen arrays while the writer moves on — copy-on-write through
// the garbage collector, with the dead stamps as the only shared mutable
// cells (written and read atomically). Between two rewrites the relation
// only appends, so slot i holds the same row for every reader of one
// slot numbering, and they all share one index holder over it (idx).
type Relation struct {
	name term.Value
	// rows holds the stored rows; slots stamped dead are tombstones.
	// Insert copies each new row into it, and a row handed out is a capped
	// sub-slice of one chunk, so growth never moves a stored row.
	rows rowChunks
	// keepRows marks a memtable whose owning engine journals its rows
	// (NewRelationCSN): the journal may hold them until the enclosing call
	// commits, so Clear never rewrites its chunks. lent records that All
	// handed the rows out since the last Clear; readers may set it
	// concurrently with each other, hence atomic.
	keepRows bool
	lent     atomic.Bool
	// dead stamps each slot with the CSN at which it was deleted (0 =
	// live), parallel to the slots. It stays nil — every slot live — until
	// the first deletion allocates it; from then on every insert appends a
	// zero stamp. The single writer stores stamps with atomic writes and
	// concurrent snapshot readers load them atomically.
	dead []uint64
	// csn, when non-nil, points at the owning store's commit sequence
	// number: deletions are stamped csn+1, the CSN the statement in
	// flight will commit as. A standalone relation (nil csn) stamps
	// deadForever, which live reads see as deleted; it must never be
	// captured (CaptureRel), since a snapshot would see the row.
	csn *atomic.Uint64
	// tab maps the whole-tuple hash of every live slot to the slot (a
	// relation holds < 2^31 tuples); it allocates on first insert or Grow.
	// Snapshots never read it, so the writer edits it in place.
	tab   hashtab.Table
	n     int // live tuples
	tombs int // dead-stamped slots
	// lastStamp is the most recent dead stamp and stamped the number of
	// slots carrying it. Stamps never decrease, so at capture CSN S the
	// slots stamped above S are exactly these (when lastStamp > S): the
	// deletions of a statement that has not committed — one that aborted,
	// since capture happens between statements. A snapshot's visible
	// count is n plus them, in O(1).
	lastStamp uint64
	stamped   int
	version   uint64
	// idx holds the adaptive indexes of the current slot numbering,
	// created by its first partial-mask lookup or capture and dropped by a
	// renumbering (compact, or a Clear of a captured numbering), so the
	// next numbering starts a fresh holder while older snapshots keep
	// theirs. captured records that a snapshot (CaptureRel) shares the
	// numbering: until then Insert extends the built indexes in place and
	// Clear reuses the arrays; from then on the holder and the arrays are
	// frozen for the snapshots' sake.
	idx      atomic.Pointer[Indexes]
	captured atomic.Bool

	policy IndexPolicy
	stats  *Stats
	// journal, when non-nil, observes successful mutations (WAL capture);
	// set through Store.SetJournal while no mutation is in flight.
	journal Journal
	// cols holds per-column distinct digests, made by the first estimate;
	// DistinctEst first folds the live slots from folded on. foldGen
	// counts the changes a snapshot's captured arrays may not show — a
	// renumbering (compact, Clear), or a deletion of a slot not yet folded
	// — so a snapshot folds from them only while foldGen is the one it
	// captured. statsMu guards all three
	// and each deletion's stamp: snapshots estimate beside the writer.
	cols    []colStats
	folded  int
	foldGen uint64
	statsMu sync.Mutex
}

// NewRelation creates an empty relation. stats may be nil.
func NewRelation(name term.Value, arity int, policy IndexPolicy, stats *Stats) *Relation {
	if stats == nil {
		stats = &Stats{}
	}
	return &Relation{name: name, rows: newRowChunks(arity), policy: policy, stats: stats}
}

// Name implements Rel.
func (r *Relation) Name() term.Value { return r.name }

// Arity implements Rel.
func (r *Relation) Arity() int { return r.rows.arity }

// Len implements Rel.
func (r *Relation) Len() int { return r.n }

// Version implements Rel.
func (r *Relation) Version() uint64 { return r.version }

// DistinctEst implements Rel.
func (r *Relation) DistinctEst(col int) int {
	return r.distinctEst(col, r.foldGen, &r.rows, r.dead)
}

// distinctEst folds the live slots of rows/dead past the fold cursor into
// the digest, if gen is still the relation's fold generation, then
// estimates column col. It reads only the view it is given — a snapshot's
// captured one, or the writer's own — never the live fields beside it.
func (r *Relation) distinctEst(col int, gen uint64, rows *rowChunks, dead []uint64) int {
	if col < 0 || col >= rows.arity {
		return 0
	}
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	if r.cols == nil {
		r.cols = make([]colStats, rows.arity)
	}
	if gen == r.foldGen {
		for i := r.folded; i < rows.slots; i++ {
			if dead == nil || atomic.LoadUint64(&dead[i]) == 0 {
				t := rows.Row(i)
				for c := range r.cols {
					r.cols[c].fold(t[c].Hash())
				}
			}
		}
		r.folded = max(r.folded, rows.slots)
	}
	return r.cols[col].estimate()
}

// deadForever marks a slot deleted for live reads; stamped when the
// relation has no CSN source. A snapshot at any CSN below LiveCSN would
// still see such a slot, so a relation with no CSN source must never be
// captured — standalone and Scratch-made relations never are.
const deadForever = ^uint64(0)

// deadStamp returns the CSN to stamp a deletion with: the CSN the
// statement in flight will commit as (one past the last committed CSN).
func (r *Relation) deadStamp() uint64 {
	if r.csn != nil {
		return r.csn.Load() + 1
	}
	return deadForever
}

// Insert implements Rel.
func (r *Relation) Insert(t term.Tuple) bool {
	_, ok := r.InsertStored(t)
	return ok
}

// InsertStored is Insert that also returns the relation's stored copy of a
// new row (nil for a duplicate): an engine composed over the relation
// journals that copy, never its caller's reusable tuple.
func (r *Relation) InsertStored(t term.Tuple) (term.Tuple, bool) {
	if _, dup := r.tab.FindOrAdd(t.Hash(), int32(r.rows.slots), r.equalTo(t)); dup {
		return nil, false
	}
	t = r.rows.add(t)
	if r.dead != nil {
		r.dead = append(r.dead, 0)
	}
	r.n++
	r.version++
	atomic.AddInt64(&r.stats.Inserts, 1)
	if h := r.idx.Load(); h != nil && !r.captured.Load() {
		h.extend(t, r.rows.slots-1)
	}
	if r.journal != nil {
		r.journal.JournalInsert(r.name, r.rows.arity, t)
	}
	return t, true
}

// maxChunkVals caps a chunk: storage doubles until a chunk would pass it,
// then grows a chunk of at most this many values at a time, so a large
// relation that outgrows its exact Grow never gains a near-empty chunk as
// large as itself.
const maxChunkVals = 8192

// rowChunks is a relation's row storage. Slot i's row is a capped
// sub-slice of one chunk, found by arithmetic: chunk 0 holds base rows,
// and chunk c ≥ 1 holds 2^(sh+c-1) rows — doubling from the power of two
// at or above base — up to 2^top rows, the most that fit in maxChunkVals
// values, and every later chunk 2^top. Chunks never move, so a row handed
// out stays valid. A zero-arity relation has no chunks: it only counts its
// slots and hands out term.Tuple{}.
type rowChunks struct {
	chunks  [][]term.Value
	slots   int // rows stored, dead-stamped ones included
	arity   int
	base    int // rows in chunk 0, set by the reserve that makes it
	sh, top uint8
}

func newRowChunks(arity int) rowChunks {
	return rowChunks{arity: arity, top: uint8(max(bits.Len(uint(maxChunkVals/max(arity, 1)))-1, 0))}
}

// locate returns the chunk holding slot i and the row's offset in it.
func (v *rowChunks) locate(i int) (c, o int) {
	if i < v.base {
		return 0, i
	}
	x := i - v.base + 1<<v.sh // chunk c ≥ 1 starts at x = 2^(sh+c-1) while doubling
	if x >= 1<<v.top {
		return int(v.top-v.sh) + x>>v.top, x & (1<<v.top - 1)
	}
	b := bits.Len(uint(x)) - 1
	return b - int(v.sh) + 1, x - 1<<b
}

// Row returns slot i's row. It implements Rows.
func (v *rowChunks) Row(i int) term.Tuple {
	if v.arity == 0 {
		return term.Tuple{}
	}
	c, o := v.locate(i)
	o *= v.arity
	return v.chunks[c][o : o+v.arity : o+v.arity]
}

// add copies t into the next slot and returns the stored row.
func (v *rowChunks) add(t term.Tuple) term.Tuple {
	v.reserve(1)
	v.slots++
	u := v.Row(v.slots - 1)
	copy(u, t)
	return u
}

// reserve makes room for n more rows. Storage with no chunks (none yet, or
// dropped for the garbage collector) starts its schedule at base n, so a
// first chunk is exactly n rows.
func (v *rowChunks) reserve(n int) {
	if v.arity == 0 || n <= 0 {
		return
	}
	if len(v.chunks) == 0 {
		v.base, v.sh = n, uint8(min(bits.Len(uint(n-1)), int(v.top)))
	}
	for c, _ := v.locate(v.slots + n - 1); len(v.chunks) <= c; {
		rows := v.base
		if k := len(v.chunks); k > 0 {
			rows = 1 << min(int(v.sh)+k-1, int(v.top))
		}
		v.chunks = append(v.chunks, make([]term.Value, rows*v.arity))
	}
}

// Grow implements Rel: after it, n more rows of the relation's arity fit
// its row storage, stamps and hash table without another allocation. A
// relation with no chunks gets a first one of exactly n rows.
func (r *Relation) Grow(n int) {
	if n <= 0 {
		return
	}
	r.rows.reserve(n)
	if r.dead != nil {
		r.dead = slices.Grow(r.dead, n)
	}
	r.tab.Grow(n)
}

// Delete implements Rel. The tuple's slot is stamped dead at the current
// CSN so the insertion order of the survivors — and the tuple's visibility
// to older snapshots — is preserved; the slots compact (into fresh
// storage, leaving snapshots undisturbed) when tombstones outnumber live
// tuples.
func (r *Relation) Delete(t term.Tuple) bool {
	_, ok := r.DeleteStored(t)
	return ok
}

// DeleteStored is Delete that also returns the stored tuple it removed,
// for an engine composed over the relation to journal.
func (r *Relation) DeleteStored(t term.Tuple) (term.Tuple, bool) {
	i := r.tab.Delete(t.Hash(), r.equalTo(t))
	if i < 0 {
		return nil, false
	}
	u := r.rows.Row(int(i))
	// Stamp, don't null: snapshots captured before this statement's
	// commit CSN still read the slot. Atomic because they may be loading
	// the stamp right now. A snapshot captured before the first deletion
	// holds no stamps and never reads these: every stamp is above its CSN.
	if r.dead == nil {
		r.dead = make([]uint64, r.rows.slots)
	}
	stamp := r.deadStamp()
	r.statsMu.Lock()
	atomic.StoreUint64(&r.dead[i], stamp)
	if int(i) < r.folded {
		for c := range r.cols {
			r.cols[c].remove(u[c].Hash())
		}
	} else {
		r.foldGen++
	}
	r.statsMu.Unlock()
	if stamp != r.lastStamp {
		r.lastStamp, r.stamped = stamp, 0
	}
	r.stamped++
	r.tombs++
	r.n--
	r.version++
	atomic.AddInt64(&r.stats.Deletes, 1)
	if r.tombs > r.n && r.tombs > 32 {
		r.compact()
	}
	if r.journal != nil {
		r.journal.JournalDelete(r.name, r.rows.arity, u)
	}
	return u, true
}

// equalTo returns the table predicate matching the slot that holds t.
func (r *Relation) equalTo(t term.Tuple) func(int32) bool {
	return func(i int32) bool { return r.rows.Row(int(i)).Equal(t) }
}

// compact rewrites the slots without tombstones and refills the hash
// table in place; survivor order is unchanged. Runs only from a writer.
// Storage and stamps are rebuilt from scratch — snapshots holding the old
// ones keep reading them until the garbage collector reclaims the memory
// once the last snapshot closes. The survivors' values move to one exact
// chunk, so the dead rows' storage goes with the old chunks; rows handed
// out before stay valid in those, and no slot is dead, so the stamps go
// too. Survivors get new slot numbers, so the index holder starts over
// with the new numbering; the fold cursor moves to the number of
// survivors it had passed, which keep their order.
func (r *Relation) compact() {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	folded := 0
	old := r.rows
	r.rows.chunks, r.rows.slots = nil, 0
	r.rows.reserve(r.n)
	r.tab.Clear()
	for i := range old.slots {
		if r.dead[i] != 0 {
			continue
		}
		if i < r.folded {
			folded++
		}
		t := old.Row(i)
		r.tab.Add(t.Hash(), int32(r.rows.slots))
		r.rows.add(t)
	}
	r.dead = nil
	r.tombs = 0
	r.stamped = 0
	r.idx.Store(nil)
	r.captured.Store(false)
	r.folded = folded
	r.foldGen++
}

// Contains implements Rel.
func (r *Relation) Contains(t term.Tuple) bool {
	return r.tab.Find(t.Hash(), r.equalTo(t)) >= 0
}

// Clear implements Rel, reusing the relation's storage where that is safe,
// so a repeat loop's scratch and delta relations refill the same arrays
// every iteration.
//
// While no snapshot captured the current slot numbering (captured is
// false), nothing outside the relation holds its chunks, stamps or index
// holder, so the stamps are truncated in place and the holder is reset in
// place. Otherwise all are dropped, not zeroed: the snapshots keep their
// headers and holder and stay whole, and the next numbering starts on
// fresh ones. Chunks the last fill used less than a quarter of are
// dropped too (with the holder), so a relation that shrank for good does
// not keep clearing its peak-sized hash table. (Snapshots never read the
// table; it follows the chunks only to shed the peak size.)
//
// The row chunks are rewritten by the refill, so they are kept only when
// in addition no one else can hold a stored tuple: no journal (the WAL
// recorder keeps journaled tuples until commit), not a journaled memtable
// (keepRows), and no All since the last Clear. Otherwise the chunks go to
// the GC with the tuples that point into them.
func (r *Relation) Clear() {
	if r.n == 0 {
		return
	}
	held := 0
	for _, c := range r.rows.chunks {
		held += len(c)
	}
	if !r.captured.Load() && 4*r.rows.slots*r.rows.arity >= held {
		r.dead = r.dead[:0]
		r.tab.Clear()
		if r.journal != nil || r.keepRows || r.lent.Load() {
			r.rows.chunks = nil
		}
		if h := r.idx.Load(); h != nil {
			h.reset()
		}
	} else {
		r.dead = nil
		r.tab = hashtab.Table{}
		r.rows.chunks = nil
		r.idx.Store(nil)
		r.captured.Store(false)
	}
	r.rows.slots = 0
	r.lent.Store(false)
	r.n = 0
	r.tombs = 0
	r.stamped = 0
	r.version++
	r.statsMu.Lock()
	for i := range r.cols {
		r.cols[i].reset()
	}
	r.folded = 0
	r.foldGen++
	r.statsMu.Unlock()
	if r.journal != nil {
		r.journal.JournalClear(r.name, r.rows.arity)
	}
}

// Scan implements Rel; tuples are visited in insertion order.
func (r *Relation) Scan(yield func(term.Tuple) bool) {
	scanSlots(&r.rows, 0, r.rows.slots, r.dead, LiveCSN, r.stats, yield)
}

// Lookup implements Rel over every slot, LookupRange Ranger.
func (r *Relation) Lookup(mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	r.lookup(0, r.rows.slots, true, mask, key, yield)
}

func (r *Relation) LookupRange(lo, hi int, mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	r.lookup(lo, hi, false, mask, key, yield)
}

// lookup reads slots [lo, hi), every one if whole: a zero mask scans them,
// a whole-tuple one probes the hash table, and a partial one is the shared
// slot lookup at the live CSN over the current numbering's index holder,
// which answers from an index, builds one, or scans toward one.
func (r *Relation) lookup(lo, hi int, whole bool, mask uint32, key term.Tuple, yield func(term.Tuple) bool) {
	switch {
	case mask == 0 || r.n == 0:
		scanSlots(&r.rows, lo, hi, r.dead, LiveCSN, r.stats, yield)
	case mask == fullColsMask(r.rows.arity):
		atomic.AddInt64(&r.stats.RowsProbed, 1)
		if i := int(r.tab.Find(key.Hash(), r.equalTo(key))); i >= lo && i < hi {
			yield(r.rows.Row(i))
		}
	default:
		var dead Stamps
		if r.tombs > 0 {
			dead = (*deadStamps)(&r.dead)
		}
		LookupSlots(r.indexes(), &r.rows, r.rows.slots, lo, hi, whole, dead, LiveCSN, mask, key, r.stats, yield)
	}
}

// indexes returns the index holder of the current slot numbering, creating
// it on first use. Concurrent readers may race to create it; one wins.
func (r *Relation) indexes() *Indexes {
	if h := r.idx.Load(); h != nil {
		return h
	}
	h := NewIndexes(r.policy)
	if r.idx.CompareAndSwap(nil, h) {
		return h
	}
	return r.idx.Load()
}

// HasIndex reports whether an index exists for the column mask; exported for
// tests and the adaptive-indexing experiment.
func (r *Relation) HasIndex(mask uint32) bool {
	h := r.idx.Load()
	return h != nil && h.forMask(mask).ix.Load() != nil
}

// ModifyByKey implements Rel.
func (r *Relation) ModifyByKey(mask uint32, rows []term.Tuple) {
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

// All implements Rel; the snapshot is in insertion order. It lends the
// stored tuples, so the next Clear leaves their chunks alone.
func (r *Relation) All() []term.Tuple {
	if r.n > 0 {
		r.lent.Store(true)
	}
	return allSlots(&r.rows, r.dead, LiveCSN, r.n)
}

// Sorted returns the tuples of rel in total order, for deterministic output.
func Sorted(rel Rel) []term.Tuple {
	out := rel.All()
	slices.SortFunc(out, term.Tuple.Compare)
	return out
}
