// Run files: the disk engine's unit of storage. A run is an immutable,
// insertion-ordered sequence of tuples written out in CRC-framed blocks of
// a fixed row count, so a slot number maps to its block arithmetically.
// Blocks are stored raw or packed (see compress.go); what stays in memory
// per run after open is only the small stuff — block offsets and a bloom
// filter over the rows' whole-tuple hashes. The hash index (one cached
// hash per row, and the same hashtab.Table the main-memory engine uses,
// mapping each hash to its slot) is loaded lazily from the run's hash
// section the first time a bloom filter lets a probe through.
//
// The format (RUN2) is footer-indexed: block metadata, the row hashes, and
// the bloom filter are persisted at the tail and sealed by a fixed
// trailer, so reopening a store reads a few KB per run instead of
// decoding every block. Files of the older, footerless RUN1 format are
// refused as corrupt.
//
// Runs are ordered by flush sequence, not by value: global enumeration
// order (runs in flush order, then the memtable) reproduces the main-memory
// engine's insertion order exactly, which is what keeps results
// byte-identical across engines. See DESIGN.md for the
// runs-vs-B-tree decision.
package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gluenail/internal/hashtab"
	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

const (
	runMagic2 = "GLUENAIL-RUN2\n"
	// runTrailerMagic seals a run footer; the fixed-size trailer is what
	// openRun finds by seeking to the end.
	runTrailerMagic = "GNRUN2F\n"
	runTrailerLen   = 8 + 4 + 4 + len(runTrailerMagic)
	// rowsPerBlock is fixed so slot -> block is a shift, not a search.
	rowsPerBlock = 256
)

// runName returns the file name of run seq.
func runName(seq uint64) string { return fmt.Sprintf("run-%08d.grn", seq) }

type blockMeta struct {
	off   int64 // frame start (length prefix) within the file
	size  int32 // frame size in bytes including the 8-byte header
	nrows int32
}

// tombPage holds the dead stamps (deleting CSN, 0 = live) of one block's
// slots — the representation the main-memory Relation uses for its dead
// slice, paged so a run without deletions carries none.
type tombPage [rowsPerBlock]atomic.Uint64

// run is one immutable on-disk segment plus its resident metadata. All
// fields except the lazy index, the tombstone state, and refs are frozen
// after construction. Tombstones live in per-block stamp pages allocated
// by the first deletion that touches the block; the single writer (under
// the relation's relMu) stores stamps atomically, and concurrent snapshot
// sessions and the compactor load them lock-free. refs counts the owners
// (store, snapshots) holding the file open.
type run struct {
	seq    uint64
	path   string
	f      fsio.File
	arity  int
	nrows  int32
	blocks []blockMeta
	dict   *atomDict // owning store's intern dictionary (packed blocks)
	// bloom screens membership probes; built at create, persisted in the
	// footer, reloaded with it.
	bloom *bloomFilter
	// Hash index: hashes caches each row's whole-tuple hash; tab maps
	// every row's hash to its slot, dead copies included (a probe skips
	// them), like the main-memory Relation's table. Resident from creation
	// for freshly written runs; loaded on demand from hashOff for reopened
	// runs (idxReady gates access, its Store/Load ordering publishes them).
	hashOff  int64
	idxMu    sync.Mutex
	idxReady atomic.Bool
	hashes   []uint64
	tab      hashtab.Table
	// synced records that the file's contents are durable (fsynced);
	// FlushBase syncs any stragglers before the manifest names them.
	synced atomic.Bool
	// tombs has one page pointer per block; ntomb counts stamped slots;
	// tombGen counts stamps ever set, so an optimistic reader (the
	// compactor's install) can tell whether one landed since it looked.
	tombs   []atomic.Pointer[tombPage]
	ntomb   atomic.Int32
	tombGen atomic.Uint64
	refs    atomic.Int32
}

// newRun returns a run shell over f with its tombstone directory sized for
// nrows and one reference held.
func newRun(s *Store, f fsio.File, path string, seq uint64, arity int, nrows int32, blocks []blockMeta) *run {
	r := &run{seq: seq, path: path, f: f, arity: arity, nrows: nrows, blocks: blocks, dict: s.dict,
		tombs: make([]atomic.Pointer[tombPage], (int(nrows)+rowsPerBlock-1)/rowsPerBlock)}
	r.refs.Store(1)
	return r
}

func (r *run) retain() { r.refs.Add(1) }

// release drops one reference; the file handle closes with the last one.
// The file itself may already be unlinked (POSIX keeps the data readable
// through the open handle), so close order and unlink order are
// independent.
func (r *run) release() {
	if r.refs.Add(-1) == 0 {
		// Read-only handle over durable (or already-retired) bytes: a
		// close failure can lose nothing, so it is deliberately dropped.
		_ = r.f.Close()
	}
}

// tombAt returns the CSN slot was deleted at (0 = live), safe to call
// concurrently with the writer.
func (r *run) tombAt(slot int32) uint64 {
	pg := r.tombs[slot/rowsPerBlock].Load()
	if pg == nil {
		return 0
	}
	return pg[slot%rowsPerBlock].Load()
}

// setTomb stamps slot deleted at csn. Writer-only (relMu, or a run not yet
// published).
func (r *run) setTomb(slot int32, csn uint64) {
	p := &r.tombs[slot/rowsPerBlock]
	pg := p.Load()
	if pg == nil {
		pg = new(tombPage)
		p.Store(pg)
	}
	if pg[slot%rowsPerBlock].Swap(csn) == 0 {
		r.ntomb.Add(1)
	}
	r.tombGen.Add(1)
}

// eachTomb calls fn for every stamped slot, walking touched pages only.
func (r *run) eachTomb(fn func(slot int32, csn uint64)) {
	if r.ntomb.Load() == 0 {
		return
	}
	for bi := range r.tombs {
		pg := r.tombs[bi].Load()
		if pg == nil {
			continue
		}
		for i := range pg {
			if d := pg[i].Load(); d != 0 {
				fn(int32(bi*rowsPerBlock+i), d)
			}
		}
	}
}

// ntombs returns the current tombstone count.
func (r *run) ntombs() int { return int(r.ntomb.Load()) }

// liveNow returns the rows not hidden by any tombstone.
func (r *run) liveNow() int { return int(r.nrows) - r.ntombs() }

// liveAt counts rows visible at snapshot CSN csn (tomb 0 or > csn).
func (r *run) liveAt(csn uint64) int {
	n := int(r.nrows)
	r.eachTomb(func(_ int32, d uint64) {
		if d <= csn {
			n--
		}
	})
	return n
}

// ensureIndex makes the hash index resident: freshly created runs carry
// it from birth; reopened runs load the hash section and build the
// table here, on the first probe a bloom filter lets through.
func (r *run) ensureIndex(st *storage.Stats) error {
	if r.idxReady.Load() {
		return nil
	}
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	if r.idxReady.Load() {
		return nil
	}
	buf := make([]byte, int(r.nrows)*8+4)
	if _, err := r.f.ReadAt(buf, r.hashOff); err != nil {
		return storage.IOFault("run-read", r.path, err)
	}
	if crc32.ChecksumIEEE(buf[:len(buf)-4]) != binary.LittleEndian.Uint32(buf[len(buf)-4:]) {
		return &storage.CorruptError{Artifact: "run-hash-section", Path: r.path, Run: r.seq,
			Offset: r.hashOff, Detail: "hash section checksum mismatch"}
	}
	hashes := make([]uint64, r.nrows)
	for i := range hashes {
		hashes[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	r.hashes = hashes
	r.buildIndex()
	atomic.AddInt64(&st.RunIndexLoads, 1)
	r.idxReady.Store(true)
	return nil
}

// encodeRun renders the full RUN2 file image for rows: magic, arity,
// CRC-framed blocks (raw or packed), the hash section, and the sealed
// footer. Returns the image plus the block metadata and hash-section
// offset that mirror it.
func encodeRun(d *atomDict, arity int, rows []term.Tuple, hashes []uint64, compress bool) ([]byte, []blockMeta, int64) {
	var buf bytes.Buffer
	buf.WriteString(runMagic2)
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(arity))])
	var blocks []blockMeta
	for start := 0; start < len(rows); start += rowsPerBlock {
		end := start + rowsPerBlock
		if end > len(rows) {
			end = len(rows)
		}
		payload := encodeBlockPayload(d, rows[start:end], compress)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		blocks = append(blocks, blockMeta{off: int64(buf.Len()), size: int32(len(payload)) + 8, nrows: int32(end - start)})
		buf.Write(hdr[:])
		buf.Write(payload)
	}
	hashOff := int64(buf.Len())
	var hsec []byte
	for _, h := range hashes {
		hsec = binary.LittleEndian.AppendUint64(hsec, h)
	}
	hsec = binary.LittleEndian.AppendUint32(hsec, crc32.ChecksumIEEE(hsec))
	buf.Write(hsec)

	footOff := int64(buf.Len())
	var foot []byte
	foot = binary.AppendUvarint(foot, uint64(len(blocks)))
	for _, bm := range blocks {
		foot = binary.AppendUvarint(foot, uint64(bm.size-8))
		foot = binary.AppendUvarint(foot, uint64(bm.nrows))
	}
	foot = binary.AppendUvarint(foot, uint64(len(rows)))
	foot = binary.AppendUvarint(foot, uint64(hashOff))
	foot = appendBloom(foot, bloomFrom(hashes))
	buf.Write(foot)

	var trailer [runTrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(footOff))
	binary.LittleEndian.PutUint32(trailer[8:12], uint32(len(foot)))
	binary.LittleEndian.PutUint32(trailer[12:16], crc32.ChecksumIEEE(foot))
	copy(trailer[16:], runTrailerMagic)
	buf.Write(trailer[:])
	return buf.Bytes(), blocks, hashOff
}

// createRun writes rows (live tuples, insertion order; hashes parallel) as
// run seq for store s — temp file first, renamed into place so a crash
// never leaves a partial run under a run name — and returns it opened with
// one reference. sync fsyncs the file before the rename (checkpoint and
// bulk-load runs must be durable before the manifest names them; auto-
// flush runs may skip it, their rows are still in the WAL). The intern
// dictionary is synced first when the run is: a durable run must never
// reference atoms the dictionary could lose.
func createRun(s *Store, seq uint64, arity int, rows []term.Tuple, hashes []uint64, sync bool) (*run, error) {
	data, blocks, hashOff := encodeRun(s.dict, arity, rows, hashes, s.compress())
	if sync {
		if err := s.dict.sync(); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(s.dir, runName(seq))
	if at, err := fsio.WriteAtomic(s.fsys, path, sync, fsio.Bytes(data)); err != nil {
		return nil, storage.IOFault("run-write", at, err)
	}
	rf, err := s.fsys.Open(path)
	if err != nil {
		return nil, storage.IOFault("run-write", path, err)
	}
	r := newRun(s, rf, path, seq, arity, int32(len(rows)), blocks)
	r.hashOff, r.hashes = hashOff, hashes
	if !s.opts.NoBloom {
		r.bloom = bloomFrom(hashes)
	}
	r.buildIndex()
	r.idxReady.Store(true)
	r.synced.Store(sync)
	return r, nil
}

// openRun reopens a run file after restart. Only the header, trailer and
// footer are read — block offsets, row count, bloom filter — and the chain
// index waits until a probe needs it; nothing decodes tuple bytes.
// Corruption is an error: runs reachable from a manifest were fsynced
// before the manifest named them, and unreachable ones are swept before
// opening.
func openRun(s *Store, path string, seq uint64) (*run, error) {
	f, err := s.fsys.Open(path)
	if err != nil {
		return nil, storage.IOFault("run-open", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, storage.IOFault("run-open", path, err)
	}
	rt, err := readRunTail(f, fi.Size())
	if err != nil {
		_ = f.Close()
		var ce *storage.CorruptError
		if errors.As(err, &ce) {
			ce.Path, ce.Run = path, seq
			return nil, ce
		}
		return nil, storage.IOFault("run-open", path, err)
	}
	r := newRun(s, f, path, seq, rt.arity, rt.nrows, rt.blocks)
	r.hashOff = rt.hashOff
	if !s.opts.NoBloom {
		r.bloom = rt.bloom
	}
	r.synced.Store(true) // manifest-reachable, so it was fsynced
	return r, nil
}

// parseRunHeader decodes a run file's magic and arity from its first
// bytes, returning the arity and the offset of the first block frame.
// size is the whole file's: every row spends at least a byte per column,
// so a larger arity is damage, not data.
func parseRunHeader(head []byte, size int64) (int, int64, error) {
	if len(head) < len(runMagic2) || string(head[:len(runMagic2)]) != runMagic2 {
		return 0, 0, &storage.CorruptError{Artifact: "run-header", Detail: "bad run magic"}
	}
	arity, n := binary.Uvarint(head[len(runMagic2):])
	if n <= 0 || arity > uint64(size) {
		return 0, 0, &storage.CorruptError{Artifact: "run-header", Offset: int64(len(runMagic2)),
			Detail: "truncated or impossible arity"}
	}
	return int(arity), int64(len(runMagic2) + n), nil
}

// runTail is a run file's parsed header and footer: everything opening a
// run needs, none of its tuple bytes.
type runTail struct {
	arity     int
	dataStart int64 // offset of the first block frame
	footOff   int64
	runFooter
}

// readRunTail reads and validates a run file's header, trailer and footer
// through ra, a file of size bytes. Damage is a *storage.CorruptError
// without Path or Run (the caller knows them); a failed read is returned
// as is.
func readRunTail(ra io.ReaderAt, size int64) (runTail, error) {
	var rt runTail
	corrupt := func(artifact string, off int64, detail string) error {
		return &storage.CorruptError{Artifact: artifact, Offset: off, Detail: detail}
	}
	var head [len(runMagic2) + binary.MaxVarintLen64]byte
	n, err := ra.ReadAt(head[:], 0)
	if n < len(head) && err != io.EOF {
		return rt, err
	}
	if rt.arity, rt.dataStart, err = parseRunHeader(head[:n], size); err != nil {
		return rt, err
	}
	if size < rt.dataStart+int64(runTrailerLen) {
		return rt, corrupt("run-trailer", size, "truncated run trailer")
	}
	trailerOff := size - int64(runTrailerLen)
	var trailer [runTrailerLen]byte
	if _, err := ra.ReadAt(trailer[:], trailerOff); err != nil {
		return rt, err
	}
	if string(trailer[16:]) != runTrailerMagic {
		return rt, corrupt("run-trailer", trailerOff, "bad run trailer magic")
	}
	footOff := binary.LittleEndian.Uint64(trailer[0:8])
	footLen := uint64(binary.LittleEndian.Uint32(trailer[8:12]))
	if footOff < uint64(rt.dataStart) || footOff > uint64(trailerOff) || footOff+footLen != uint64(trailerOff) {
		return rt, corrupt("run-trailer", trailerOff, "bad run footer bounds")
	}
	rt.footOff = int64(footOff)
	foot := make([]byte, footLen)
	if _, err := ra.ReadAt(foot, rt.footOff); err != nil {
		return rt, err
	}
	if crc32.ChecksumIEEE(foot) != binary.LittleEndian.Uint32(trailer[12:16]) {
		return rt, corrupt("run-footer", rt.footOff, "run footer checksum mismatch")
	}
	var artifact, detail string
	if rt.runFooter, artifact, detail = parseRunFooter(foot, rt.dataStart, rt.footOff); detail != "" {
		return rt, corrupt(artifact, rt.footOff, detail)
	}
	return rt, nil
}

// runFooter is the parsed form of a run footer.
type runFooter struct {
	blocks  []blockMeta
	nrows   int32
	hashOff int64
	bloom   *bloomFilter
}

// parseRunFooter decodes a (CRC-verified) footer of a run whose first
// block starts at dataStart and whose footer starts at footOff, checking
// it against the layout encodeRun writes: full blocks (but the last)
// packed back to back from dataStart, the hash section right after them
// sized for the row count, and the footer right after that. A footer that
// passes describes only bytes the file has. On failure it returns the
// artifact class ("run-footer" or "run-bloom") and a non-empty detail.
func parseRunFooter(foot []byte, dataStart, footOff int64) (runFooter, string, string) {
	var rf runFooter
	rd := foot
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(rd)
		if n <= 0 {
			return 0, false
		}
		rd = rd[n:]
		return v, true
	}
	const truncated = "truncated run footer"
	nblocks, ok := next()
	if !ok {
		return rf, "run-footer", truncated
	}
	off, rows := dataStart, uint64(0)
	for i := uint64(0); i < nblocks; i++ {
		psize, ok1 := next()
		brows, ok2 := next()
		if !ok1 || !ok2 {
			return rf, "run-footer", truncated
		}
		// Slot -> block is a shift, so every block but the last is full.
		if brows == 0 || brows > rowsPerBlock || (brows < rowsPerBlock && i+1 < nblocks) {
			return rf, "run-footer", fmt.Sprintf("block %d claims %d rows", i, brows)
		}
		if room := footOff - off - 8; room < 0 || psize == 0 || psize > uint64(room) || psize > math.MaxInt32-8 {
			return rf, "run-footer", fmt.Sprintf("block %d extends past the blocks", i)
		}
		rf.blocks = append(rf.blocks, blockMeta{off: off, size: int32(psize) + 8, nrows: int32(brows)})
		off += int64(psize) + 8
		rows += brows
	}
	nrows, ok1 := next()
	hashOff, ok2 := next()
	switch {
	case !ok1 || !ok2:
		return rf, "run-footer", truncated
	case nrows != rows || nrows > math.MaxInt32:
		return rf, "run-footer", "footer row count does not match its blocks"
	case hashOff != uint64(off) || uint64(footOff-off) != 8*nrows+4:
		return rf, "run-footer", "hash section does not fit between the blocks and the footer"
	}
	rf.nrows, rf.hashOff = int32(nrows), off
	bloom, rest, ok := readBloom(rd)
	if !ok || len(rest) != 0 {
		return rf, "run-bloom", "bad run bloom filter"
	}
	rf.bloom = bloom
	return rf, "", ""
}

// buildIndex fills the run's table from the cached hashes, one entry per
// slot: a run never deletes a row, so a tuple deleted and inserted again
// before the flush has two entries, told apart by the tombstones.
func (r *run) buildIndex() {
	r.tab.Grow(len(r.hashes))
	for i, h := range r.hashes {
		r.tab.Add(h, int32(i))
	}
}

// readFrame reads block bi's frame into buf (grown if too small) and
// verifies its length field and CRC; the payload is frame[8:].
func (r *run) readFrame(st *storage.Stats, bi int, buf []byte) ([]byte, error) {
	bm := r.blocks[bi]
	if cap(buf) < int(bm.size) {
		buf = make([]byte, bm.size)
	}
	buf = buf[:bm.size]
	if _, err := r.f.ReadAt(buf, bm.off); err != nil {
		return nil, storage.IOFault("run-read", r.path, err)
	}
	size := int(binary.LittleEndian.Uint32(buf[0:4]))
	sum := binary.LittleEndian.Uint32(buf[4:8])
	if size != len(buf)-8 {
		return nil, &storage.CorruptError{Artifact: "block-header", Path: r.path, Run: r.seq,
			Offset: bm.off, Detail: fmt.Sprintf("block %d length field does not match footer", bi)}
	}
	if crc32.ChecksumIEEE(buf[8:]) != sum {
		return nil, r.corruptBlock(bi, "checksum mismatch")
	}
	atomic.AddInt64(&st.BlocksRead, 1)
	return buf, nil
}

func (r *run) corruptBlock(bi int, detail any) error {
	return &storage.CorruptError{Artifact: "run-block", Path: r.path, Run: r.seq,
		Offset: r.blocks[bi].off, Detail: fmt.Sprintf("block %d: %v", bi, detail)}
}

// decodeRows decodes every row of a verified frame. Decoded values never
// alias the frame, so the caller may reuse its buffer.
func (r *run) decodeRows(frame []byte, bi int) ([]term.Tuple, error) {
	rows, err := decodeBlockPayload(r.dict, frame[8:], r.arity)
	if err != nil {
		return nil, r.corruptBlock(bi, err)
	}
	return rows, nil
}

// block returns the decoded rows of block bi via the cache, admitting it
// on a miss: a caller that wants the whole block (scans, or the second
// point probe to touch it) has paid for the decode already.
func (r *run) block(c *blockCache, st *storage.Stats, bi int) ([]term.Tuple, error) {
	k := blockKey{r.seq, int32(bi)}
	rows, e, ghost := c.get(k)
	if rows != nil {
		atomic.AddInt64(&st.CacheHits, 1)
		return rows, nil
	}
	return r.admit(c, st, k, e, ghost)
}

// admit decodes block k whole — from e's already-verified frame when e was
// the block's ghost entry, else from disk — and enters it in the cache.
func (r *run) admit(c *blockCache, st *storage.Stats, k blockKey, e *cacheEnt, ghost bool) ([]term.Tuple, error) {
	var err error
	if !ghost {
		if e.frame, err = r.readFrame(st, int(k.block), e.frame); err != nil {
			return nil, err
		}
	}
	rows, err := r.decodeRows(e.frame, int(k.block))
	if err != nil {
		return nil, err
	}
	c.enter(k, e, rows)
	return rows, nil
}

// tupleAt returns the row at slot: the point-probe read. A block resident
// in the cache answers directly. The first touch of a cold block reads and
// verifies its frame, decodes only the wanted row, and leaves the frame on
// the cache's ghost list; a second touch while it is still there decodes
// the block once and admits it. One-off probes therefore neither build 256
// tuples nor evict a hot block, while hot blocks and same-block batches
// run at cache-hit speed from their second probe on.
func (r *run) tupleAt(c *blockCache, st *storage.Stats, slot int32) (term.Tuple, error) {
	k := blockKey{r.seq, slot / rowsPerBlock}
	i := int(slot % rowsPerBlock)
	rows, e, ghost := c.get(k)
	var err error
	switch {
	case rows != nil:
		atomic.AddInt64(&st.CacheHits, 1)
	case ghost:
		if rows, err = r.admit(c, st, k, e, ghost); err != nil {
			return nil, err
		}
	default:
		if e.frame, err = r.readFrame(st, int(k.block), e.frame); err != nil {
			return nil, err
		}
		t, err := decodeRowAt(r.dict, e.frame[8:], r.arity, i)
		if err != nil {
			return nil, r.corruptBlock(int(k.block), err)
		}
		c.enter(k, e, nil)
		return t, nil
	}
	if i >= len(rows) {
		return nil, r.corruptBlock(int(k.block), fmt.Sprintf("no row %d among %d", i, len(rows)))
	}
	return rows[i], nil
}

// scan yields the rows visible at snapshot CSN csn (tomb 0 or > csn: the
// live view is storage.LiveCSN, and csn 0 yields every slot), in slot order.
// Returns false if the consumer stopped early.
func (r *run) scan(c *blockCache, st *storage.Stats, csn uint64, yield func(term.Tuple) bool) (bool, error) {
	slot := int32(0)
	for bi := range r.blocks {
		rows, err := r.block(c, st, bi)
		if err != nil {
			return false, err
		}
		for _, t := range rows {
			if d := r.tombAt(slot); (d == 0 || d > csn) && !yield(t) {
				return false, nil
			}
			slot++
		}
	}
	return true, nil
}

// blockKey identifies a cached block; run sequence numbers are unique per
// store, so the cache is shared across all of a store's relations.
type blockKey struct {
	run   uint64
	block int32
}

// blockCache is a small mutex-guarded cache of run blocks with second-touch
// admission. The hot list is an LRU of decoded blocks; decoded rows are
// immutable and may be handed to any number of concurrent readers. The
// ghost list is an LRU of equal capacity holding the verified frame bytes
// of blocks a point probe touched once, so promoting one costs a decode
// but no second read. Entries (and their frame buffers) retired from
// either list are recycled through free. The mutex covers only the
// map/list bookkeeping.
type blockCache struct {
	mu         sync.Mutex
	cap        int
	m          map[blockKey]*cacheEnt // entries of both lists
	hot, ghost lruList
	free       *cacheEnt // retired entries, linked through next
}

// cacheEnt is on the hot list when rows is set, else on the ghost list
// with frame holding the block's verified frame. An entry handed out by
// get belongs to the caller until enter takes it back.
type cacheEnt struct {
	key        blockKey
	rows       []term.Tuple
	frame      []byte
	prev, next *cacheEnt
}

type lruList struct {
	head, tail *cacheEnt // head = most recently used
	n          int
}

// listOf returns the list a linked entry is on.
func (c *blockCache) listOf(e *cacheEnt) *lruList {
	if e.rows != nil {
		return &c.hot
	}
	return &c.ghost
}

func newBlockCache(capacity int) *blockCache {
	if capacity <= 0 {
		capacity = 512
	}
	return &blockCache{cap: capacity, m: make(map[blockKey]*cacheEnt, 2*capacity)}
}

// get looks k up. A decoded block returns its rows. Otherwise the caller
// gets an entry to fill: the block's ghost entry, taken off the list with
// its frame intact (ghost true), or a blank one.
func (c *blockCache) get(k blockKey) (rows []term.Tuple, e *cacheEnt, ghost bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.m[k]; e != nil {
		if e.rows != nil {
			c.hot.moveFront(e)
			return e.rows, nil, false
		}
		c.ghost.unlink(e)
		delete(c.m, k)
		return nil, e, true
	}
	if e = c.free; e != nil {
		c.free, e.next = e.next, nil
		return nil, e, false
	}
	return nil, &cacheEnt{}, false
}

// enter hands e back as block k's entry: on the hot list with the decoded
// rows, or — rows nil, e.frame holding the verified frame — on the ghost
// list, noting a first touch.
func (c *blockCache) enter(k blockKey, e *cacheEnt, rows []term.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.m[k]; old != nil {
		// A concurrent reader entered the block first. Keep a decoded form
		// over a frame; otherwise theirs stands.
		if old.rows != nil || rows == nil {
			c.retire(e)
			return
		}
		c.ghost.unlink(old)
		c.retire(old)
	}
	e.key, e.rows = k, rows
	c.m[k] = e
	l := c.listOf(e)
	l.pushFront(e)
	for l.n > c.cap {
		old := l.tail
		l.unlink(old)
		delete(c.m, old.key)
		c.retire(old)
	}
}

// retire puts an entry no list holds on the free list, keeping its frame
// buffer for the next cold read.
func (c *blockCache) retire(e *cacheEnt) {
	e.rows, e.prev = nil, nil
	e.next, c.free = c.free, e
}

// dropRun evicts every cached block of a run (the run was deleted).
func (c *blockCache) dropRun(run uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		if k.run == run {
			c.listOf(e).unlink(e)
			delete(c.m, k)
			c.retire(e)
		}
	}
}

func (l *lruList) pushFront(e *cacheEnt) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.n++
}

func (l *lruList) unlink(e *cacheEnt) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

func (l *lruList) moveFront(e *cacheEnt) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}
