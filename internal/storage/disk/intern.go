// Persistent intern table: a per-store append-only dictionary of atom
// strings with their precomputed content hashes. Two jobs:
//
//  1. Compressed run blocks reference atoms by dictionary ID instead of
//     repeating their bytes; IDs are stable because the file is
//     append-only and entries are never reordered or removed.
//  2. Reopening a store replays the file through term.InternWithHash, so
//     every stored atom re-enters the process-wide intern table with its
//     hash already computed — cold-open never re-folds atom bytes.
//
// Records are prefix-compressed against the previous entry (shared-prefix
// length + suffix) and individually checksummed; a torn tail — a crash
// mid-append — is truncated away on load, which is safe because the
// dictionary is synced before any run or manifest that references its
// entries becomes durable. Ephemeral stores (spill scratch) keep the
// dictionary in memory only.
package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

const (
	internFileName = "INTERN.gri"
	internMagic    = "GLUENAIL-ITN1\n"
	// internInlineLimit bounds dictionary entries: strings longer than
	// this are stored inline in their blocks instead, so one huge
	// distinct payload cannot bloat the dictionary every reopen must
	// replay.
	internInlineLimit = 1024
)

// atomDict maps interned atoms to stable uint32 IDs and back. A single
// mutex covers the writer side (flush, bulk load, and the background
// compactor all encode blocks); decoding is lock-free through the
// published value slice.
type atomDict struct {
	mu   sync.Mutex
	ids  map[string]uint32
	vals []term.Value                 // id -> interned atom, writer-owned
	pub  atomic.Pointer[[]term.Value] // reader-visible snapshot of vals
	prev string                       // last appended string, for prefix coding

	f     fsio.File // nil = memory-only (ephemeral store)
	path  string
	pend  []byte // records appended since the last sync
	dirty bool
}

// newAtomDict opens (or creates) the dictionary under dir. An empty dir
// keeps it memory-only. Corrupt or torn trailing records are truncated
// away with a warning; preceding records stay valid.
func newAtomDict(fsys fsio.FS, dir string) (*atomDict, error) {
	d := &atomDict{ids: make(map[string]uint32)}
	d.publish()
	if dir == "" {
		return d, nil
	}
	path := filepath.Join(dir, internFileName)
	data, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, storage.IOFault("intern", path, err)
	}
	good := 0
	if len(data) >= len(internMagic) && string(data[:len(internMagic)]) == internMagic {
		good, _ = walkInternRecords(data, func(rec internRecord) { d.appendMem(rec.s, rec.h) })
		if good < len(data) {
			fmt.Fprintf(os.Stderr, "gluenail: disk: %s: truncating torn intern record at %d\n", path, good)
		}
	} else if len(data) > 0 {
		fmt.Fprintf(os.Stderr, "gluenail: disk: %s: bad intern table header, rebuilding\n", path)
		good = 0
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, storage.IOFault("intern", path, err)
	}
	if good == 0 {
		// Fresh or unreadable file: (re)write the header. Entries already
		// referenced by compressed runs cannot exist in this case — runs
		// are only durable after the dictionary naming their atoms is.
		if err := f.Truncate(0); err != nil {
			_ = f.Close()
			return nil, storage.IOFault("intern", path, err)
		}
		if _, err := f.WriteAt([]byte(internMagic), 0); err != nil {
			_ = f.Close()
			return nil, storage.IOFault("intern", path, err)
		}
		good = len(internMagic)
	}
	if err := f.Truncate(int64(good)); err != nil {
		_ = f.Close()
		return nil, storage.IOFault("intern", path, err)
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		_ = f.Close()
		return nil, storage.IOFault("intern", path, err)
	}
	d.f = f
	d.path = path
	return d, nil
}

type internRecord struct {
	s string
	h uint64
}

// walkInternRecords calls fn for each record of an intern file image
// (header already checked), in order, until one fails to parse. It returns
// where the walk stopped — len(data) when every record parsed, else the
// start of the first bad one — and the string of the last good record,
// which the bad one's prefix compression refers to.
func walkInternRecords(data []byte, fn func(internRecord)) (int, string) {
	pos, prev := len(internMagic), ""
	for pos < len(data) {
		rec, next, ok := parseInternRecord(data, pos, prev)
		if !ok {
			break
		}
		fn(rec)
		pos, prev = next, rec.s
	}
	return pos, prev
}

// parseInternRecord decodes one record at pos: uvarint shared-prefix len
// (vs the previous entry), uvarint suffix len, suffix bytes, 8-byte LE
// hash, 4-byte CRC over the preceding record bytes.
func parseInternRecord(data []byte, pos int, prev string) (internRecord, int, bool) {
	start := pos
	pfx, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return internRecord{}, 0, false
	}
	pos += n
	sfx, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return internRecord{}, 0, false
	}
	pos += n
	if pfx > uint64(len(prev)) || uint64(len(data)-pos) < 12 || sfx > uint64(len(data)-pos-12) {
		return internRecord{}, 0, false
	}
	suffix := data[pos : pos+int(sfx)]
	pos += int(sfx)
	h := binary.LittleEndian.Uint64(data[pos:])
	pos += 8
	sum := binary.LittleEndian.Uint32(data[pos:])
	pos += 4
	if crc32.ChecksumIEEE(data[start:pos-4]) != sum {
		return internRecord{}, 0, false
	}
	return internRecord{s: prev[:pfx] + string(suffix), h: h}, pos, true
}

// appendMem adds one entry to the in-memory maps (load path and writer
// path share it) and publishes the new snapshot.
func (d *atomDict) appendMem(s string, h uint64) {
	v := term.InternWithHash(s, h)
	d.ids[s] = uint32(len(d.vals))
	d.vals = append(d.vals, v)
	d.prev = s
	d.publish()
}

func (d *atomDict) publish() {
	hdr := d.vals
	d.pub.Store(&hdr)
}

// sharedPrefix returns the length of the common prefix of a and b.
func sharedPrefix(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// idFor returns the dictionary ID for atom v, appending it (and staging
// the file record) on first sight. Callers hold no lock.
func (d *atomDict) idFor(v term.Value) uint32 {
	s := v.Str()
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[s]; ok {
		return id
	}
	if d.f != nil {
		pfx := sharedPrefix(d.prev, s)
		start := len(d.pend)
		d.pend = binary.AppendUvarint(d.pend, uint64(pfx))
		d.pend = binary.AppendUvarint(d.pend, uint64(len(s)-pfx))
		d.pend = append(d.pend, s[pfx:]...)
		d.pend = binary.LittleEndian.AppendUint64(d.pend, v.StrHash())
		d.pend = binary.LittleEndian.AppendUint32(d.pend, crc32.ChecksumIEEE(d.pend[start:]))
		d.dirty = true
	}
	id := uint32(len(d.vals))
	d.appendMem(s, v.StrHash())
	return id
}

// atom returns the value for id. Lock-free: IDs only ever come from
// blocks encoded against this dictionary, so id < len(published).
func (d *atomDict) atom(id uint32) (term.Value, bool) {
	vals := *d.pub.Load()
	if int(id) >= len(vals) {
		return term.Value{}, false
	}
	return vals[id], true
}

// sync makes all staged records durable. Must run before any run file or
// manifest that references the new entries is fsynced — createRun and
// writeManifest call it. No-op when clean or memory-only.
func (d *atomDict) sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.dirty || d.f == nil {
		return nil
	}
	if _, err := d.f.Write(d.pend); err != nil {
		return storage.IOFault("intern", d.path, err)
	}
	if err := d.f.Sync(); err != nil {
		return storage.IOFault("intern", d.path, err)
	}
	d.pend = d.pend[:0]
	d.dirty = false
	return nil
}

// close releases the file handle (staged but unsynced records are
// discarded: nothing durable references them).
func (d *atomDict) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return nil
	}
	err := d.f.Close()
	d.f = nil
	if err != nil {
		return storage.IOFault("intern", d.path, err)
	}
	return nil
}
