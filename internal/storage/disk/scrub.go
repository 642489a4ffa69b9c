// Scrubbing and offline fsck: every persistent artifact the engine
// writes is checksummed, and this file is where the checksums get
// re-checked after the fact — because a CRC only helps against silent
// bit rot if something eventually reads it.
//
// Three entry points share the same verification core:
//
//   - Store.Scrub(repair) walks a live store end to end. With repair set,
//     runs whose auxiliary structures (hash section, bloom filter, footer,
//     trailer) are damaged but whose tuple blocks verify are rebuilt in
//     place from the decoded rows — queries are byte-identical before and
//     after — and runs with unrecoverable tuple damage are quarantined
//     (renamed aside, dropped from the relation) so reads keep serving
//     everything that still verifies.
//   - Store.startScrubber runs the same verification in the background at
//     low priority, one run per tick, reporting (never repairing) so an
//     operator learns about rot long before a query trips over it.
//   - FsckDir verifies a store directory offline, without opening the
//     store — usable exactly when corruption prevents opening it. With
//     repair set it performs the same aux-rebuild/quarantine, rewriting
//     the manifest when a quarantined run must leave it.
//
// The repair rule is strict: only artifacts that are pure functions of
// the surviving tuple data (hashes, blooms, footers, the manifest's run
// list) are ever rebuilt. Damaged tuple bytes are never guessed at — the
// file is set aside intact for forensics and the damage is reported.
package disk

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

// runImage is the result of verifying one run's bytes: the findings, and
// — when every tuple block decoded — the rows and recomputed hashes a
// repair pass rebuilds from.
type runImage struct {
	findings []storage.Finding
	arity    int
	rows     []term.Tuple
	hashes   []uint64
	tupleOK  bool
}

// decodeFrame verifies and decodes one CRC-framed block (8-byte header +
// payload). A non-empty detail means the frame failed.
func decodeFrame(dict *atomDict, frame []byte, arity int) ([]term.Tuple, string) {
	if len(frame) < 8 {
		return nil, "truncated block frame"
	}
	size := int(binary.LittleEndian.Uint32(frame[0:4]))
	if size != len(frame)-8 {
		return nil, "frame length does not match block metadata"
	}
	if crc32.ChecksumIEEE(frame[8:]) != binary.LittleEndian.Uint32(frame[4:8]) {
		return nil, "block checksum mismatch"
	}
	rows, err := decodeBlockPayload(dict, frame[8:], arity)
	if err != nil {
		return nil, err.Error()
	}
	return rows, ""
}

// appendHashSection renders the hash section exactly as encodeRun does.
func appendHashSection(dst []byte, hashes []uint64) []byte {
	start := len(dst)
	for _, h := range hashes {
		dst = binary.LittleEndian.AppendUint64(dst, h)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// ---- live scrub ----

// Scrub verifies every persistent artifact the store owns — manifest,
// intern table, and each run's blocks, hash section, bloom filter,
// footer and trailer — and reports one Finding per damaged region. With
// repair set, aux-only damage is healed in place and tuple damage is
// quarantined (see the package comment); repairs that changed the run
// lists are made durable with a manifest rewrite.
func (s *Store) Scrub(repair bool) []storage.Finding {
	var findings []storage.Finding
	if !s.opts.Ephemeral {
		findings = append(findings, verifyManifestFile(s.fsys, s.dir)...)
		findings = append(findings, verifyInternFile(s.fsys, s.dir)...)
	}
	s.mu.RLock()
	rels := s.rels.Rels()
	s.mu.RUnlock()
	changed := false
	for _, r := range rels {
		for _, rn := range *r.runs.Load() {
			fs, c := s.scrubRun(r, rn, repair)
			findings = append(findings, fs...)
			changed = changed || c
		}
	}
	if changed && !s.opts.Ephemeral && s.Degraded() == nil {
		if err := s.persistManifest(rels); err != nil {
			findings = append(findings, storage.Finding{
				Artifact: "manifest", Path: filepath.Join(s.dir, manifestName), Offset: -1,
				Detail: fmt.Sprintf("rewrite after repair failed: %v", err),
			})
		}
	}
	return findings
}

func (s *Store) scrubRun(r *Rel, rn *run, repair bool) ([]storage.Finding, bool) {
	// Retain under mu: retireRuns releases its references under the same
	// lock, so the handle cannot close mid-verify.
	s.mu.RLock()
	rn.retain()
	s.mu.RUnlock()
	defer rn.release()
	v := verifyRunHandle(rn, fmt.Sprint(r.name))
	if len(v.findings) == 0 {
		return nil, false
	}
	if !repair || s.Degraded() != nil {
		return v.findings, false
	}
	if v.tupleOK {
		if s.healRun(r, rn, v) {
			for i := range v.findings {
				v.findings[i].Healed = true
			}
			return v.findings, true
		}
	} else if s.quarantineRun(r, rn) {
		for i := range v.findings {
			v.findings[i].Quarantined = true
		}
		return v.findings, true
	}
	return v.findings, false
}

// verifyRunHandle re-verifies one open run's on-disk bytes end to end:
// every block frame is read back and decoded, the hash section is
// CRC-checked and compared against hashes recomputed from the decoded
// rows, the bloom filter is probed with every recomputed hash (a false
// negative would silently drop rows from membership checks), and the
// footer/trailer seals are re-read.
func verifyRunHandle(rn *run, rel string) runImage {
	v := runImage{tupleOK: true, arity: rn.arity}
	bad := func(artifact string, off int64, detail string) {
		v.findings = append(v.findings, storage.Finding{
			Artifact: artifact, Path: rn.path, Relation: rel, Run: rn.seq,
			Offset: off, Detail: detail,
		})
	}
	for bi, bm := range rn.blocks {
		buf := make([]byte, bm.size)
		if _, err := rn.f.ReadAt(buf, bm.off); err != nil {
			bad("run-block", bm.off, fmt.Sprintf("block %d unreadable: %v", bi, err))
			v.tupleOK = false
			continue
		}
		rows, detail := decodeFrame(rn.dict, buf, rn.arity)
		if detail != "" {
			bad("run-block", bm.off, fmt.Sprintf("block %d: %s", bi, detail))
			v.tupleOK = false
			continue
		}
		v.rows = append(v.rows, rows...)
		for _, t := range rows {
			v.hashes = append(v.hashes, t.Hash())
		}
	}
	hb := make([]byte, int(rn.nrows)*8+4)
	if _, err := rn.f.ReadAt(hb, rn.hashOff); err != nil {
		bad("run-hash-section", rn.hashOff, fmt.Sprintf("unreadable: %v", err))
	} else if crc32.ChecksumIEEE(hb[:len(hb)-4]) != binary.LittleEndian.Uint32(hb[len(hb)-4:]) {
		bad("run-hash-section", rn.hashOff, "hash section checksum mismatch")
	} else if v.tupleOK && len(v.hashes) == int(rn.nrows) {
		for i, h := range v.hashes {
			if binary.LittleEndian.Uint64(hb[i*8:]) != h {
				bad("run-hash-section", rn.hashOff+int64(i*8), "stored row hash does not match tuple data")
				break
			}
		}
	}
	verifyRunSeal(rn, bad)
	if v.tupleOK && rn.bloom != nil {
		for _, h := range v.hashes {
			if !rn.bloom.mayContain(h) {
				bad("run-bloom", -1, "bloom filter misses a stored row hash")
				break
			}
		}
	}
	return v
}

// verifyRunSeal re-reads a run file's header, trailer and footer.
func verifyRunSeal(rn *run, bad func(artifact string, off int64, detail string)) {
	fi, err := rn.f.Stat()
	if err != nil {
		bad("run-trailer", -1, fmt.Sprintf("stat: %v", err))
		return
	}
	if _, err := readRunTail(rn.f, fi.Size()); err != nil {
		badTail(err, bad)
	}
}

// badTail reports a readRunTail failure as a finding.
func badTail(err error, bad func(artifact string, off int64, detail string)) {
	var ce *storage.CorruptError
	if errors.As(err, &ce) {
		bad(ce.Artifact, ce.Offset, ce.Detail)
		return
	}
	bad("run-trailer", -1, fmt.Sprintf("unreadable: %v", err))
}

// healRun replaces a run whose auxiliary structures are damaged but whose
// tuple blocks all verified: a fresh run with the same rows — hence the
// same slots, so tombstones carry over — is installed in its position.
// Content-identical, like a compaction install, and guarded the same way:
// if the run list moved under us the healed file is discarded and the
// next scrub retries.
func (s *Store) healRun(r *Rel, rn *run, v runImage) bool {
	seq := s.nextRunSeq()
	nr, err := createRun(s, seq, rn.arity, v.rows, v.hashes, true)
	if err != nil {
		s.setDegraded(err)
		return false
	}
	r.relMu.Lock()
	cur := *r.runs.Load()
	idx := -1
	for i, x := range cur {
		if x == rn {
			idx = i
			break
		}
	}
	if idx < 0 {
		r.relMu.Unlock()
		_ = s.fsys.Remove(nr.path)
		nr.release()
		return false
	}
	rn.eachTomb(nr.setTomb)
	nl := append([]*run(nil), cur...)
	nl[idx] = nr
	r.runs.Store(&nl)
	r.relMu.Unlock()
	s.retireRuns([]*run{rn})
	return true
}

// quarantineRun sets aside a run whose tuple data failed verification:
// the file is renamed out of the run namespace — never deleted; the
// surviving bytes may matter — and the run leaves the relation, so reads
// keep serving everything that still verifies. The distinct digest keeps
// counting the lost rows (it is an estimate; staying conservative is
// fine), but partial-mask indexes are dropped so no decoded copy of a
// quarantined row survives in memory.
func (s *Store) quarantineRun(r *Rel, rn *run) bool {
	r.relMu.Lock()
	cur := *r.runs.Load()
	idx := -1
	for i, x := range cur {
		if x == rn {
			idx = i
			break
		}
	}
	if idx < 0 {
		r.relMu.Unlock()
		return false
	}
	nl := make([]*run, 0, len(cur)-1)
	nl = append(nl, cur[:idx]...)
	nl = append(nl, cur[idx+1:]...)
	r.runs.Store(&nl)
	r.diskLive -= rn.liveNow()
	r.version++
	r.relMu.Unlock()
	if err := s.fsys.Rename(rn.path, rn.path+".quarantined"); err != nil {
		fmt.Fprintf(os.Stderr, "gluenail: disk: quarantining %s: %v\n", rn.path, err)
	}
	s.retireRuns([]*run{rn})
	return true
}

// ---- background scrubber ----

// startScrubber verifies one run per interval in the background,
// reporting findings to stderr. Verification only — repair changes run
// lists and is the operator's call (Scrub(true) or gluenail fsck).
func (s *Store) startScrubber(interval time.Duration) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
			}
			for _, f := range s.scrubOne() {
				fmt.Fprintf(os.Stderr, "gluenail: disk: scrub: %s\n", f.String())
			}
		}
	}()
}

// scrubOne verifies the run with the smallest sequence above the cursor,
// wrapping to the smallest overall when the cursor passes the end.
func (s *Store) scrubOne() []storage.Finding {
	s.mu.RLock()
	var pick, first *run
	var pickRel, firstRel *Rel
	bestSeq, firstSeq := ^uint64(0), ^uint64(0)
	for _, r := range s.rels.Rels() {
		for _, rn := range *r.runs.Load() {
			if rn.seq < firstSeq {
				firstSeq, first, firstRel = rn.seq, rn, r
			}
			if rn.seq > s.scrubCursor && rn.seq < bestSeq {
				bestSeq, pick, pickRel = rn.seq, rn, r
			}
		}
	}
	if pick == nil {
		pick, pickRel = first, firstRel
	}
	if pick != nil {
		pick.retain()
	}
	s.mu.RUnlock()
	if pick == nil {
		return nil
	}
	defer pick.release()
	s.mu.Lock()
	s.scrubCursor = pick.seq
	s.mu.Unlock()
	return verifyRunHandle(pick, fmt.Sprint(pickRel.name)).findings
}

// ---- shared file verifiers ----

// verifyManifestFile checks the manifest's envelope and decodes its
// payload; a missing manifest (fresh store) is fine.
func verifyManifestFile(fsys fsio.FS, dir string) []storage.Finding {
	path := filepath.Join(dir, manifestName)
	data, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return []storage.Finding{{Artifact: "manifest", Path: path, Offset: -1,
			Detail: fmt.Sprintf("unreadable: %v", err)}}
	}
	if _, err := parseManifestImage(path, data); err != nil {
		return []storage.Finding{manifestFinding(err)}
	}
	return nil
}

// manifestFinding reports a parseManifestImage failure as a finding.
func manifestFinding(err error) storage.Finding {
	ce := err.(*storage.CorruptError)
	return storage.Finding{Artifact: ce.Artifact, Path: ce.Path, Offset: ce.Offset, Detail: ce.Detail}
}

// verifyInternFile walks the intern table's records. A record the file
// cuts short is a torn append (benign: load truncates it); a complete
// record with a failing CRC — or an impossible prefix length — is rot,
// and everything after it is unrecoverable because prefix compression
// chains each record to its predecessor.
func verifyInternFile(fsys fsio.FS, dir string) []storage.Finding {
	path := filepath.Join(dir, internFileName)
	data, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return []storage.Finding{{Artifact: "intern", Path: path, Offset: -1,
			Detail: fmt.Sprintf("unreadable: %v", err)}}
	}
	if len(data) == 0 {
		return nil
	}
	if len(data) < len(internMagic) || string(data[:len(internMagic)]) != internMagic {
		return []storage.Finding{{Artifact: "intern", Path: path, Offset: 0,
			Detail: "bad intern table header"}}
	}
	pos, prev := walkInternRecords(data, func(internRecord) {})
	switch {
	case pos == len(data):
		return nil
	case internTailTorn(data, pos, prev):
		return []storage.Finding{{Artifact: "intern", Path: path, Offset: int64(pos),
			Detail: "torn trailing record", Benign: true}}
	}
	return []storage.Finding{{Artifact: "intern", Path: path, Offset: int64(pos),
		Detail: "record checksum mismatch; this and later entries are unrecoverable"}}
}

// internTailTorn reports whether the invalid record at pos is explainable
// as a torn append — the bytes run out mid-record — rather than in-place
// damage to a complete record.
func internTailTorn(data []byte, pos int, prev string) bool {
	pfx, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return true
	}
	p := pos + n
	sfx, n2 := binary.Uvarint(data[p:])
	if n2 <= 0 {
		return true
	}
	p += n2
	if pfx > uint64(len(prev)) {
		// A record is appended whole with a valid prefix length; a
		// complete varint claiming an impossible prefix means the bytes
		// changed after the write.
		return false
	}
	return uint64(len(data)-p) < 12 || sfx > uint64(len(data)-p-12)
}

// ---- offline fsck ----

// FsckDir verifies a disk store's directory without opening the store —
// usable exactly when corruption prevents opening it. With repair set,
// runs with aux-only damage are rebuilt in place from their intact tuple
// blocks, runs with tuple damage (or missing files) are quarantined and
// dropped from the manifest, and the manifest is rewritten atomically.
func FsckDir(dir string, repair bool) ([]storage.Finding, error) {
	return FsckDirFS(fsio.OS, dir, repair)
}

// FsckDirFS is FsckDir over an explicit filesystem.
func FsckDirFS(fsys fsio.FS, dir string, repair bool) ([]storage.Finding, error) {
	if _, err := fsys.Stat(dir); err != nil {
		return nil, storage.IOFault("fsck", dir, err)
	}
	var findings []storage.Finding

	manifestPath := filepath.Join(dir, manifestName)
	var img *manifestImage
	if mdata, err := fsys.ReadFile(manifestPath); err == nil {
		img, err = parseManifestImage(manifestPath, mdata)
		if err != nil {
			// Report-only: the manifest is the durability root, and
			// rebuilding it would be guessing which runs form the
			// statement-boundary state.
			findings = append(findings, manifestFinding(err))
		}
	} else if !os.IsNotExist(err) {
		findings = append(findings, storage.Finding{Artifact: "manifest",
			Path: manifestPath, Offset: -1, Detail: fmt.Sprintf("unreadable: %v", err)})
	}

	findings = append(findings, verifyInternFile(fsys, dir)...)
	dict := loadDictReadOnly(fsys, dir)

	// Run -> relation attribution from the manifest, when it parsed.
	owner := map[uint64]string{}
	named := map[uint64]bool{}
	if img != nil {
		for _, r := range img.rels {
			for _, seq := range r.runs {
				owner[seq] = fmt.Sprint(r.name)
				named[seq] = true
			}
		}
	}

	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return findings, storage.IOFault("fsck", dir, err)
	}
	present := map[uint64]bool{}
	quarantined := map[uint64]bool{}
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "run-%d.grn", &seq); err != nil || e.Name() != runName(seq) {
			continue
		}
		present[seq] = true
		if img != nil && !named[seq] {
			// Orphan of an interrupted flush: the next open sweeps it.
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := fsys.ReadFile(path)
		if err != nil {
			f := storage.Finding{Artifact: "run-header", Path: path, Relation: owner[seq],
				Run: seq, Offset: -1, Detail: fmt.Sprintf("unreadable: %v", err)}
			if repair && img != nil {
				quarantined[seq] = true
				f.Quarantined = true
			}
			findings = append(findings, f)
			continue
		}
		v := verifyRunBytes(dict, path, owner[seq], seq, data)
		if len(v.findings) == 0 {
			continue
		}
		if repair {
			if v.tupleOK {
				if err := rewriteRunFile(fsys, path, v.arity, v.rows, v.hashes); err != nil {
					findings = append(findings, storage.Finding{Artifact: "run-header",
						Path: path, Relation: owner[seq], Run: seq, Offset: -1,
						Detail: fmt.Sprintf("rebuild failed: %v", err)})
				} else {
					for i := range v.findings {
						v.findings[i].Healed = true
					}
				}
			} else if img != nil && named[seq] {
				if err := fsys.Rename(path, path+".quarantined"); err == nil {
					quarantined[seq] = true
					for i := range v.findings {
						v.findings[i].Quarantined = true
					}
				}
			}
		}
		findings = append(findings, v.findings...)
	}
	if img != nil {
		for _, r := range img.rels {
			for _, seq := range r.runs {
				if present[seq] || quarantined[seq] {
					continue
				}
				f := storage.Finding{Artifact: "run-header", Path: filepath.Join(dir, runName(seq)),
					Relation: fmt.Sprint(r.name), Run: seq, Offset: -1, Detail: "run file missing"}
				if repair {
					quarantined[seq] = true
					f.Quarantined = true
				}
				findings = append(findings, f)
			}
		}
	}
	if repair && img != nil && len(quarantined) > 0 {
		for i := range img.rels {
			kept := img.rels[i].runs[:0]
			for _, seq := range img.rels[i].runs {
				if !quarantined[seq] {
					kept = append(kept, seq)
				}
			}
			img.rels[i].runs = kept
		}
		if err := writeManifestImage(fsys, dir, img); err != nil {
			findings = append(findings, storage.Finding{Artifact: "manifest",
				Path: manifestPath, Offset: -1,
				Detail: fmt.Sprintf("rewrite after quarantine failed: %v", err)})
		}
	}
	return findings, nil
}

// verifyRunBytes verifies one run file image end to end, offline. When
// the footer is unusable, blocks are recovered by frame-walking from the
// header — each frame is individually CRC-sealed, so a walk that ends
// exactly at the (recomputed) hash section has provably found every
// block.
func verifyRunBytes(dict *atomDict, path, rel string, seq uint64, data []byte) runImage {
	v := runImage{tupleOK: true}
	bad := func(artifact string, off int64, detail string) {
		v.findings = append(v.findings, storage.Finding{
			Artifact: artifact, Path: path, Relation: rel, Run: seq,
			Offset: off, Detail: detail,
		})
	}
	arity, dataStart, err := parseRunHeader(data, int64(len(data)))
	if err != nil {
		badTail(err, bad)
		v.tupleOK = false
		return v
	}
	v.arity = arity
	decode := func(off int64, frame []byte, what string) bool {
		rows, detail := decodeFrame(dict, frame, v.arity)
		if detail != "" {
			bad("run-block", off, what+detail)
			v.tupleOK = false
			return false
		}
		v.rows = append(v.rows, rows...)
		for _, t := range rows {
			v.hashes = append(v.hashes, t.Hash())
		}
		return true
	}

	rt, err := readRunTail(bytes.NewReader(data), int64(len(data)))
	if err == nil {
		for bi, bm := range rt.blocks {
			decode(bm.off, data[bm.off:bm.off+int64(bm.size)], fmt.Sprintf("block %d: ", bi))
		}
		if v.tupleOK && int32(len(v.rows)) != rt.nrows {
			bad("run-footer", rt.footOff, "footer row count does not match block contents")
		}
		hsec := data[rt.hashOff:rt.footOff]
		if crc32.ChecksumIEEE(hsec[:len(hsec)-4]) != binary.LittleEndian.Uint32(hsec[len(hsec)-4:]) {
			bad("run-hash-section", rt.hashOff, "hash section checksum mismatch")
		} else if v.tupleOK && int32(len(v.hashes)) == rt.nrows {
			for i, h := range v.hashes {
				if binary.LittleEndian.Uint64(hsec[i*8:]) != h {
					bad("run-hash-section", rt.hashOff+int64(i*8), "stored row hash does not match tuple data")
					break
				}
			}
		}
		if v.tupleOK && rt.bloom != nil {
			for _, h := range v.hashes {
				if !rt.bloom.mayContain(h) {
					bad("run-bloom", rt.footOff, "bloom filter misses a stored row hash")
					break
				}
			}
		}
		return v
	}
	badTail(err, bad)

	// Footer unusable: recover blocks by frame-walking. The walk is
	// validated by requiring the recomputed hash section to appear
	// verbatim at the stop position — a frame boundary that drifted into
	// the hash section cannot satisfy both the frame CRCs and this check.
	end := int(dataStart)
	for end+8 <= len(data) {
		size := int(binary.LittleEndian.Uint32(data[end : end+4]))
		if size > len(data)-end-8 ||
			crc32.ChecksumIEEE(data[end+8:end+8+size]) != binary.LittleEndian.Uint32(data[end+4:end+8]) {
			break
		}
		if !decode(int64(end), data[end:end+8+size], "") {
			break
		}
		end += 8 + size
	}
	if v.tupleOK {
		want := appendHashSection(nil, v.hashes)
		if end+len(want) > len(data) || !bytes.Equal(data[end:end+len(want)], want) {
			bad("run-block", int64(end), "cannot locate remaining blocks without the footer")
			v.tupleOK = false
		}
	}
	return v
}

// rewriteRunFile rebuilds a run file in place from its surviving tuple
// data: blocks are re-encoded raw — no new dictionary entries can be
// staged — and the hash section, bloom filter, footer and trailer are
// regenerated. The sequence number is unchanged, so the manifest needs
// no rewrite.
func rewriteRunFile(fsys fsio.FS, path string, arity int, rows []term.Tuple, hashes []uint64) error {
	data, _, _ := encodeRun(nil, arity, rows, hashes, false)
	if at, err := fsio.WriteAtomic(fsys, path, true, fsio.Bytes(data)); err != nil {
		return storage.IOFault("fsck", at, err)
	}
	return storage.IOFault("fsck", filepath.Dir(path), fsys.SyncDir(filepath.Dir(path)))
}

// loadDictReadOnly parses the intern table without opening it for write
// (fsck must not modify anything it was not asked to repair). Torn or
// corrupt trailing records are simply not loaded; blocks referencing the
// lost entries fail to decode and are reported as block damage.
func loadDictReadOnly(fsys fsio.FS, dir string) *atomDict {
	d := &atomDict{ids: make(map[string]uint32)}
	d.publish()
	data, err := fsys.ReadFile(filepath.Join(dir, internFileName))
	if err != nil || len(data) < len(internMagic) || string(data[:len(internMagic)]) != internMagic {
		return d
	}
	walkInternRecords(data, func(rec internRecord) { d.appendMem(rec.s, rec.h) })
	return d
}

// ---- manifest image (offline parse/rewrite) ----

type manifestRel struct {
	name  term.Value
	arity int
	dist  *storage.DistinctTracker
	runs  []uint64
}

type manifestImage struct {
	runSeq uint64
	rels   []manifestRel
}

// parseManifestImage decodes the manifest file image read from path into
// a rewritable form. Every way the bytes can fail — envelope, checksum, or
// a CRC-valid payload that does not parse — is a *storage.CorruptError
// naming the manifest, and nothing is allocated beyond what the payload's
// own bytes can fill: each relation's arity is bounded by the bytes left
// (every column's digest takes at least one).
func parseManifestImage(path string, data []byte) (*manifestImage, error) {
	corrupt := func(off int, detail string) error {
		return &storage.CorruptError{Artifact: "manifest", Path: path, Offset: int64(off), Detail: detail}
	}
	mlen := len(manifestMagic)
	if len(data) < mlen+8 || string(data[:mlen]) != manifestMagic {
		return nil, corrupt(0, "bad manifest header")
	}
	plen := int(binary.LittleEndian.Uint32(data[mlen : mlen+4]))
	sum := binary.LittleEndian.Uint32(data[mlen+4 : mlen+8])
	rest := data[mlen+8:]
	if len(rest) < plen || crc32.ChecksumIEEE(rest[:plen]) != sum {
		return nil, corrupt(mlen+8, "manifest checksum mismatch")
	}
	br := bytes.NewReader(rest[:plen])
	rd := bufio.NewReader(br)
	left := func() int { return br.Len() + rd.Buffered() }
	bad := func(what string, err error) error {
		return corrupt(mlen+8+plen-left(), fmt.Sprintf("manifest payload: %s: %v", what, err))
	}
	img := &manifestImage{}
	var err error
	if img.runSeq, err = binary.ReadUvarint(rd); err != nil {
		return nil, bad("run sequence", err)
	}
	nrels, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, bad("relation count", err)
	}
	for i := uint64(0); i < nrels; i++ {
		var mr manifestRel
		if mr.name, err = term.ReadValue(rd); err != nil {
			return nil, bad("relation name", err)
		}
		arity, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, bad("arity", err)
		}
		if arity > uint64(left()) {
			return nil, bad("arity", fmt.Errorf("%d columns in %d remaining bytes", arity, left()))
		}
		mr.arity = int(arity)
		mr.dist = storage.NewDistinctTracker(mr.arity)
		if err := mr.dist.ReadDigest(rd); err != nil {
			return nil, bad("distinct digest", err)
		}
		nruns, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, bad("run count", err)
		}
		for j := uint64(0); j < nruns; j++ {
			seq, err := binary.ReadUvarint(rd)
			if err != nil {
				return nil, bad("run sequence", err)
			}
			mr.runs = append(mr.runs, seq)
		}
		img.rels = append(img.rels, mr)
	}
	return img, nil
}

// writeManifestImage writes img atomically: temp file, fsync, rename,
// directory fsync.
func writeManifestImage(fsys fsio.FS, dir string, img *manifestImage) error {
	var payload []byte
	payload = binary.AppendUvarint(payload, img.runSeq)
	payload = binary.AppendUvarint(payload, uint64(len(img.rels)))
	for _, r := range img.rels {
		payload = term.AppendValue(payload, r.name)
		payload = binary.AppendUvarint(payload, uint64(r.arity))
		payload = r.dist.AppendDigest(payload)
		payload = binary.AppendUvarint(payload, uint64(len(r.runs)))
		for _, seq := range r.runs {
			payload = binary.AppendUvarint(payload, seq)
		}
	}
	var buf bytes.Buffer
	buf.WriteString(manifestMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf.Write(hdr[:])
	buf.Write(payload)

	if at, err := fsio.WriteAtomic(fsys, filepath.Join(dir, manifestName), true, fsio.Bytes(buf.Bytes())); err != nil {
		return storage.IOFault("manifest", at, err)
	}
	return storage.IOFault("manifest", dir, fsys.SyncDir(dir))
}
