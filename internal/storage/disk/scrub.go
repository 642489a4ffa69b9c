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
	"bytes"
	"encoding/binary"
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
func decodeFrame(dict *atomDict, frame []byte, arity int, legacy bool) ([]term.Tuple, string) {
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
	var rows []term.Tuple
	var err error
	if legacy {
		rows, err = decodeLegacyBlock(frame[8:])
	} else {
		rows, err = decodeBlockPayload(dict, frame[8:], arity)
	}
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
	rels := append([]*Rel(nil), s.order...)
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
		rows, detail := decodeFrame(rn.dict, buf, rn.arity, !rn.v2)
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
	if rn.v2 {
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
	} else if v.tupleOK && len(rn.hashes) == len(v.hashes) {
		for i, h := range v.hashes {
			if rn.hashes[i] != h {
				bad("run-hash-section", -1, "resident row hash does not match tuple data")
				break
			}
		}
	}
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

// verifyRunSeal re-reads a RUN2 file's trailer and footer seals.
func verifyRunSeal(rn *run, bad func(artifact string, off int64, detail string)) {
	fi, err := rn.f.Stat()
	if err != nil {
		bad("run-trailer", -1, fmt.Sprintf("stat: %v", err))
		return
	}
	if fi.Size() < int64(runTrailerLen) {
		bad("run-trailer", fi.Size(), "truncated run trailer")
		return
	}
	toff := fi.Size() - int64(runTrailerLen)
	var tr [runTrailerLen]byte
	if _, err := rn.f.ReadAt(tr[:], toff); err != nil {
		bad("run-trailer", toff, fmt.Sprintf("unreadable: %v", err))
		return
	}
	if string(tr[16:]) != runTrailerMagic {
		bad("run-trailer", toff, "bad run trailer magic")
		return
	}
	fo := int64(binary.LittleEndian.Uint64(tr[0:8]))
	fl := int64(binary.LittleEndian.Uint32(tr[8:12]))
	sum := binary.LittleEndian.Uint32(tr[12:16])
	if fo < int64(len(runMagic2)) || fo+fl+int64(runTrailerLen) != fi.Size() {
		bad("run-trailer", toff, "bad run footer bounds")
		return
	}
	foot := make([]byte, fl)
	if _, err := rn.f.ReadAt(foot, fo); err != nil {
		bad("run-footer", fo, fmt.Sprintf("unreadable: %v", err))
		return
	}
	if crc32.ChecksumIEEE(foot) != sum {
		bad("run-footer", fo, "run footer checksum mismatch")
	}
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
	r.statsEpoch.Add(1)
	r.ixMu.Lock()
	r.ixs, r.ixCredit, r.ixOnces = nil, nil, nil
	r.ixMu.Unlock()
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
	for _, r := range s.order {
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
	if _, err := parseManifestImage(data); err != nil {
		return []storage.Finding{{Artifact: "manifest", Path: path, Offset: 0,
			Detail: err.Error()}}
	}
	return nil
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
	prev := ""
	pos := len(internMagic)
	for pos < len(data) {
		rec, next, ok := parseInternRecord(data, pos, prev)
		if !ok {
			if internTailTorn(data, pos, prev) {
				return []storage.Finding{{Artifact: "intern", Path: path, Offset: int64(pos),
					Detail: "torn trailing record", Benign: true}}
			}
			return []storage.Finding{{Artifact: "intern", Path: path, Offset: int64(pos),
				Detail: "record checksum mismatch; this and later entries are unrecoverable"}}
		}
		prev = rec.s
		pos = next
	}
	return nil
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
	if int(pfx) > len(prev) {
		// A record is appended whole with a valid prefix length; a
		// complete varint claiming an impossible prefix means the bytes
		// changed after the write.
		return false
	}
	return p+int(sfx)+12 > len(data)
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
		img, err = parseManifestImage(mdata)
		if err != nil {
			// Report-only: the manifest is the durability root, and
			// rebuilding it would be guessing which runs form the
			// statement-boundary state.
			findings = append(findings, storage.Finding{Artifact: "manifest",
				Path: manifestPath, Offset: 0, Detail: err.Error()})
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
	if len(data) < len(runMagic2) {
		bad("run-header", 0, "file truncated below header")
		v.tupleOK = false
		return v
	}
	legacy := false
	switch string(data[:len(runMagic2)]) {
	case runMagic2:
	case runMagic1:
		legacy = true
	default:
		bad("run-header", 0, "bad run magic")
		v.tupleOK = false
		return v
	}
	pos := len(runMagic2)
	arity, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		bad("run-header", int64(pos), "truncated arity")
		v.tupleOK = false
		return v
	}
	v.arity = int(arity)
	dataStart := pos + n

	walkFrames := func(limit int) int {
		p := dataStart
		for p+8 <= limit {
			size := int(binary.LittleEndian.Uint32(data[p : p+4]))
			if p+8+size > limit {
				break
			}
			if crc32.ChecksumIEEE(data[p+8:p+8+size]) != binary.LittleEndian.Uint32(data[p+4:p+8]) {
				break
			}
			rows, detail := decodeFrame(dict, data[p:p+8+size], v.arity, legacy)
			if detail != "" {
				bad("run-block", int64(p), detail)
				v.tupleOK = false
				break
			}
			v.rows = append(v.rows, rows...)
			for _, t := range rows {
				v.hashes = append(v.hashes, t.Hash())
			}
			p += 8 + size
		}
		return p
	}

	if legacy {
		// Legacy runs are frames to EOF, nothing else.
		end := walkFrames(len(data))
		if v.tupleOK && end != len(data) {
			bad("run-block", int64(end), "truncated or corrupt block")
			v.tupleOK = false
		}
		return v
	}

	// Trailer and footer.
	var rf runFooter
	footerOK := false
	var footOff int64 = -1
	toff := int64(len(data) - runTrailerLen)
	if len(data) < dataStart+runTrailerLen || string(data[len(data)-len(runTrailerMagic):]) != runTrailerMagic {
		bad("run-trailer", max64(0, toff), "truncated or bad run trailer")
	} else {
		tr := data[toff:]
		fo := int64(binary.LittleEndian.Uint64(tr[0:8]))
		fl := int64(binary.LittleEndian.Uint32(tr[8:12]))
		sum := binary.LittleEndian.Uint32(tr[12:16])
		switch {
		case fo < int64(dataStart) || fo+fl+int64(runTrailerLen) != int64(len(data)):
			bad("run-trailer", toff, "bad run footer bounds")
		case crc32.ChecksumIEEE(data[fo:fo+fl]) != sum:
			bad("run-footer", fo, "run footer checksum mismatch")
		default:
			var artifact, detail string
			rf, artifact, detail = parseRunFooter(data[fo:fo+fl], int64(dataStart))
			if detail != "" {
				bad(artifact, fo, detail)
			} else {
				footerOK = true
				footOff = fo
			}
		}
	}

	if footerOK {
		for bi, bm := range rf.blocks {
			if bm.off < int64(dataStart) || bm.off+int64(bm.size) > int64(len(data)) {
				bad("run-block", bm.off, fmt.Sprintf("block %d out of bounds", bi))
				v.tupleOK = false
				continue
			}
			rows, detail := decodeFrame(dict, data[bm.off:bm.off+int64(bm.size)], v.arity, false)
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
		if v.tupleOK && int32(len(v.rows)) != rf.nrows {
			bad("run-footer", footOff, "footer row count does not match block contents")
		}
		hend := rf.hashOff + int64(rf.nrows)*8 + 4
		if rf.hashOff < int64(dataStart) || hend > int64(len(data)) {
			bad("run-footer", footOff, "hash section out of bounds")
		} else {
			hsec := data[rf.hashOff:hend]
			if crc32.ChecksumIEEE(hsec[:len(hsec)-4]) != binary.LittleEndian.Uint32(hsec[len(hsec)-4:]) {
				bad("run-hash-section", rf.hashOff, "hash section checksum mismatch")
			} else if v.tupleOK && int32(len(v.hashes)) == rf.nrows {
				for i, h := range v.hashes {
					if binary.LittleEndian.Uint64(hsec[i*8:]) != h {
						bad("run-hash-section", rf.hashOff+int64(i*8), "stored row hash does not match tuple data")
						break
					}
				}
			}
		}
		if v.tupleOK && rf.bloom != nil {
			for _, h := range v.hashes {
				if !rf.bloom.mayContain(h) {
					bad("run-bloom", footOff, "bloom filter misses a stored row hash")
					break
				}
			}
		}
		return v
	}

	// Footer unusable: recover blocks by frame-walking. The walk is
	// validated by requiring the recomputed hash section to appear
	// verbatim at the stop position — a frame boundary that drifted into
	// the hash section cannot satisfy both the frame CRCs and this check.
	end := walkFrames(len(data))
	if v.tupleOK {
		want := appendHashSection(nil, v.hashes)
		if end+len(want) > len(data) || !bytes.Equal(data[end:end+len(want)], want) {
			bad("run-block", int64(end), "cannot locate remaining blocks without the footer")
			v.tupleOK = false
		}
	}
	return v
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// rewriteRunFile rebuilds a run file in place from its surviving tuple
// data: blocks are re-encoded raw — no new dictionary entries can be
// staged — and the hash section, bloom filter, footer and trailer are
// regenerated. The sequence number is unchanged, so the manifest needs
// no rewrite.
func rewriteRunFile(fsys fsio.FS, path string, arity int, rows []term.Tuple, hashes []uint64) error {
	data, _, _ := encodeRun(nil, arity, rows, hashes, false)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return storage.IOFault("fsck", tmp, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return storage.IOFault("fsck", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return storage.IOFault("fsck", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return storage.IOFault("fsck", path, err)
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
	pos := len(internMagic)
	for pos < len(data) {
		rec, next, ok := parseInternRecord(data, pos, d.prev)
		if !ok {
			break
		}
		d.appendMem(rec.s, rec.h)
		pos = next
	}
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

// parseManifestImage decodes a manifest file image (either format) into
// a rewritable form, verifying the envelope CRC.
func parseManifestImage(data []byte) (*manifestImage, error) {
	mlen := len(manifestMagic2)
	if len(data) < mlen+8 {
		return nil, fmt.Errorf("truncated manifest")
	}
	v2 := false
	switch string(data[:mlen]) {
	case manifestMagic2:
		v2 = true
	case manifestMagic1:
	default:
		return nil, fmt.Errorf("bad manifest header")
	}
	plen := int(binary.LittleEndian.Uint32(data[mlen : mlen+4]))
	sum := binary.LittleEndian.Uint32(data[mlen+4 : mlen+8])
	rest := data[mlen+8:]
	if len(rest) < plen || crc32.ChecksumIEEE(rest[:plen]) != sum {
		return nil, fmt.Errorf("manifest checksum mismatch")
	}
	rd := newByteScanner(bytes.NewReader(rest[:plen]))
	img := &manifestImage{}
	var err error
	if img.runSeq, err = binary.ReadUvarint(rd); err != nil {
		return nil, fmt.Errorf("manifest payload: %w", err)
	}
	nrels, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, fmt.Errorf("manifest payload: %w", err)
	}
	for i := uint64(0); i < nrels; i++ {
		var mr manifestRel
		name, err := term.ReadValue(rd.buf)
		if err != nil {
			return nil, fmt.Errorf("manifest payload: %w", err)
		}
		mr.name = name
		arity, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, fmt.Errorf("manifest payload: %w", err)
		}
		mr.arity = int(arity)
		mr.dist = storage.NewDistinctTracker(mr.arity)
		if v2 {
			if err := mr.dist.ReadDigest(rd.buf); err != nil {
				return nil, fmt.Errorf("manifest digest: %w", err)
			}
		}
		nruns, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, fmt.Errorf("manifest payload: %w", err)
		}
		for j := uint64(0); j < nruns; j++ {
			seq, err := binary.ReadUvarint(rd)
			if err != nil {
				return nil, fmt.Errorf("manifest payload: %w", err)
			}
			mr.runs = append(mr.runs, seq)
		}
		img.rels = append(img.rels, mr)
	}
	return img, nil
}

// writeManifestImage writes img atomically in the current (MAN2) format,
// mirroring Store.writeManifest's temp/fsync/rename protocol.
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
	buf.WriteString(manifestMagic2)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf.Write(hdr[:])
	buf.Write(payload)

	path := filepath.Join(dir, manifestName)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return storage.IOFault("manifest", tmp, err)
	}
	_, err = f.Write(buf.Bytes())
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return storage.IOFault("manifest", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return storage.IOFault("manifest", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		_ = fsys.Remove(tmp)
		return storage.IOFault("manifest", path, err)
	}
	return storage.IOFault("manifest", dir, fsys.SyncDir(dir))
}
