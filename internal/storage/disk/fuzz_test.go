package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gluenail/internal/storage"
	"gluenail/internal/term"
)

// FuzzDecodeBlockPayload throws arbitrary bytes at the RUN2 block
// decoders — whole-block and single-row, the first parsers any stored
// tuple byte passes through. The contract under fuzzing: never panic,
// never loop, never size an allocation from a count in the input; either
// an error or rows of the requested arity, and the single-row decoder
// agrees with the whole-block one wherever that succeeds. CRC framing
// normally screens the input, but the decoders must hold on their own (a
// block can be corrupted in memory after the CRC check, and fsck feeds
// the whole-block one frame-walk guesses).
func FuzzDecodeBlockPayload(f *testing.F) {
	dict := &atomDict{ids: make(map[string]uint32)}
	dict.publish()
	rows := []term.Tuple{
		{term.NewInt(1), term.Intern("a")},
		{term.NewInt(2), term.Intern("b")},
	}
	for _, row := range rows {
		dict.idFor(row[1])
	}
	f.Add(encodeBlockPayload(dict, rows, true), 2)
	f.Add(encodeBlockPayload(dict, rows, false), 2)
	f.Add([]byte{blockEncPacked, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 1)
	f.Add([]byte{}, 0)
	// A raw block whose first string claims ~13 GiB.
	f.Add([]byte{blockEncRaw, 48, 3, 0xe8, 0xa3, 0xa3, 0xa3, 0xa3, 0x30}, 6)

	f.Fuzz(func(t *testing.T, payload []byte, arity int) {
		if arity < 0 || arity > 8 {
			arity = (arity%8 + 8) % 8
		}
		out, err := decodeBlockPayload(dict, payload, arity)
		for _, row := range out {
			if len(row) != arity {
				t.Fatalf("decoded row of arity %d, asked for %d", len(row), arity)
			}
		}
		for _, i := range []int{0, 1, len(out) / 2, len(out) - 1, len(out), rowsPerBlock - 1, rowsPerBlock} {
			if i < 0 {
				continue
			}
			row, rerr := decodeRowAt(dict, payload, arity, i)
			if err != nil {
				// Damage after row i may leave it decodable; all that is
				// asked is a clean outcome.
				if rerr == nil && len(row) != arity {
					t.Fatalf("row %d of arity %d, asked for %d", i, len(row), arity)
				}
				continue
			}
			if (rerr == nil) != (i < len(out)) {
				t.Fatalf("block of %d rows: decodeRowAt(%d) returned %v", len(out), i, rerr)
			}
			for j := range row {
				if !sameValue(row[j], out[i][j]) {
					t.Fatalf("row %d col %d: single-row decode %v, block decode %v", i, j, row[j], out[i][j])
				}
			}
		}
	})
}

// compoundChain returns a packed one-row block of size bytes holding a
// chain of nested compounds, each claiming as many arguments as there are
// bytes left: the most any level can claim and pass the decoder's check.
// Zero padding ends the chain on a bad tag.
func compoundChain(size int) []byte {
	payload := []byte{blockEncPacked, 1}
	for len(payload) < size-8 {
		payload = append(payload, pvCompound, pvInt, 0)
		rest := uint64(size - len(payload))
		nargs := rest - uint64(len(binary.AppendUvarint(nil, rest)))
		payload = binary.AppendUvarint(payload, nargs)
	}
	return append(payload, make([]byte, size-len(payload))...)
}

// TestNestedCompoundChainAllocs: a compound's argument count sizes no
// allocation before its arguments arrive, so a 16 KiB chain of nested
// compounds fails to decode without allocating per claimed argument at
// every level (quadratic in the depth: 1.7 GiB when each level pre-sized
// its arguments from the count).
func TestNestedCompoundChainAllocs(t *testing.T) {
	dict := &atomDict{ids: make(map[string]uint32)}
	dict.publish()
	payload := compoundChain(16 << 10)
	var errBlock, errRow error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, errBlock = decodeBlockPayload(dict, payload, 1)
	_, errRow = decodeRowAt(dict, payload, 1, 0)
	runtime.ReadMemStats(&after)
	if errBlock == nil || errRow == nil {
		t.Fatalf("truncated chain decoded: block err %v, row err %v", errBlock, errRow)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("decoding a %d-byte chain allocated %d bytes", len(payload), got)
	}
}

// The metadata decoders below read bytes a checksum has already accepted,
// so each target recomputes that checksum over the fuzzed bytes: the input
// then reaches the parser proper instead of dying at the CRC. Each target
// asserts three things — a typed error or a clean decode, no panic, and
// no allocation sized from input the parser has not seen. Seeds come from
// a buildGolden store; testdata/fuzz holds inputs that broke the parsers
// before these targets existed (overflowing intern lengths that panicked,
// manifest and footer counts that sized allocations).

// allocBound fails t when fn allocates more than a fixed allowance plus a
// fixed multiple of the n input bytes: a size taken from an unverified
// count rather than from bytes that arrived. The allowance covers the
// term codec's capped eager reads (1 MiB strings).
func allocBound(t *testing.T, n int, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+4096*n); got > limit {
		t.Fatalf("allocated %d bytes decoding %d input bytes (limit %d)", got, n, limit)
	}
}

// goldenFile returns the bytes of the first file of a buildGolden store
// matching pattern.
func goldenFile(f *testing.F, pattern string) []byte {
	dir := f.TempDir()
	buildGolden(f, dir, 8)
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(paths) == 0 {
		f.Fatalf("golden store has no %s (%v)", pattern, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// sealManifest frames payload as a manifest file: magic, length, CRC.
func sealManifest(magic string, payload []byte) []byte {
	out := append([]byte(magic), 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[len(magic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[len(magic)+4:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// FuzzManifestImage fuzzes the manifest payload behind a valid envelope.
func FuzzManifestImage(f *testing.F) {
	f.Add(goldenFile(f, manifestName)[len(manifestMagic)+8:])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var img *manifestImage
		var err error
		allocBound(t, len(payload), func() {
			img, err = parseManifestImage(manifestName, sealManifest(manifestMagic, payload))
		})
		if err != nil {
			var ce *storage.CorruptError
			if !errors.As(err, &ce) || ce.Artifact != "manifest" {
				t.Fatalf("untyped manifest error: %v", err)
			}
			return
		}
		for _, r := range img.rels {
			if r.arity > len(payload) || len(r.runs) > len(payload) {
				t.Fatalf("relation %v claims arity %d and %d runs from %d bytes", r.name, r.arity, len(r.runs), len(payload))
			}
		}
	})
}

// FuzzRunFooter fuzzes a run file's footer — and, through skew, the
// trailer's footer bounds — behind a recomputed footer CRC: the trailer,
// parseRunFooter, and readBloom.
func FuzzRunFooter(f *testing.F) {
	data := goldenFile(f, "run-*.grn")
	rt, err := readRunTail(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data[rt.footOff:len(data)-runTrailerLen], uint32(rt.footOff-rt.dataStart), int8(0))
	// A two-block run, so the seeds cover the full-block rule too.
	rows := make([]term.Tuple, rowsPerBlock+3)
	hashes := make([]uint64, len(rows))
	for i := range rows {
		rows[i] = strRow(i)
		hashes[i] = rows[i].Hash()
	}
	data, _, _ = encodeRun(nil, 2, rows, hashes, false)
	if rt, err = readRunTail(bytes.NewReader(data), int64(len(data))); err != nil {
		f.Fatal(err)
	}
	f.Add(data[rt.footOff:len(data)-runTrailerLen], uint32(rt.footOff-rt.dataStart), int8(0))
	f.Add([]byte{0, 0, 0, 64, 6}, uint32(4), int8(-3))
	f.Fuzz(func(t *testing.T, foot []byte, body uint32, skew int8) {
		body %= 1 << 16
		img := binary.AppendUvarint([]byte(runMagic2), 2)
		dataStart := len(img)
		img = append(img, make([]byte, body)...)
		footOff := len(img)
		img = append(img, foot...)
		var tr [runTrailerLen]byte
		binary.LittleEndian.PutUint64(tr[0:8], uint64(int64(footOff)+int64(skew)))
		binary.LittleEndian.PutUint32(tr[8:12], uint32(len(foot)))
		binary.LittleEndian.PutUint32(tr[12:16], crc32.ChecksumIEEE(foot))
		copy(tr[16:], runTrailerMagic)
		img = append(img, tr[:]...)

		var got runTail
		allocBound(t, len(img), func() {
			got, err = readRunTail(bytes.NewReader(img), int64(len(img)))
		})
		if err != nil {
			var ce *storage.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped run tail error: %v", err)
			}
			return
		}
		off, rows := int64(dataStart), int32(0)
		for i, bm := range got.blocks {
			if bm.off != off || bm.size <= 8 || bm.nrows <= 0 || bm.nrows > rowsPerBlock {
				t.Fatalf("block %d accepted with bad metadata %+v", i, bm)
			}
			off += int64(bm.size)
			rows += bm.nrows
		}
		if rows != got.nrows || got.hashOff != off || got.footOff-got.hashOff != 8*int64(got.nrows)+4 {
			t.Fatalf("footer accepted with an impossible layout: %+v", got)
		}
	})
}

// sealInternRecords recomputes the CRC of every record in an intern file
// image whose length fields fit the image.
func sealInternRecords(data []byte) {
	pos := len(internMagic)
	for pos < len(data) {
		_, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return
		}
		sfx, n2 := binary.Uvarint(data[pos+n:])
		p := pos + n + n2
		if n2 <= 0 || uint64(len(data)-p) < 12 || sfx > uint64(len(data)-p-12) {
			return
		}
		end := p + int(sfx) + 8
		binary.LittleEndian.PutUint32(data[end:], crc32.ChecksumIEEE(data[pos:end]))
		pos = end + 4
	}
}

// FuzzInternRecords fuzzes the intern table's record walk, the parser
// every store open and fsck runs over INTERN.gri.
func FuzzInternRecords(f *testing.F) {
	f.Add(goldenFile(f, internFileName)[len(internMagic):])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, records []byte) {
		data := append([]byte(internMagic), records...)
		sealInternRecords(data)
		var end int
		var prev string
		allocBound(t, len(data), func() {
			end, prev = walkInternRecords(data, func(rec internRecord) {
				if len(rec.s) > len(data) {
					t.Fatalf("record of %d bytes from a %d-byte file", len(rec.s), len(data))
				}
			})
		})
		if end < len(internMagic) || end > len(data) {
			t.Fatalf("walk stopped at %d of %d", end, len(data))
		}
		if end < len(data) {
			internTailTorn(data, end, prev)
		}
	})
}
