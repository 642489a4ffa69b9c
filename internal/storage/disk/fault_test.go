package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gluenail/internal/storage"
	"gluenail/internal/storage/fsio"
	"gluenail/internal/term"
)

// Fault-injection and corruption tests: every write fault must leave the
// store read-only degraded at a statement boundary, every flipped bit
// must surface as a typed ErrCorrupt naming the damaged artifact (never
// a wrong answer, never an untyped panic), and the scrubber must heal
// auxiliary damage and quarantine tuple damage.

// catchStorage runs fn, converting a typed storage panic (ErrDiskFault /
// ErrCorrupt) into an error exactly like the VM containment layer does.
// Any other panic propagates — an untyped escape is a test failure.
func catchStorage(fn func()) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		perr, ok := r.(error)
		if !ok || (!errors.Is(perr, storage.ErrDiskFault) && !errors.Is(perr, storage.ErrCorrupt)) {
			panic(r)
		}
		err = perr
	}()
	fn()
	return nil
}

// strRow builds an (int, string) tuple so flushed runs exercise the
// packed block encoding and the intern dictionary.
func strRow(i int) term.Tuple {
	return term.Tuple{term.NewInt(int64(i)), term.Intern(fmt.Sprintf("atom-%03d", i))}
}

// rowsKey renders a relation's full contents in scan order, for
// byte-identical comparisons across reopen/heal cycles.
func rowsKey(r storage.Rel) string {
	var sb strings.Builder
	r.Scan(func(t term.Tuple) bool {
		for _, v := range t {
			sb.WriteString(v.String())
			sb.WriteByte(',')
		}
		sb.WriteByte(';')
		return true
	})
	return sb.String()
}

// flipBit flips one bit of the byte at off in path, on disk.
func flipBit(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x04
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies the regular files of src into dst (the store layout is
// flat), giving each corruption case a pristine store image.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// buildGolden populates dir with a durable store: two manifest-named
// runs of string-bearing rows plus a memtable remainder flushed by
// FlushBase. Returns the full contents key.
func buildGolden(t testing.TB, dir string, n int) string {
	t.Helper()
	st := openTest(t, dir, Options{})
	rel := st.Ensure(term.Intern("edge"), 2)
	for i := 0; i < n; i++ {
		if !rel.Insert(strRow(i)) {
			t.Fatalf("insert %d rejected", i)
		}
	}
	if err := st.FlushBase(); err != nil {
		t.Fatal(err)
	}
	key := rowsKey(rel)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return key
}

// TestWriteFaultDegradesReadOnly injects an I/O error into the flush
// path and checks the fail-safe contract: the failing write surfaces as
// a typed ErrDiskFault, the store flips read-only, reads keep serving,
// and later writes are rejected without touching the device again.
func TestWriteFaultDegradesReadOnly(t *testing.T) {
	ffs := fsio.NewFaultFS(fsio.OS)
	st := openTest(t, t.TempDir(), Options{FS: ffs})
	defer st.Close()
	rel := st.Ensure(term.Intern("edge"), 2)
	for i := 0; i < 3; i++ {
		rel.Insert(strRow(i))
	}
	ffs.Inject(fsio.Fault{Op: fsio.OpCreate, Path: "run-", Err: syscall.ENOSPC})

	// The 4th insert crosses FlushRows and the run create fails.
	err := catchStorage(func() { rel.Insert(strRow(3)) })
	if !errors.Is(err, storage.ErrDiskFault) {
		t.Fatalf("faulted insert: got %v, want ErrDiskFault", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("fault cause lost: %v", err)
	}
	if st.Degraded() == nil {
		t.Fatal("store did not degrade after a write-path disk fault")
	}

	// Reads keep serving: the failed flush left the rows in the memtable.
	if got := rel.Len(); got != 4 {
		t.Fatalf("Len after degraded = %d, want 4", got)
	}
	var n int
	rel.Scan(func(term.Tuple) bool { n++; return true })
	if n != 4 {
		t.Fatalf("Scan after degraded saw %d rows, want 4", n)
	}
	if !rel.Contains(strRow(2)) {
		t.Fatal("Contains lost a row after degrading")
	}

	// Further writes fail typed via checkWritable, without another device
	// touch: the create counter must not move.
	creates := ffs.OpsSeen(fsio.OpCreate)
	for _, w := range []func(){
		func() { rel.Insert(strRow(9)) },
		func() { rel.Delete(strRow(0)) },
		func() { rel.Clear() },
	} {
		if err := catchStorage(w); !errors.Is(err, storage.ErrDiskFault) {
			t.Fatalf("degraded write: got %v, want ErrDiskFault", err)
		}
	}
	if got := ffs.OpsSeen(fsio.OpCreate); got != creates {
		t.Fatalf("degraded writes touched the device: %d creates, had %d", got, creates)
	}
	if ffs.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1", ffs.Trips())
	}
}

// TestManifestFaultKeepsPriorBoundary faults the manifest write of a
// second FlushBase and checks reopening on a healthy filesystem recovers
// exactly the previous durable statement boundary.
func TestManifestFaultKeepsPriorBoundary(t *testing.T) {
	dir := t.TempDir()
	golden := buildGolden(t, dir, 8)

	ffs := fsio.NewFaultFS(fsio.OS)
	st := openTest(t, dir, Options{FS: ffs})
	rel, ok := st.Get(term.Intern("edge"), 2)
	if !ok {
		t.Fatal("relation lost on reopen")
	}
	for i := 8; i < 12; i++ {
		catchStorage(func() { rel.Insert(strRow(i)) })
	}
	ffs.Inject(fsio.Fault{Op: fsio.OpRename, Path: "MANIFEST", Err: syscall.EIO})
	err := catchStorage(func() {
		if e := st.FlushBase(); e != nil {
			panic(e)
		}
	})
	if !errors.Is(err, storage.ErrDiskFault) {
		t.Fatalf("faulted FlushBase: got %v, want ErrDiskFault", err)
	}
	if st.Degraded() == nil {
		t.Fatal("store did not degrade after manifest fault")
	}
	_ = st.Close()

	st2 := openTest(t, dir, Options{})
	defer st2.Close()
	rel2, ok := st2.Get(term.Intern("edge"), 2)
	if !ok {
		t.Fatal("relation lost after recovery")
	}
	if got := rowsKey(rel2); got != golden {
		t.Fatalf("recovered contents differ from the durable boundary:\n got %q\nwant %q", got, golden)
	}
	// The epoch-2 runs are orphans and must have been swept.
	findings, err := FsckDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := storage.CountSerious(findings); n != 0 {
		t.Fatalf("fsck after recovery: %d serious findings: %v", n, findings)
	}
}

// TestFaultSweepEveryWriteSite injects a single EIO at every create,
// write, sync, and rename the full insert+FlushBase workload performs —
// including the ones during Open — and checks the contract at each site:
// the workload either completes or fails typed, and a clean reopen
// always lands on a consistent statement boundary (here: nothing durable
// or everything durable, since the workload has one FlushBase).
func TestFaultSweepEveryWriteSite(t *testing.T) {
	const rows = 10
	workload := func(st *Store) error {
		return catchStorage(func() {
			rel := st.Ensure(term.Intern("edge"), 2)
			for i := 0; i < rows; i++ {
				rel.Insert(strRow(i))
			}
			if err := st.FlushBase(); err != nil {
				panic(err)
			}
		})
	}

	// Calibration pass: count the ops a clean run performs.
	calib := fsio.NewFaultFS(fsio.OS)
	st := openTest(t, t.TempDir(), Options{FS: calib})
	if err := workload(st); err != nil {
		t.Fatal(err)
	}
	sweep := map[fsio.Op]int{
		fsio.OpCreate: calib.OpsSeen(fsio.OpCreate),
		fsio.OpWrite:  calib.OpsSeen(fsio.OpWrite),
		fsio.OpSync:   calib.OpsSeen(fsio.OpSync),
		fsio.OpRename: calib.OpsSeen(fsio.OpRename),
	}
	st.Close()

	for op, n := range sweep {
		if n == 0 {
			t.Fatalf("calibration saw no %v ops: the sweep is not covering the workload", op)
		}
		for after := 0; after < n; after++ {
			dir := t.TempDir()
			ffs := fsio.NewFaultFS(fsio.OS)
			ffs.Inject(fsio.Fault{Op: op, After: after, Count: 1, Err: syscall.EIO})
			st, err := Open(dir, Options{FS: ffs, FlushRows: 4, NoCompactor: true})
			if err != nil {
				if !errors.Is(err, storage.ErrDiskFault) {
					t.Fatalf("%v@%d: Open failed untyped: %v", op, after, err)
				}
			} else {
				if werr := workload(st); werr != nil && !errors.Is(werr, storage.ErrDiskFault) {
					t.Fatalf("%v@%d: workload failed untyped: %v", op, after, werr)
				}
				_ = st.Close()
			}

			// Clean reopen: the store must come back consistent.
			st2, err := Open(dir, Options{FlushRows: 4, NoCompactor: true})
			if err != nil {
				t.Fatalf("%v@%d: reopen after fault failed: %v", op, after, err)
			}
			got := 0
			if rel, ok := st2.Get(term.Intern("edge"), 2); ok {
				got = rel.Len()
			}
			if got != 0 && got != rows {
				t.Fatalf("%v@%d: reopened with %d rows; want 0 (pre-boundary) or %d (post)", op, after, got, rows)
			}
			findings, err := FsckDir(dir, false)
			if err != nil {
				t.Fatalf("%v@%d: fsck: %v", op, after, err)
			}
			if storage.CountSerious(findings) != 0 {
				t.Fatalf("%v@%d: fsck found damage after clean reopen: %v", op, after, findings)
			}
			_ = st2.Close()
		}
	}
}

// runLayout describes the byte regions of the first durable run file,
// recovered by parsing its trailer and resident metadata.
type runLayout struct {
	path       string
	block0Off  int64 // first frame's length prefix
	block0Size int64
	hashOff    int64
	footOff    int64
	trailerOff int64
	size       int64
}

// layoutOf opens the golden store read-only and maps the first run.
func layoutOf(t *testing.T, dir string) runLayout {
	t.Helper()
	st := openTest(t, dir, Options{})
	defer st.Close()
	rel, ok := st.Get(term.Intern("edge"), 2)
	if !ok {
		t.Fatal("golden relation missing")
	}
	runs := *rel.(*Rel).runs.Load()
	if len(runs) == 0 {
		t.Fatal("golden store has no runs")
	}
	rn := runs[0]
	fi, err := os.Stat(rn.path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(rn.path)
	if err != nil {
		t.Fatal(err)
	}
	trailerOff := fi.Size() - int64(runTrailerLen)
	footOff := int64(binary.LittleEndian.Uint64(data[trailerOff : trailerOff+8]))
	return runLayout{
		path:       rn.path,
		block0Off:  rn.blocks[0].off,
		block0Size: int64(rn.blocks[0].size),
		hashOff:    rn.hashOff,
		footOff:    footOff,
		trailerOff: trailerOff,
		size:       fi.Size(),
	}
}

// TestBitFlipMatrix flips one bit in every artifact offset class — run
// block payload, block frame header, hash section, footer, trailer,
// manifest record, intern record — and asserts each read or open fails
// with a typed ErrCorrupt naming the artifact. A silent wrong answer or
// an untyped panic fails the test.
func TestBitFlipMatrix(t *testing.T) {
	golden := t.TempDir()
	buildGolden(t, golden, 8)
	gl := layoutOf(t, golden)
	rel := filepath.Base(gl.path)

	cases := []struct {
		name     string
		file     string // base name of the file to damage
		off      int64
		artifact string
		openErr  bool // damage detected at Open rather than first read
		probe    func(t *testing.T, st *Store) error
	}{
		{
			name: "block-payload", file: rel, off: gl.block0Off + 8 + 3,
			artifact: "run-block",
			probe: func(t *testing.T, st *Store) error {
				r, _ := st.Get(term.Intern("edge"), 2)
				return catchStorage(func() { r.Scan(func(term.Tuple) bool { return true }) })
			},
		},
		{
			name: "block-frame-header", file: rel, off: gl.block0Off + 1,
			artifact: "block-header",
			probe: func(t *testing.T, st *Store) error {
				r, _ := st.Get(term.Intern("edge"), 2)
				return catchStorage(func() { r.Scan(func(term.Tuple) bool { return true }) })
			},
		},
		{
			// The same two flips, met by a point probe's single-row read.
			name: "block-payload-point", file: rel, off: gl.block0Off + 8 + 3,
			artifact: "run-block",
			probe: func(t *testing.T, st *Store) error {
				r, _ := st.Get(term.Intern("edge"), 2)
				return catchStorage(func() { r.Contains(strRow(1)) })
			},
		},
		{
			name: "block-frame-header-point", file: rel, off: gl.block0Off + 1,
			artifact: "block-header",
			probe: func(t *testing.T, st *Store) error {
				r, _ := st.Get(term.Intern("edge"), 2)
				return catchStorage(func() { r.Contains(strRow(1)) })
			},
		},
		{
			name: "hash-section", file: rel, off: gl.hashOff + 5,
			artifact: "run-hash-section",
			probe: func(t *testing.T, st *Store) error {
				r, _ := st.Get(term.Intern("edge"), 2)
				// Contains forces the lazy index load from hashOff.
				return catchStorage(func() { r.Contains(strRow(1)) })
			},
		},
		{
			name: "footer", file: rel, off: gl.footOff + 2,
			artifact: "run-footer", openErr: true,
		},
		{
			name: "trailer", file: rel, off: gl.trailerOff + 16, // magic bytes
			artifact: "run-trailer", openErr: true,
		},
		{
			name: "manifest-record", file: manifestName, off: 20,
			artifact: "manifest", openErr: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, golden, dir)
			flipBit(t, filepath.Join(dir, tc.file), tc.off)

			st, err := Open(dir, Options{FlushRows: 4, NoCompactor: true})
			if tc.openErr {
				if st != nil {
					st.Close()
				}
				requireCorrupt(t, err, tc.artifact)
				return
			}
			if err != nil {
				t.Fatalf("Open: %v (damage should surface on read, not open)", err)
			}
			defer st.Close()
			requireCorrupt(t, tc.probe(t, st), tc.artifact)
		})
	}

	// Intern record rot: the live open truncates the unrecoverable tail
	// (reads then fail typed on any block referencing a lost atom), so the
	// detection contract is checked through the offline verifier, which
	// must name the intern artifact without mutating anything.
	t.Run("intern-record", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, golden, dir)
		ip := filepath.Join(dir, internFileName)
		fi, err := os.Stat(ip)
		if err != nil {
			t.Fatal(err)
		}
		flipBit(t, ip, fi.Size()-6) // inside the final record's hash/CRC
		findings, err := FsckDir(dir, false)
		if err != nil {
			t.Fatal(err)
		}
		var hit bool
		for _, f := range findings {
			if f.Artifact == "intern" && !f.Benign {
				hit = true
			}
		}
		if !hit {
			t.Fatalf("intern rot not reported: %v", findings)
		}
	})
}

// requireCorrupt asserts err is a typed ErrCorrupt naming artifact.
func requireCorrupt(t *testing.T, err error, artifact string) {
	t.Helper()
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt(%s)", err, artifact)
	}
	var ce *storage.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("no CorruptError in chain: %v", err)
	}
	if ce.Artifact != artifact {
		t.Fatalf("artifact = %q, want %q (err: %v)", ce.Artifact, artifact, err)
	}
}

// requireFinding asserts FsckDir reports serious damage to artifact in dir.
func requireFinding(t *testing.T, dir, artifact string) {
	t.Helper()
	findings, err := FsckDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Artifact == artifact && !f.Benign {
			return
		}
	}
	t.Fatalf("fsck did not report %s damage: %v", artifact, findings)
}

// TestMalformedManifestRefused gives Open and FsckDir manifests whose
// envelope and checksum are intact but whose payload does not parse: each
// must fail typed, naming the manifest, and none may size an allocation
// from the counts it carries.
func TestMalformedManifestRefused(t *testing.T) {
	u := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	name := term.AppendValue(nil, term.Intern("edge"))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"no-relation-count", u(1)},
		{"bad-name-tag", cat(u(1, 1), []byte{0xff})},
		{"huge-name", cat(u(1, 1), []byte{3}, u(1<<40))},
		{"arity-past-payload", cat(u(1, 1), name, u(1<<40))},
		{"digest-arity-mismatch", cat(u(1, 1), name, u(2, 3))},
		{"bad-digest-mode", cat(u(1, 1), name, u(1, 1), []byte{7})},
		{"exact-count-over-limit", cat(u(1, 1), name, u(1, 1), []byte{0}, u(1<<30))},
		{"truncated-run-list", cat(u(1, 1), name, u(1, 1), []byte{0}, u(0, 1<<40))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, manifestName), sealManifest(manifestMagic, tc.payload), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir, Options{NoCompactor: true})
			if st != nil {
				st.Close()
			}
			requireCorrupt(t, err, "manifest")
			requireFinding(t, dir, "manifest")
		})
	}
}

// TestScrubDetectsEveryBitFlip is the exhaustive detection check: for a
// small run file, every single-bit flip at every byte offset must
// produce at least one verifier finding. This is the acceptance bar for
// the scrub subsystem — no undetectable single-bit rot anywhere in a
// run image.
func TestScrubDetectsEveryBitFlip(t *testing.T) {
	dir := t.TempDir()
	buildGolden(t, dir, 4) // one run: keeps the image small
	gl := layoutOf(t, dir)
	pristine, err := os.ReadFile(gl.path)
	if err != nil {
		t.Fatal(err)
	}
	dict := loadDictReadOnly(fsio.OS, dir)
	img := verifyRunBytes(dict, gl.path, "edge", 1, pristine)
	if len(img.findings) != 0 {
		t.Fatalf("pristine image has findings: %v", img.findings)
	}
	data := make([]byte, len(pristine))
	for off := 0; off < len(pristine); off++ {
		for bit := 0; bit < 8; bit++ {
			copy(data, pristine)
			data[off] ^= 1 << bit
			v := verifyRunBytes(dict, gl.path, "edge", 1, data)
			if len(v.findings) == 0 {
				t.Fatalf("flip of byte %d bit %d went undetected", off, bit)
			}
		}
	}
}

// TestScrubHealsAuxDamage damages the hash section (pure function of the
// surviving tuples) and checks a repairing scrub heals it in place: the
// finding is marked healed, the relation's contents are byte-identical,
// and a follow-up scrub is clean.
func TestScrubHealsAuxDamage(t *testing.T) {
	dir := t.TempDir()
	golden := buildGolden(t, dir, 8)
	gl := layoutOf(t, dir)
	flipBit(t, gl.path, gl.hashOff+2)

	st := openTest(t, dir, Options{})
	defer st.Close()
	findings := st.Scrub(true)
	var healed bool
	for _, f := range findings {
		if f.Healed {
			healed = true
		}
		if f.Quarantined {
			t.Fatalf("aux damage was quarantined instead of healed: %v", f)
		}
	}
	if !healed {
		t.Fatalf("no healed finding: %v", findings)
	}
	rel, _ := st.Get(term.Intern("edge"), 2)
	if got := rowsKey(rel); got != golden {
		t.Fatalf("healed contents differ:\n got %q\nwant %q", got, golden)
	}
	if again := st.Scrub(false); len(again) != 0 {
		t.Fatalf("scrub after heal still finds damage: %v", again)
	}
	// The repair must be durable: reopen and compare again.
	st2 := openTest(t, dir, Options{})
	defer st2.Close()
	rel2, _ := st2.Get(term.Intern("edge"), 2)
	if got := rowsKey(rel2); got != golden {
		t.Fatalf("healed contents lost on reopen:\n got %q\nwant %q", got, golden)
	}
}

// TestScrubQuarantinesTupleDamage damages tuple bytes (block payload) —
// which no repair may guess at — and checks the run is quarantined: the
// file is set aside under .quarantined, the relation serves the
// surviving rows, and the state survives reopen.
func TestScrubQuarantinesTupleDamage(t *testing.T) {
	dir := t.TempDir()
	buildGolden(t, dir, 8)
	gl := layoutOf(t, dir)
	flipBit(t, gl.path, gl.block0Off+8+2)

	st := openTest(t, dir, Options{})
	defer st.Close()
	findings := st.Scrub(true)
	var quarantined bool
	for _, f := range findings {
		if f.Quarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("tuple damage not quarantined: %v", findings)
	}
	if _, err := os.Stat(gl.path + ".quarantined"); err != nil {
		t.Fatalf("quarantined file not set aside: %v", err)
	}
	rel, _ := st.Get(term.Intern("edge"), 2)
	survivors := rowsKey(rel)
	if strings.Count(survivors, ";") == 0 || strings.Count(survivors, ";") >= 8 {
		t.Fatalf("unexpected survivor count in %q", survivors)
	}
	if err := catchStorage(func() { rel.Scan(func(term.Tuple) bool { return true }) }); err != nil {
		t.Fatalf("scan after quarantine failed: %v", err)
	}
	_ = st.Close()

	st2 := openTest(t, dir, Options{})
	defer st2.Close()
	rel2, ok := st2.Get(term.Intern("edge"), 2)
	if !ok {
		t.Fatal("relation lost after quarantine + reopen")
	}
	if got := rowsKey(rel2); got != survivors {
		t.Fatalf("quarantine not durable:\n got %q\nwant %q", got, survivors)
	}
}

// TestFsckRepairHeal exercises the offline path: fsck reports aux damage
// without repair, heals it with -repair, and the healed store serves
// byte-identical contents.
func TestFsckRepairHeal(t *testing.T) {
	dir := t.TempDir()
	golden := buildGolden(t, dir, 8)
	gl := layoutOf(t, dir)
	flipBit(t, gl.path, gl.hashOff+1)

	findings, err := FsckDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if storage.CountSerious(findings) == 0 {
		t.Fatalf("fsck missed the damage: %v", findings)
	}
	repaired, err := FsckDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	var healed bool
	for _, f := range repaired {
		if f.Healed {
			healed = true
		}
	}
	if !healed {
		t.Fatalf("fsck -repair did not heal: %v", repaired)
	}
	clean, err := FsckDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) != 0 {
		t.Fatalf("fsck after repair still reports: %v", clean)
	}
	st := openTest(t, dir, Options{})
	defer st.Close()
	rel, _ := st.Get(term.Intern("edge"), 2)
	if got := rowsKey(rel); got != golden {
		t.Fatalf("fsck-healed contents differ:\n got %q\nwant %q", got, golden)
	}
}

// TestFsckFooterLossRecovery destroys the trailer (so the footer index
// is unreachable) and checks fsck's frame-walk rebuilds it from the
// tuple data, restoring the full contents.
func TestFsckFooterLossRecovery(t *testing.T) {
	dir := t.TempDir()
	golden := buildGolden(t, dir, 8)
	gl := layoutOf(t, dir)
	flipBit(t, gl.path, gl.trailerOff+18) // trailer magic

	if _, err := Open(dir, Options{FlushRows: 4, NoCompactor: true}); err == nil {
		t.Fatal("open succeeded with a destroyed trailer")
	}
	repaired, err := FsckDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	var healed bool
	for _, f := range repaired {
		if f.Healed {
			healed = true
		}
	}
	if !healed {
		t.Fatalf("footer loss not healed by frame walk: %v", repaired)
	}
	st := openTest(t, dir, Options{})
	defer st.Close()
	rel, _ := st.Get(term.Intern("edge"), 2)
	if got := rowsKey(rel); got != golden {
		t.Fatalf("frame-walk recovery lost rows:\n got %q\nwant %q", got, golden)
	}
}

// TestFsckQuarantineTupleDamage checks the offline repair path sets
// tuple-damaged runs aside and rewrites the manifest so a normal open
// serves the survivors.
func TestFsckQuarantineTupleDamage(t *testing.T) {
	dir := t.TempDir()
	buildGolden(t, dir, 8)
	gl := layoutOf(t, dir)
	flipBit(t, gl.path, gl.block0Off+8+1)

	repaired, err := FsckDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	var quarantined bool
	for _, f := range repaired {
		if f.Quarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("fsck -repair did not quarantine: %v", repaired)
	}
	if _, err := os.Stat(gl.path + ".quarantined"); err != nil {
		t.Fatalf("quarantined file not set aside: %v", err)
	}
	st := openTest(t, dir, Options{})
	defer st.Close()
	rel, ok := st.Get(term.Intern("edge"), 2)
	if !ok {
		t.Fatal("relation lost after offline quarantine")
	}
	if err := catchStorage(func() { rel.Scan(func(term.Tuple) bool { return true }) }); err != nil {
		t.Fatalf("scan after offline quarantine: %v", err)
	}
	if rel.Len() >= 8 || rel.Len() == 0 {
		t.Fatalf("Len = %d after quarantining one run of 8 rows", rel.Len())
	}
}

// TestBackgroundScrubber is a liveness smoke: a store with a fast scrub
// interval keeps serving reads and shuts down cleanly while the
// background verifier walks its runs.
func TestBackgroundScrubber(t *testing.T) {
	dir := t.TempDir()
	golden := buildGolden(t, dir, 8)
	st, err := Open(dir, Options{FlushRows: 4, NoCompactor: true, ScrubInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := st.Get(term.Intern("edge"), 2)
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		if got := rowsKey(rel); got != golden {
			t.Fatalf("contents changed under the scrubber: %q", got)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepsTolerateFaults checks the hygiene sweeps degrade gracefully:
// a failing Remove or ReadDir is logged and skipped, never fatal to the
// open or the sweep, and a later healthy pass finishes the job.
func TestSweepsTolerateFaults(t *testing.T) {
	dir := t.TempDir()
	buildGolden(t, dir, 8)
	orphan := filepath.Join(dir, runName(99))
	if err := os.WriteFile(orphan, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stale.tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	ffs := fsio.NewFaultFS(fsio.OS)
	ffs.Inject(fsio.Fault{Op: fsio.OpRemove, Err: syscall.EIO})
	st, err := Open(dir, Options{FS: ffs, FlushRows: 4, NoCompactor: true})
	if err != nil {
		t.Fatalf("open with failing removes: %v", err)
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Fatal("orphan removed despite injected fault (or sweep crashed)")
	}
	_ = st.Close()

	st2 := openTest(t, dir, Options{})
	defer st2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("healthy sweep left the orphan behind")
	}
	if _, err := os.Stat(filepath.Join(dir, "stale.tmp")); !os.IsNotExist(err) {
		t.Fatal("healthy sweep left the temp file behind")
	}

	// Spill sweep: a failing ReadDir is reported, not fatal.
	spillParent := t.TempDir()
	ffs2 := fsio.NewFaultFS(fsio.OS)
	ffs2.Inject(fsio.Fault{Op: fsio.OpReadDir, Err: syscall.EIO, Count: 1})
	scratch, err := NewScratchFS(ffs2, spillParent, 4, storage.IndexPolicy(0), nil)
	if err != nil {
		t.Fatalf("scratch create with failing sweep: %v", err)
	}
	_ = scratch.Close()
}

// TestBulkLoadFaultDegrades checks the bulk-load path shares the
// fail-safe contract: a fault during its run writes surfaces typed and
// degrades the store.
func TestBulkLoadFaultDegrades(t *testing.T) {
	ffs := fsio.NewFaultFS(fsio.OS)
	st := openTest(t, t.TempDir(), Options{FS: ffs})
	defer st.Close()
	rows := make([]term.Tuple, 64)
	for i := range rows {
		rows[i] = strRow(i)
	}
	ffs.Inject(fsio.Fault{Op: fsio.OpWrite, Path: "run-", Err: syscall.ENOSPC})
	err := catchStorage(func() {
		if _, e := st.BulkLoad(term.Intern("bulk"), 2, rows); e != nil {
			panic(e)
		}
	})
	if !errors.Is(err, storage.ErrDiskFault) {
		t.Fatalf("bulk load fault: got %v, want ErrDiskFault", err)
	}
	if st.Degraded() == nil {
		t.Fatal("store not degraded after bulk-load fault")
	}
}
