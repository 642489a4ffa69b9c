package gluenail

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Head-path tests. A head applies its rows through the target relation's
// own duplicate elimination: a repeated insert or delete changes nothing
// and the first occurrence keeps its place, and "+=[key]" skips the rows
// it has already applied. Each case runs a statement whose body yields
// every row three times next to its twin, whose body yields the same rows
// once, on the mem and disk backends with a write-ahead log: the two must
// leave the same relation, in the same insertion order, and the same log
// bytes.

const headProg = `
edb src(K, V), fan(K, I), one(K), side(K, N), p(K, V);
proc self_dup(:)
  p(K, V) := p(K, V) & fan(K, _).
end
proc self_twin(:)
  p(K, V) := p(K, V) & one(K).
end
proc modify_dup(:)
  p(K, W) +=[K] src(K, V) & fan(K, _) & W = V * 10.
end
proc modify_twin(:)
  p(K, W) +=[K] src(K, V) & one(K) & W = V * 10.
end
proc hilog_dup(:)
  t(N)(K, V) := src(K, V) & fan(K, _) & side(K, N).
end
proc hilog_twin(:)
  t(N)(K, V) := src(K, V) & one(K) & side(K, N).
end
proc delete_dup(:)
  p(K, V) -= src(K, V) & fan(K, _).
end
proc delete_twin(:)
  p(K, V) -= src(K, V) & one(K).
end
proc empty(:)
  p(K, V) := src(K, V) & K > 100.
end
`

var headBackends = []string{"mem", "disk"}

// runHead opens a durable system on the backend under dir, asserts the
// facts in key order, and calls proc once. It returns the stored rows of
// the relations proc writes, in insertion order, and the bytes of the
// write-ahead log.
func runHead(t *testing.T, backend, dir, proc string) (string, []byte) {
	t.Helper()
	sys, err := Open(dir, WithBackend(backend), WithFsync(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Load(headProg); err != nil {
		t.Fatal(err)
	}
	var src, fan, one, side, p [][]any
	for k := 0; k < 10; k++ {
		src = append(src, []any{k, k})
		p = append(p, []any{k, k})
		side = append(side, []any{k, []string{"a", "b"}[k%2]})
	}
	for _, k := range []int{0, 2, 3, 5, 8} {
		one = append(one, []any{k})
		for i := 0; i < 3; i++ {
			fan = append(fan, []any{k, i})
		}
	}
	for _, f := range []struct {
		rel  string
		rows [][]any
	}{{"src", src}, {"fan", fan}, {"one", one}, {"side", side}, {"p", p}} {
		if err := sys.Assert(f.rel, f.rows...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Call("main", proc); err != nil {
		t.Fatal(err)
	}
	targets := []Value{Str("p")}
	if strings.HasPrefix(proc, "hilog") {
		targets = []Value{Compound("t", Str("a")), Compound("t", Str("b"))}
	}
	var stored []string
	for _, name := range targets {
		rel, ok := sys.edb.Get(name, 2)
		if !ok {
			t.Fatalf("no relation %v", name)
		}
		stored = append(stored, fmt.Sprint(name, ": ", rel.All()))
	}
	return strings.Join(stored, "; "), walBytes(t, dir)
}

// walBytes concatenates the write-ahead log segments under dir.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	var out []byte
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".gnw" {
			return err
		}
		b, err := os.ReadFile(path)
		out = append(out, b...)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no write-ahead log bytes under", dir)
	}
	return out
}

// checkHeadTwins runs case_dup and case_twin on every backend and
// requires identical stored rows and log bytes, and the rows to be want.
func checkHeadTwins(t *testing.T, name, want string) {
	for _, backend := range headBackends {
		t.Run(backend, func(t *testing.T) {
			dupRows, dupWAL := runHead(t, backend, t.TempDir(), name+"_dup")
			twinRows, twinWAL := runHead(t, backend, t.TempDir(), name+"_twin")
			if dupRows != twinRows {
				t.Errorf("repeated body rows stored %s, once each %s", dupRows, twinRows)
			}
			if dupRows != want {
				t.Errorf("rows = %s, want %s", dupRows, want)
			}
			if !bytes.Equal(dupWAL, twinWAL) {
				t.Errorf("repeated body rows logged %d bytes, once each %d: the journals differ",
					len(dupWAL), len(twinWAL))
			}
		})
	}
}

// TestHeadSelfReferenceAssign: p := p & ..., where the body reads the
// target that the head's Clear may reuse in place.
func TestHeadSelfReferenceAssign(t *testing.T) {
	checkHeadTwins(t, "self", "p: [(0,0) (2,2) (3,3) (5,5) (8,8)]")
}

// TestHeadModifyByKeyDuplicates: +=[key] replaces a key's row, moving it
// to the end even when it is unchanged, as (0, 0) is; a repeated row must
// not delete and re-insert its first copy again.
func TestHeadModifyByKeyDuplicates(t *testing.T) {
	checkHeadTwins(t, "modify",
		"p: [(1,1) (4,4) (6,6) (7,7) (9,9) (0,0) (2,20) (3,30) (5,50) (8,80)]")
}

// TestHeadHiLogDuplicatesTwoTargets: a computed head name whose repeated
// rows address two relations, each cleared at its first row.
func TestHeadHiLogDuplicatesTwoTargets(t *testing.T) {
	checkHeadTwins(t, "hilog", "t(a): [(0,0) (2,2) (8,8)]; t(b): [(3,3) (5,5)]")
}

// TestHeadDeleteDuplicates: -= with every row repeated deletes each once.
func TestHeadDeleteDuplicates(t *testing.T) {
	checkHeadTwins(t, "delete", "p: [(1,1) (4,4) (6,6) (7,7) (9,9)]")
}

// TestHeadEmptyAssignClears: a := whose body yields no rows still clears
// its target, durably.
func TestHeadEmptyAssignClears(t *testing.T) {
	for _, backend := range headBackends {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			if rows, _ := runHead(t, backend, dir, "empty"); rows != "p: []" {
				t.Fatalf("rows = %s, want p: []", rows)
			}
			re, err := Open(dir, WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if p, err := re.Relation("p", 2); err != nil || len(p) != 0 {
				t.Errorf("recovered p = %v (%v), want empty", p, err)
			}
		})
	}
}
