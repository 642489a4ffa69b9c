package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"

	"gluenail/internal/term"
)

// sealRecords recomputes the CRC of every record of a log image, past the
// header, whose length field fits the image: fuzzed bytes then reach
// decodeOp instead of dying at the checksum.
func sealRecords(data []byte) {
	off := len(walMagic)
	for len(data)-off >= 9 {
		plen := binary.LittleEndian.Uint32(data[off+1:])
		if uint64(plen) > uint64(len(data)-off-9) {
			return
		}
		end := off + 9 + int(plen)
		crc := crc32.NewIEEE()
		crc.Write(data[off : off+1])
		crc.Write(data[off+9 : end])
		binary.LittleEndian.PutUint32(data[off+5:], crc.Sum32())
		off = end
	}
}

// replayAll replays data, collecting every applied op.
func replayAll(data []byte) (ops []Op, valid int, err error) {
	valid, err = replay(data, func(op Op) error {
		ops = append(ops, op)
		return nil
	})
	return ops, valid, err
}

// renderOps renders ops for comparison.
func renderOps(ops []Op) string {
	s := ""
	for _, op := range ops {
		s += fmt.Sprintf("%d %v/%d %v;", op.Kind, op.Name, op.Arity, op.Tuples)
	}
	return s
}

// FuzzReplay throws arbitrary records behind a valid header at replay —
// decodeRecord and decodeOp, the parsers crash recovery runs over every
// byte of the log. The contract: replay stops with a typed error (a log
// that is not ours) or returns a valid prefix — one that replays to the
// same ops on its own and whose ops are well-formed and apply to a store
// without panicking — and allocates no more than a small multiple of the
// input, never a size taken from an unverified count.
func FuzzReplay(f *testing.F) {
	batch := func(ops ...Op) []byte {
		var b []byte
		for _, op := range ops {
			b = appendOp(b, op)
		}
		return appendRecord(b, opCommit, nil)
	}
	edge := name("edge")
	f.Add(batch(Op{Kind: OpInsert, Name: edge, Arity: 2, Tuples: []term.Tuple{tup(1, 2), tup(2, 3)}}))
	f.Add(batch(
		Op{Kind: OpDelete, Name: edge, Arity: 2, Tuples: []term.Tuple{tup(1, 2)}},
		Op{Kind: OpClear, Name: term.Atom("team", term.Intern("d1")), Arity: 1}))
	torn := batch(Op{Kind: OpInsert, Name: edge, Arity: 2, Tuples: []term.Tuple{tup(5, 6)}})
	f.Add(append(batch(Op{Kind: OpCreate, Name: name("node"), Arity: 1}), torn[:len(torn)-4]...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, records []byte) {
		// The raw bytes as a whole file: a typed refusal or a prefix.
		if _, valid, err := replayAll(records); err != nil && !errors.Is(err, errNotWAL) {
			t.Fatalf("raw replay: untyped error %v", err)
		} else if valid > len(records) {
			t.Fatalf("raw replay accepted %d of %d bytes", valid, len(records))
		}

		data := append(append([]byte(nil), walMagic...), records...)
		sealRecords(data)
		var ops []Op
		var valid int
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ops, valid, err = replayAll(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+128*len(data)); got > limit {
			t.Fatalf("allocated %d bytes replaying %d bytes (limit %d)", got, len(data), limit)
		}
		if err != nil {
			t.Fatalf("replay behind a valid header failed: %v", err)
		}
		if valid < len(walMagic) || valid > len(data) {
			t.Fatalf("valid prefix %d outside [%d, %d]", valid, len(walMagic), len(data))
		}
		for _, op := range ops {
			if op.Kind < OpInsert || op.Kind > OpClear || op.Arity > 255 {
				t.Fatalf("replayed malformed op %+v", op)
			}
			for _, tu := range op.Tuples {
				if len(tu) != op.Arity {
					t.Fatalf("replayed a %d-tuple into a relation of arity %d", len(tu), op.Arity)
				}
			}
		}
		again, validAgain, err := replayAll(data[:valid])
		if err != nil || validAgain != valid || renderOps(again) != renderOps(ops) {
			t.Fatalf("prefix %d replays to %d (err %v) with different ops", valid, validAgain, err)
		}
		st := newStore()
		for _, op := range ops {
			if err := apply(st, op); err != nil {
				t.Fatalf("applying %+v: %v", op, err)
			}
		}
	})
}
