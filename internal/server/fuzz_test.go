package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameBoundedAllocation: a header announcing a maximal frame,
// followed by a few payload bytes and EOF, fails as a short frame without
// allocating the announced size — a header alone must not pin MaxFrame
// bytes per session.
func TestReadFrameBoundedAllocation(t *testing.T) {
	stream := binary.BigEndian.AppendUint32(nil, MaxFrame)
	stream = append(stream, make([]byte, 10)...)
	var err error
	got := allocatedBy(func() {
		var v any
		err = ReadFrame(bytes.NewReader(stream), &v)
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got >= 1<<20 {
		t.Fatalf("a 10-byte payload under a %d-byte header allocated %d bytes", MaxFrame, got)
	}
}

// TestReadFrameLarge: frames past the eager-allocation chunk still round
// trip byte-exactly through the growing buffer.
func TestReadFrameLarge(t *testing.T) {
	for _, n := range []int{frameChunk - 64, frameChunk + 1, 5*frameChunk + 7} {
		req := &Request{Op: "load", ID: 1, Src: strings.Repeat("x", n)}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, req); err != nil {
			t.Fatal(err)
		}
		var got Request
		if err := ReadFrame(&buf, &got); err != nil {
			t.Fatalf("%d-byte source: %v", n, err)
		}
		if got.Src != req.Src {
			t.Fatalf("%d-byte source came back as %d bytes", n, len(got.Src))
		}
	}
}

// typedFrameError reports whether err is one of the failures ReadFrame
// documents for bad input: a short stream, an oversized or malformed
// frame, or a JSON payload that does not decode into a Request.
func typedFrameError(err error) bool {
	var me *malformedError
	var se *json.SyntaxError
	var ue *json.UnmarshalTypeError
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.As(err, &me) || errors.As(err, &se) || errors.As(err, &ue)
}

// FuzzReadFrame feeds arbitrary byte streams to ReadFrame and whatever
// Request it yields to DecodeRows and DecodeValue — the path every byte a
// peer sends takes. The contract: a typed error or a clean decode, no
// panic, and no allocation sized from the length header rather than from
// bytes that arrived. A clean decode must re-encode to the same values.
func FuzzReadFrame(f *testing.F) {
	for _, req := range []*Request{
		{Op: "hello", ID: 1},
		{Op: "assert", ID: 7, Rel: &WireValue{K: "s", S: "edge"},
			Rows: [][]WireValue{{{K: "i", I: 1}, {K: "f", F: "NaN"}}}},
		{Op: "relation", ID: 9, Arity: 2, Rel: &WireValue{K: "c",
			Fn: &WireValue{K: "s", S: "students"}, Args: []WireValue{{K: "s", S: "cs99"}}}},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(append(binary.BigEndian.AppendUint32(nil, MaxFrame), make([]byte, 10)...))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Add([]byte{0, 0, 0, 2, '{'})

	f.Fuzz(func(t *testing.T, stream []byte) {
		var req Request
		var err error
		if got, limit := allocatedBy(func() {
			err = ReadFrame(bytes.NewReader(stream), &req)
		}), uint64(2*frameChunk+4096*len(stream)); got > limit {
			t.Fatalf("allocated %d bytes reading a %d-byte stream (limit %d)", got, len(stream), limit)
		}
		if err != nil {
			if !typedFrameError(err) {
				t.Fatalf("untyped ReadFrame error %T: %v", err, err)
			}
			return
		}
		if _, err := DecodeRows(req.Rows); err != nil && !errors.As(err, new(*malformedError)) {
			t.Fatalf("untyped DecodeRows error %T: %v", err, err)
		}
		vals := append([][]WireValue(nil), req.Rows...)
		if req.Rel != nil {
			vals = append(vals, []WireValue{*req.Rel})
		}
		for _, row := range vals {
			for _, w := range row {
				checkWireValue(t, w)
			}
		}
	})
}

// checkWireValue decodes one wire value: a malformed one must fail typed,
// a valid one must survive an encode/decode round trip unchanged.
func checkWireValue(t *testing.T, w WireValue) {
	t.Helper()
	v, err := DecodeValue(w)
	if err != nil {
		if !errors.As(err, new(*malformedError)) {
			t.Fatalf("untyped DecodeValue error %T: %v", err, err)
		}
		return
	}
	again, err := DecodeValue(EncodeValue(v))
	if err != nil {
		t.Fatalf("re-encoded %v no longer decodes: %v", v, err)
	}
	if again.String() != v.String() || again.Kind() != v.Kind() {
		t.Fatalf("round trip changed %v (%v) into %v (%v)", v, v.Kind(), again, again.Kind())
	}
}
