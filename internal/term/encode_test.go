package term

import (
	"bufio"
	"bytes"
	"testing"
	"testing/quick"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []Value{
		NewInt(0), NewInt(-1), NewInt(1 << 40),
		NewFloat(0), NewFloat(-2.75),
		NewString(""), NewString("hello"), NewString("with 'quote'"),
		Atom("f"),
		Atom("f", NewInt(1), NewString("x")),
		NewCompound(Atom("students", NewString("cs99")), NewString("wilson")),
	}
	for _, v := range vals {
		var buf bytes.Buffer
		if err := WriteValue(&buf, v); err != nil {
			t.Fatalf("WriteValue(%v): %v", v, err)
		}
		got, err := ReadValue(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("ReadValue(%v): %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip: got %v, want %v", got, v)
		}
	}
}

func TestTupleRoundTrip(t *testing.T) {
	tuples := []Tuple{
		{},
		{NewInt(1)},
		{NewInt(1), NewString("a"), NewFloat(0.5)},
	}
	var buf bytes.Buffer
	for _, tp := range tuples {
		if err := WriteTuple(&buf, tp); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, want := range tuples {
		got, err := ReadTuple(r)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

func TestKeyCanonical(t *testing.T) {
	a := Atom("f", NewInt(1))
	b := Atom("f", NewInt(1))
	if Key(a) != Key(b) {
		t.Error("equal values must have equal keys")
	}
	if Key(NewInt(1)) == Key(NewFloat(1)) {
		t.Error("int and float keys must differ")
	}
	if Key(NewString("f")) == Key(Atom("f")) {
		t.Error("atom and 0-ary compound keys must differ")
	}
}

func TestReadValueErrors(t *testing.T) {
	bad := [][]byte{
		{},                                  // empty
		{99},                                // bad tag
		{tagStr, 5, 'a'},                    // truncated string
		{tagFloat, 1, 2},                    // truncated float
		{tagCompound, tagInt, 2, 1, tagInt}, // truncated compound arg... may vary
		// Corrupt counts far beyond the input: must fail at end of input,
		// not allocate what they claim.
		{tagStr, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 'a'},
		{tagStr, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		{tagCompound, tagInt, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, tagInt, 2},
	}
	for _, b := range bad {
		if _, err := ReadValue(bufio.NewReader(bytes.NewReader(b))); err == nil {
			t.Errorf("ReadValue(%v) should fail", b)
		}
	}
}

func TestAppendValuePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic encoding invalid value")
		}
	}()
	AppendValue(nil, Value{})
}

func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(v Value) bool {
		var buf bytes.Buffer
		if err := WriteValue(&buf, v); err != nil {
			return false
		}
		got, err := ReadValue(bufio.NewReader(&buf))
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyInjective(t *testing.T) {
	// Property: Key(a)==Key(b) iff a.Equal(b).
	f := func(a, b Value) bool {
		return (Key(a) == Key(b)) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
