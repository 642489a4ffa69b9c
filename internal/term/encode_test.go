package term

import (
	"bufio"
	"bytes"
	"math"
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

// key is a value's canonical encoding as a string: the relation identity
// storage catalogs keep (see Value.Identical).
func key(v Value) string { return string(AppendValue(nil, v)) }

func TestKeyCanonical(t *testing.T) {
	a := Atom("f", NewInt(1))
	b := Atom("f", NewInt(1))
	if key(a) != key(b) {
		t.Error("equal values must have equal keys")
	}
	if key(NewInt(1)) == key(NewFloat(1)) {
		t.Error("int and float keys must differ")
	}
	if key(NewString("f")) == key(Atom("f")) {
		t.Error("atom and 0-ary compound keys must differ")
	}
}

// TestIdenticalIsEncodingEquality checks that Identical holds exactly when
// two values encode alike, over pairs Equal gets wrong for that purpose
// (NaN, signed zero), and that identical values hash alike.
func TestIdenticalIsEncodingEquality(t *testing.T) {
	nan := NewFloat(math.NaN())
	vals := []Value{
		NewInt(1), NewFloat(1), NewFloat(0), NewFloat(math.Copysign(0, -1)),
		nan, NewFloat(math.NaN()), Intern("p"), NewString("p"), Atom("p"),
		Atom("f", nan), Atom("f", NewFloat(math.NaN())), Atom("f", NewString("p")),
		NewCompound(NewString("f"), Intern("p")), NewCompound(Atom("g"), NewInt(1)),
	}
	for _, a := range vals {
		for _, b := range vals {
			want := key(a) == key(b)
			if got := a.Identical(b); got != want {
				t.Errorf("%v.Identical(%v) = %v, encodings equal = %v", a, b, got, want)
			}
			if want && a.Hash() != b.Hash() {
				t.Errorf("identical %v and %v hash differently", a, b)
			}
		}
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
	// Property: key(a)==key(b) iff a.Equal(b) iff a.Identical(b) (the
	// generated values hold no NaN or negative zero).
	f := func(a, b Value) bool {
		same := key(a) == key(b)
		return same == a.Equal(b) && same == a.Identical(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
