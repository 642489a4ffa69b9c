package term

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary codec for values and tuples. Used for EDB persistence (§10: "storing
// EDB relations on disk between runs") and for canonical relation-name keys.

const (
	tagInt      = 1
	tagFloat    = 2
	tagStr      = 3
	tagCompound = 4
)

// EncodedSize returns the exact number of bytes AppendValue would append
// for every value of t, without writing them. Block encoders use it to
// decide whether a compressed rendering beat the raw codec before paying
// to materialize the raw bytes.
func (t Tuple) EncodedSize() int {
	n := 0
	for i := range t {
		n += valueSize(&t[i])
	}
	return n
}

func valueSize(v *Value) int {
	switch v.kind {
	case Int:
		return 1 + varintLen(int64(v.n))
	case Float:
		return 1 + 8
	case Str:
		return 1 + uvarintLen(v.n) + int(v.n)
	case Compound:
		c := v.comp()
		n := 1 + valueSize(&c.fn) + uvarintLen(uint64(len(c.args)))
		for i := range c.args {
			n += valueSize(&c.args[i])
		}
		return n
	default:
		panic("term: sizing invalid value")
	}
}

func uvarintLen(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

func varintLen(i int64) int {
	u := uint64(i) << 1
	if i < 0 {
		u = ^u
	}
	return uvarintLen(u)
}

// AppendValue appends a canonical binary encoding of v to dst. Equal values
// have equal encodings, so the encoding doubles as a map key.
func AppendValue(dst []byte, v Value) []byte {
	switch v.kind {
	case Int:
		dst = append(dst, tagInt)
		dst = binary.AppendVarint(dst, int64(v.n))
	case Float:
		dst = append(dst, tagFloat)
		dst = binary.BigEndian.AppendUint64(dst, v.n)
	case Str:
		dst = append(dst, tagStr)
		dst = binary.AppendUvarint(dst, v.n)
		dst = append(dst, v.str()...)
	case Compound:
		c := v.comp()
		dst = append(dst, tagCompound)
		dst = AppendValue(dst, c.fn)
		dst = binary.AppendUvarint(dst, uint64(len(c.args)))
		for i := range c.args {
			dst = AppendValue(dst, c.args[i])
		}
	default:
		panic("term: encoding invalid value")
	}
	return dst
}

// WriteValue writes the binary encoding of v to w.
func WriteValue(w io.Writer, v Value) error {
	_, err := w.Write(AppendValue(nil, v))
	return err
}

// A length or count read from the input sizes an allocation up front only
// up to these bounds; beyond them the decoder grows the result as the
// bytes actually arrive, so a corrupt prefix fails at end of input instead
// of allocating what it claims. Compound arguments get the smallest bound
// because compounds nest: every level of a chain of compounds, each
// claiming many arguments, pre-sizes its slice before the next level is
// read, so the per-level bound multiplies with the depth.
const (
	maxEagerBytes = 1 << 20
	maxEagerCount = 1 << 10
	maxEagerArgs  = 4
)

// readBytes reads exactly n bytes from r.
func readBytes(r *bufio.Reader, n uint64) ([]byte, error) {
	if n <= maxEagerBytes {
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("term: string length %d out of range", n)
	}
	var b bytes.Buffer
	if _, err := io.CopyN(&b, r, int64(n)); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// ReadValue decodes one value from r.
func ReadValue(r *bufio.Reader) (Value, error) {
	tag, err := r.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch tag {
	case tagInt:
		i, err := binary.ReadVarint(r)
		if err != nil {
			return Value{}, err
		}
		return NewInt(i), nil
	case tagFloat:
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return Value{}, err
		}
		return NewFloat(math.Float64frombits(binary.BigEndian.Uint64(buf[:]))), nil
	case tagStr:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return Value{}, err
		}
		buf, err := readBytes(r, n)
		if err != nil {
			return Value{}, err
		}
		// Intern decoded atoms: snapshot/WAL recovery and EDB loads feed
		// relations directly, so strings re-enter the hot paths carrying
		// their cached hash and interned identity.
		return Intern(string(buf)), nil
	case tagCompound:
		fn, err := ReadValue(r)
		if err != nil {
			return Value{}, err
		}
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return Value{}, err
		}
		args := make([]Value, 0, min(n, maxEagerArgs))
		for ; n > 0; n-- {
			a, err := ReadValue(r)
			if err != nil {
				return Value{}, err
			}
			args = append(args, a)
		}
		return NewCompound(fn, args...), nil
	}
	return Value{}, fmt.Errorf("term: bad value tag %d", tag)
}

// WriteTuple writes the length-prefixed encoding of t to w.
func WriteTuple(w io.Writer, t Tuple) error {
	buf := binary.AppendUvarint(nil, uint64(len(t)))
	for i := range t {
		buf = AppendValue(buf, t[i])
	}
	_, err := w.Write(buf)
	return err
}

// ReadTuple decodes one length-prefixed tuple from r.
func ReadTuple(r *bufio.Reader) (Tuple, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	t := make(Tuple, 0, min(n, maxEagerCount))
	for ; n > 0; n-- {
		v, err := ReadValue(r)
		if err != nil {
			return nil, err
		}
		t = append(t, v)
	}
	return t, nil
}
