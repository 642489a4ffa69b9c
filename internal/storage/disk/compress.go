// Block compression: run blocks are stored either raw (the term codec,
// unchanged from the first run format) or packed. Packing is lightweight
// and value-shaped rather than byte-oriented: integers are delta-encoded
// per column as signed varints (dense key columns collapse to one byte a
// row), atoms become uvarint references into the store's persistent
// intern dictionary (the per-block cost of a repeated atom drops from its
// bytes to 1-2 bytes), floats stay verbatim 8-byte words (NaN and ±Inf
// payloads survive bit-exactly), and HiLog compound terms recurse.
// Oversized strings stay inline so the dictionary holds atoms, not
// payloads.
//
// Every block keeps whichever encoding is smaller — a packed block that
// fails to beat raw is discarded at flush time (the "raw fallback"), so
// incompressible data costs nothing at read time. The decoded form is
// identical either way, and decoded blocks are what the block cache
// serves hits from, so hot reads never see the difference; a cold point
// probe decodes only the row it wants (decodeRowAt).
package disk

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"gluenail/internal/term"
)

const (
	blockEncRaw    = 0 // uvarint nrows + term codec tuples
	blockEncPacked = 1 // uvarint nrows + packed values
)

// Packed value tags. Distinct from the term codec's tags only by
// context: a packed block is self-describing via its encoding byte.
const (
	pvInt      = 1 // svarint, delta vs the column's previous top-level int
	pvFloat    = 2 // 8 bytes LE, raw bits
	pvAtom     = 3 // uvarint intern-dictionary ID
	pvStr      = 4 // uvarint len + bytes (oversized / non-dictionary string)
	pvCompound = 5 // functor value, uvarint nargs, arg values
)

// maxEagerArgs caps how many compound arguments the decoder allocates for
// before they arrive, as the term codec does.
const maxEagerArgs = 4

// encodeBlockPayload renders one block's payload (encoding byte + body)
// for rows, choosing packed when enabled and smaller. The raw rendering
// is sized first and only materialized if packed loses: on compressible
// data the block is written once, not twice.
func encodeBlockPayload(d *atomDict, rows []term.Tuple, compress bool) []byte {
	var hdr [binary.MaxVarintLen64 + 1]byte
	hdr[0] = blockEncRaw
	hn := 1 + binary.PutUvarint(hdr[1:], uint64(len(rows)))
	rawSize := hn
	for _, t := range rows {
		rawSize += t.EncodedSize()
	}
	if compress {
		packed := make([]byte, 0, rawSize)
		packed = append(packed, blockEncPacked)
		packed = binary.AppendUvarint(packed, uint64(len(rows)))
		var prev []int64
		if len(rows) > 0 {
			prev = make([]int64, len(rows[0]))
		}
		for _, t := range rows {
			for i := range t {
				packed = appendPacked(packed, d, &t[i], &prev[i])
			}
		}
		if len(packed) < rawSize {
			return packed
		}
	}
	raw := make([]byte, 0, rawSize)
	raw = append(raw, hdr[:hn]...)
	for _, t := range rows {
		for i := range t {
			raw = term.AppendValue(raw, t[i])
		}
	}
	return raw
}

// appendPacked encodes one value. prev tracks the column's running
// top-level integer for delta coding; nested values pass nil and encode
// absolute. v is a pointer so the per-value call doesn't copy the Value
// struct — this is the encoder's innermost loop.
func appendPacked(dst []byte, d *atomDict, v *term.Value, prev *int64) []byte {
	switch v.Kind() {
	case term.Int:
		i := v.Int()
		dst = append(dst, pvInt)
		if prev != nil {
			dst = binary.AppendVarint(dst, i-*prev)
			*prev = i
		} else {
			dst = binary.AppendVarint(dst, i)
		}
	case term.Float:
		dst = append(dst, pvFloat)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case term.Str:
		s := v.Str()
		if len(s) > internInlineLimit {
			dst = append(dst, pvStr)
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
			break
		}
		dst = append(dst, pvAtom)
		dst = binary.AppendUvarint(dst, uint64(d.idFor(*v)))
	case term.Compound:
		dst = append(dst, pvCompound)
		fn := v.Functor()
		dst = appendPacked(dst, d, &fn, nil)
		dst = binary.AppendUvarint(dst, uint64(v.NumArgs()))
		for i := 0; i < v.NumArgs(); i++ {
			a := v.Arg(i)
			dst = appendPacked(dst, d, &a, nil)
		}
	default:
		panic("disk: packing invalid value")
	}
	return dst
}

// decodeBlockPayload decodes a block payload (encoding byte + body) into
// its rows. arity sizes the tuples; both encodings intern decoded atoms,
// so rows enter the cache carrying cached hashes.
func decodeBlockPayload(d *atomDict, payload []byte, arity int) ([]term.Tuple, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("disk: empty block payload")
	}
	switch payload[0] {
	case blockEncRaw:
		return decodeRawRows(payload[1:], arity)
	case blockEncPacked:
		return decodePackedRows(d, payload[1:], arity)
	}
	return nil, fmt.Errorf("disk: bad block encoding %d", payload[0])
}

// decodeRawRows decodes a raw body: uvarint nrows then term-codec values,
// arity per row (the tuple frame is implicit — run blocks of one relation
// all share its arity).
func decodeRawRows(body []byte, arity int) ([]term.Tuple, error) {
	br := bufio.NewReader(bytes.NewReader(body))
	nrows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	// The count is attacker-controlled on a corrupt block: blocks never
	// exceed rowsPerBlock rows, so anything larger is damage — reject it
	// before sizing an allocation (or looping) on it.
	if nrows > rowsPerBlock {
		return nil, fmt.Errorf("disk: block claims %d rows (max %d)", nrows, rowsPerBlock)
	}
	rows := make([]term.Tuple, 0, nrows)
	for i := uint64(0); i < nrows; i++ {
		t := make(term.Tuple, arity)
		for j := range t {
			if t[j], err = term.ReadValue(br); err != nil {
				return nil, err
			}
		}
		rows = append(rows, t)
	}
	return rows, nil
}

// packedRowCount reads a packed body's row count, bounded like the raw
// decoder's, and returns the bytes after it.
func packedRowCount(body []byte) (uint64, []byte, error) {
	nrows, n := binary.Uvarint(body)
	if n <= 0 {
		return 0, nil, fmt.Errorf("disk: truncated packed block")
	}
	if nrows > rowsPerBlock {
		return 0, nil, fmt.Errorf("disk: block claims %d rows (max %d)", nrows, rowsPerBlock)
	}
	return nrows, body[n:], nil
}

func decodePackedRows(d *atomDict, body []byte, arity int) ([]term.Tuple, error) {
	nrows, body, err := packedRowCount(body)
	if err != nil {
		return nil, err
	}
	rows := make([]term.Tuple, 0, nrows)
	prev := make([]int64, arity)
	for i := uint64(0); i < nrows; i++ {
		t := make(term.Tuple, arity)
		for j := range t {
			if t[j], body, err = readPacked(d, body, &prev[j]); err != nil {
				return nil, err
			}
		}
		rows = append(rows, t)
	}
	return rows, nil
}

func readPacked(d *atomDict, body []byte, prev *int64) (term.Value, []byte, error) {
	if len(body) == 0 {
		return term.Value{}, nil, fmt.Errorf("disk: truncated packed value")
	}
	tag := body[0]
	body = body[1:]
	switch tag {
	case pvInt:
		dv, n := binary.Varint(body)
		if n <= 0 {
			return term.Value{}, nil, fmt.Errorf("disk: truncated packed int")
		}
		body = body[n:]
		if prev != nil {
			*prev += dv
			return term.NewInt(*prev), body, nil
		}
		return term.NewInt(dv), body, nil
	case pvFloat:
		if len(body) < 8 {
			return term.Value{}, nil, fmt.Errorf("disk: truncated packed float")
		}
		v := term.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(body)))
		return v, body[8:], nil
	case pvAtom:
		id, n := binary.Uvarint(body)
		if n <= 0 {
			return term.Value{}, nil, fmt.Errorf("disk: truncated packed atom")
		}
		v, ok := d.atom(uint32(id))
		if !ok {
			return term.Value{}, nil, fmt.Errorf("disk: packed atom id %d beyond intern table", id)
		}
		return v, body[n:], nil
	case pvStr:
		sz, n := binary.Uvarint(body)
		// Compare in uint64: int(sz) on a corrupt length can overflow
		// negative and sail past a len(body) < n+int(sz) check.
		if n <= 0 || sz > uint64(len(body)-n) {
			return term.Value{}, nil, fmt.Errorf("disk: truncated packed string")
		}
		s := string(body[n : n+int(sz)])
		return term.Intern(s), body[n+int(sz):], nil
	case pvCompound:
		fn, rest, err := readPacked(d, body, nil)
		if err != nil {
			return term.Value{}, nil, err
		}
		nargs, n := binary.Uvarint(rest)
		// Every arg costs at least one byte, so a count beyond the
		// remaining bytes is damage — reject before allocating on it.
		if n <= 0 || nargs > uint64(len(rest)-n) {
			return term.Value{}, nil, fmt.Errorf("disk: truncated packed compound")
		}
		rest = rest[n:]
		// The count is bounded only by the bytes left, and compounds nest:
		// sizing args from it at every level of a chain allocates quadratic
		// in the depth. Size the slice once an argument has decoded, to at
		// most maxEagerArgs, and grow it as more arrive.
		var args []term.Value
		for i := uint64(0); i < nargs; i++ {
			var a term.Value
			if a, rest, err = readPacked(d, rest, nil); err != nil {
				return term.Value{}, nil, err
			}
			if args == nil {
				args = make([]term.Value, 0, min(nargs, maxEagerArgs))
			}
			args = append(args, a)
		}
		return term.NewCompound(fn, args...), rest, nil
	}
	return term.Value{}, nil, fmt.Errorf("disk: bad packed tag %d", tag)
}

// decodeRowAt materialises only row i of a block payload — the point-probe
// decode. It returns exactly decodeBlockPayload(payload)[i], at the cost of
// walking the rows before it instead of building all of them.
func decodeRowAt(d *atomDict, payload []byte, arity, i int) (term.Tuple, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("disk: empty block payload")
	}
	switch payload[0] {
	case blockEncRaw:
		return rawRowAt(payload[1:], arity, i)
	case blockEncPacked:
		return packedRowAt(d, payload[1:], arity, i)
	}
	return nil, fmt.Errorf("disk: bad block encoding %d", payload[0])
}

// rawRowAt reads rows 0..i through the term codec into one tuple, each
// overwriting the last; what remains is row i.
func rawRowAt(body []byte, arity, i int) (term.Tuple, error) {
	br := bufio.NewReader(bytes.NewReader(body))
	nrows, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nrows > rowsPerBlock || uint64(i) >= nrows {
		return nil, fmt.Errorf("disk: no row %d in a block claiming %d rows (max %d)", i, nrows, rowsPerBlock)
	}
	t := make(term.Tuple, arity)
	for row := 0; row <= i; row++ {
		for j := range t {
			if t[j], err = term.ReadValue(br); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// packedRowAt skips rows 0..i-1 — tracking only the per-column integer
// deltas, allocating nothing — and decodes row i.
func packedRowAt(d *atomDict, body []byte, arity, i int) (term.Tuple, error) {
	nrows, body, err := packedRowCount(body)
	if err != nil {
		return nil, err
	}
	if uint64(i) >= nrows {
		return nil, fmt.Errorf("disk: no row %d in a block of %d rows", i, nrows)
	}
	var few [8]int64
	prev := few[:]
	if arity > len(few) {
		prev = make([]int64, arity)
	}
	for row := 0; row < i; row++ {
		for j := 0; j < arity; j++ {
			if body, err = skipPacked(body, &prev[j]); err != nil {
				return nil, err
			}
		}
	}
	t := make(term.Tuple, arity)
	for j := range t {
		if t[j], body, err = readPacked(d, body, &prev[j]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// skipPacked steps over one packed value with readPacked's bounds checks.
// prev, when non-nil, accumulates a top-level integer's delta.
func skipPacked(body []byte, prev *int64) ([]byte, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("disk: truncated packed value")
	}
	tag, body := body[0], body[1:]
	n := 0 // encoded length after the tag
	switch tag {
	case pvInt:
		var dv int64
		if dv, n = binary.Varint(body); prev != nil {
			*prev += dv
		}
	case pvFloat:
		n = 8
	case pvAtom:
		_, n = binary.Uvarint(body)
	case pvStr:
		sz, m := binary.Uvarint(body)
		if m > 0 && sz <= uint64(len(body)-m) {
			n = m + int(sz)
		}
	case pvCompound:
		rest, err := skipPacked(body, nil)
		if err != nil {
			return nil, err
		}
		nargs, m := binary.Uvarint(rest)
		if m <= 0 || nargs > uint64(len(rest)-m) {
			return nil, fmt.Errorf("disk: truncated packed compound")
		}
		for rest = rest[m:]; nargs > 0; nargs-- {
			if rest, err = skipPacked(rest, nil); err != nil {
				return nil, err
			}
		}
		return rest, nil
	default:
		return nil, fmt.Errorf("disk: bad packed tag %d", tag)
	}
	if n <= 0 || n > len(body) {
		return nil, fmt.Errorf("disk: truncated packed value")
	}
	return body[n:], nil
}
