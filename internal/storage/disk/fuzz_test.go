package disk

import (
	"testing"

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
