// Per-run bloom filters: every run persists a bloom filter built from its
// rows' whole-tuple hashes at flush time, and membership probes
// (Insert-dedup, Contains, full-mask Lookup, Delete) consult it before
// probing a run's hash table. A negative answer — the overwhelmingly
// common case when semi-naive evaluation dedups fresh deltas against
// spilled state — costs a few cache-resident bit tests and skips the run
// entirely: no table probe, no lazy index load, no block fetch.
//
// Sizing is the classic ~10 bits per key with 6 probes (false-positive
// rate ≈ 0.8%); probe positions come from double hashing over the already
// cached 64-bit tuple hash, so building and querying never touch tuple
// bytes.
package disk

import "encoding/binary"

const (
	bloomBitsPerKey = 10
	bloomHashes     = 6
)

// bloomFilter is a fixed-size bloom filter over 64-bit tuple hashes.
// Immutable after the run is built; queries are lock-free.
type bloomFilter struct {
	mbits uint64
	k     uint32
	bits  []uint64
}

// newBloom sizes a filter for n keys.
func newBloom(n int) *bloomFilter {
	if n < 1 {
		n = 1
	}
	m := (uint64(n)*bloomBitsPerKey + 63) &^ 63
	if m < 64 {
		m = 64
	}
	return &bloomFilter{mbits: m, k: bloomHashes, bits: make([]uint64, m/64)}
}

// bloomMix is the splitmix64 finalizer, decorrelating the second probe
// stride from FNV's regular low bits.
func bloomMix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (b *bloomFilter) add(h uint64) {
	h1, h2 := h, bloomMix(h)|1
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.mbits
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (b *bloomFilter) mayContain(h uint64) bool {
	h1, h2 := h, bloomMix(h)|1
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.mbits
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// bloomFrom builds a filter over a run's row hashes.
func bloomFrom(hashes []uint64) *bloomFilter {
	b := newBloom(len(hashes))
	for _, h := range hashes {
		b.add(h)
	}
	return b
}

// appendBloom serializes b (m, k, words LE) into dst.
func appendBloom(dst []byte, b *bloomFilter) []byte {
	dst = binary.AppendUvarint(dst, b.mbits)
	dst = binary.AppendUvarint(dst, uint64(b.k))
	for _, w := range b.bits {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// readBloom deserializes a filter from buf, returning the remaining bytes.
func readBloom(buf []byte) (*bloomFilter, []byte, bool) {
	m, n := binary.Uvarint(buf)
	if n <= 0 || m == 0 || m%64 != 0 {
		return nil, nil, false
	}
	buf = buf[n:]
	k, n := binary.Uvarint(buf)
	if n <= 0 || k == 0 || k > 64 {
		return nil, nil, false
	}
	buf = buf[n:]
	words := int(m / 64)
	if len(buf) < words*8 {
		return nil, nil, false
	}
	b := &bloomFilter{mbits: m, k: uint32(k), bits: make([]uint64, words)}
	for i := range b.bits {
		b.bits[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return b, buf[words*8:], true
}
