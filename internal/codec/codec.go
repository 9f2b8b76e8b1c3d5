// Package codec holds the bounded-decode rules shared by the repository's
// two binary wire formats: gossip frames (internal/cluster) and the
// serving hot protocol (internal/wire). Each format keeps its own frame
// layout; what they share is how untrusted bytes are read:
//
//   - a payload is read in bounded chunks and its CRC32 trailer verified
//     before a single field is decoded (ReadPayload);
//   - every wire-supplied count is bounded before it sizes an allocation
//     (Reader.Count), and no allocation made from a count alone exceeds
//     MaxUpfrontAlloc (UpfrontCap, Reuse);
//   - indices must fit uint32 (Reader.U32);
//   - non-finite floats are rejected centrally (Reader.F64);
//   - a payload must be consumed exactly (Reader.Done).
//
// Multi-byte fixed-width values are little-endian; counts and indices are
// uvarints.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// MaxUpfrontAlloc caps the capacity allocated from a wire-supplied count
// alone. Larger (still-bounded) buffers grow by append as payload bytes
// actually arrive, so a tiny hostile frame claiming 2^27 entries cannot
// demand gigabytes before its (absent) payload fails to read.
const MaxUpfrontAlloc = 1 << 16

// UpfrontCap bounds the capacity allocated before payload bytes arrive.
func UpfrontCap(n int) int { return min(n, MaxUpfrontAlloc) }

// Reuse returns s emptied, with room for UpfrontCap(n) elements: s's own
// backing array when it is large enough, otherwise a new one.
func Reuse[S ~[]E, E any](s S, n int) S {
	if cap(s) < UpfrontCap(n) {
		return make(S, 0, UpfrontCap(n))
	}
	return s[:0]
}

// ReadPayload reads an n-byte payload and its little-endian CRC32 (IEEE)
// trailer from r into buf's capacity. n must already be bounded by the
// format's frame limit; the buffer still grows by MaxUpfrontAlloc chunks as
// bytes arrive, so a hostile length cannot demand its memory up front.
//
// crc is the checksum state before the payload. Since
// crc32.Update(0, IEEETable, p) == crc32.ChecksumIEEE(p), passing 0 checks
// the payload alone, and passing crc32.ChecksumIEEE(header) checks header
// and payload together. On error the returned slice is empty but keeps
// any grown capacity for reuse.
func ReadPayload(r io.Reader, buf []byte, n int, crc uint32) ([]byte, error) {
	payload := Reuse(buf, n)
	for len(payload) < n {
		start := len(payload)
		payload = append(payload, make([]byte, min(n-start, MaxUpfrontAlloc))...)
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return payload[:0], fmt.Errorf("truncated payload: %w", err)
		}
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return payload[:0], fmt.Errorf("truncated checksum: %w", err)
	}
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if got := binary.LittleEndian.Uint32(trailer[:]); got != crc {
		return payload[:0], fmt.Errorf("checksum mismatch (computed %#x, trailer %#x)", crc, got)
	}
	return payload, nil
}

// Reader is a bounds-checked cursor over one payload: every read past the
// end is an error, never a panic.
type Reader struct {
	b   []byte
	off int
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// U8 reads one byte.
func (r *Reader) U8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("truncated payload")
	}
	r.off++
	return r.b[r.off-1], nil
}

// Uvarint reads one unbounded uvarint. Use Count for anything that sizes
// an allocation and U32 for indices.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Count reads a uvarint and bounds it by limit — the decode-bounds
// sanitizer every allocation-sizing count must pass through.
func (r *Reader) Count(limit int) (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, fmt.Errorf("count %d exceeds limit %d", v, limit)
	}
	return int(v), nil
}

// U32 reads a uvarint index (a feature index or heavy-list key) that must
// fit uint32.
func (r *Reader) U32() (uint32, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("index %d overflows uint32", v)
	}
	return uint32(v), nil
}

// F64 reads one float64 and rejects NaN/±Inf: no field of either format
// legitimately carries a non-finite value, and one smuggled past here
// would poison model state while comparing false against every bound.
func (r *Reader) F64() (float64, error) {
	if len(r.b)-r.off < 8 {
		return 0, fmt.Errorf("truncated float")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("non-finite value on the wire (%g)", v)
	}
	return v, nil
}

// Bytes returns the next n bytes, aliasing the payload. n must come from
// Count.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if len(r.b)-r.off < n {
		return nil, fmt.Errorf("truncated payload: need %d bytes, have %d", n, len(r.b)-r.off)
	}
	r.off += n
	return r.b[r.off-n : r.off], nil
}

// Rest returns the unread bytes, for a hot loop or a nested decoder that
// parses them directly; report what it consumed with Skip.
func (r *Reader) Rest() []byte { return r.b[r.off:] }

// Skip advances past n bytes consumed from Rest. n beyond len(Rest()) is
// a caller bug and panics.
func (r *Reader) Skip(n int) {
	if n < 0 || n > len(r.b)-r.off {
		panic(fmt.Sprintf("codec: Skip(%d) with %d bytes left", n, len(r.b)-r.off))
	}
	r.off += n
}

// Done requires the payload to be fully consumed: trailing bytes mark a
// malformed payload.
func (r *Reader) Done() error {
	if n := len(r.b) - r.off; n > 0 {
		return fmt.Errorf("%d trailing bytes after payload", n)
	}
	return nil
}

// AppendUvarint appends v as a uvarint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendF64 appends v's little-endian IEEE-754 bits.
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
