package decodebounds

import (
	"bufio"
	"encoding/binary"
	"errors"
)

const maxCount = 1 << 16

func badMake(r *bufio.Reader) ([]uint64, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n) // want `make sized by decoded value n`
	return out, nil
}

func goodMake(r *bufio.Reader) ([]uint64, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxCount {
		return nil, errors.New("count too large")
	}
	return make([]uint64, n), nil
}

func badSlice(buf []byte) ([]byte, error) {
	if len(buf) < 4 {
		return nil, errors.New("short buffer")
	}
	n := binary.LittleEndian.Uint32(buf)
	return buf[4 : 4+n], nil // want `slice bound from decoded value n`
}

func goodSlice(buf []byte) ([]byte, error) {
	if len(buf) < 4 {
		return nil, errors.New("short buffer")
	}
	n := binary.LittleEndian.Uint32(buf)
	if int(n) > len(buf)-4 {
		return nil, errors.New("truncated payload")
	}
	return buf[4 : 4+n], nil
}

// Taint must follow the value through conversions and arithmetic.
func badPropagated(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	size := int(n) * 8
	return make([]byte, size), nil // want `make sized by decoded value size`
}

func clampCount(n uint64) int {
	if n > maxCount {
		return maxCount
	}
	return int(n)
}

// Passing the decoded value through a bounding helper sanitizes it.
func goodHelperBounded(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	return make([]byte, clampCount(n)), nil
}

// A size that never saw the wire is none of this analyzer's business.
func goodStaticSize(k int) []byte {
	return make([]byte, k)
}

// cursor stands in for a payload reader such as codec.Reader.
type cursor struct{ b []byte }

func (c *cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, errors.New("bad uvarint")
	}
	return v, nil
}

func (c *cursor) Count(limit int) (int, error) {
	v, err := c.Uvarint()
	if err != nil || v > uint64(limit) {
		return 0, errors.New("count out of range")
	}
	return int(v), nil
}

// A cursor's raw Uvarint is as attacker-controlled as binary.ReadUvarint.
func badCursor(c *cursor) ([]float64, error) {
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	return make([]float64, n), nil // want `make sized by decoded value n`
}

// Count bounds the value before it sizes anything.
func goodCursorCount(c *cursor) ([]float64, error) {
	n, err := c.Count(maxCount)
	if err != nil {
		return nil, err
	}
	return make([]float64, n), nil
}
