package codec

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// framed appends p's little-endian CRC32 trailer, continuing from crc.
func framed(p []byte, crc uint32) []byte {
	out := append([]byte(nil), p...)
	return binary.LittleEndian.AppendUint32(out, crc32.Update(crc, crc32.IEEETable, p))
}

func TestReadPayload(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB, 0x01}, MaxUpfrontAlloc) // spans two chunks
	hdr := []byte("header")

	got, err := ReadPayload(bytes.NewReader(framed(payload, 0)), nil, len(payload), 0)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("payload-only CRC: err %v, %d bytes", err, len(got))
	}
	// A header-seeded CRC covers header and payload together; the same
	// trailer checked from seed 0 must fail.
	seeded := framed(payload, crc32.ChecksumIEEE(hdr))
	if _, err := ReadPayload(bytes.NewReader(seeded), nil, len(payload), crc32.ChecksumIEEE(hdr)); err != nil {
		t.Fatalf("header-seeded CRC: %v", err)
	}
	if _, err := ReadPayload(bytes.NewReader(seeded), nil, len(payload), 0); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("wrong seed accepted: %v", err)
	}
	// The buffer's capacity is reused when it suffices.
	buf := make([]byte, 0, 16)
	got, err = ReadPayload(bytes.NewReader(framed([]byte("abc"), 0)), buf, 3, 0)
	if err != nil || &got[:1][0] != &buf[:1][0] {
		t.Fatalf("small payload did not reuse buf (err %v)", err)
	}
	for name, raw := range map[string][]byte{
		"truncated payload":  payload[:100],
		"truncated checksum": append(append([]byte(nil), payload...), 1, 2),
	} {
		out, err := ReadPayload(bytes.NewReader(raw), nil, len(payload), 0)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: got %v", name, err)
		}
		if len(out) != 0 {
			t.Errorf("%s: error returned %d payload bytes", name, len(out))
		}
	}
}

// TestReadPayloadBoundedAllocation: a declared length far beyond what
// arrives costs at most one MaxUpfrontAlloc chunk before failing.
func TestReadPayloadBoundedAllocation(t *testing.T) {
	short := make([]byte, 100)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadPayload(bytes.NewReader(short), nil, 1<<28, 0); err == nil {
			t.Fatal("truncated payload accepted")
		}
	})
	if allocs > 8 {
		t.Fatalf("truncated 256 MiB payload cost %.0f allocations", allocs)
	}
}

func TestReaderRoundTrip(t *testing.T) {
	p := []byte{7}
	p = AppendUvarint(p, 300)
	p = AppendUvarint(p, 5)
	p = AppendUvarint(p, math.MaxUint32)
	p = AppendF64(p, -2.5)
	p = append(p, "xyz"...)

	rd := NewReader(p)
	b, err := rd.U8()
	if err != nil || b != 7 {
		t.Fatalf("U8: %d, %v", b, err)
	}
	if v, err := rd.Uvarint(); err != nil || v != 300 {
		t.Fatalf("Uvarint: %d, %v", v, err)
	}
	if n, err := rd.Count(5); err != nil || n != 5 {
		t.Fatalf("Count: %d, %v", n, err)
	}
	if v, err := rd.U32(); err != nil || v != math.MaxUint32 {
		t.Fatalf("U32: %d, %v", v, err)
	}
	if v, err := rd.F64(); err != nil || v != -2.5 {
		t.Fatalf("F64: %g, %v", v, err)
	}
	if err := rd.Done(); err == nil || !strings.Contains(err.Error(), "3 trailing bytes") {
		t.Fatalf("Done with 3 bytes left: %v", err)
	}
	if s, err := rd.Bytes(2); err != nil || string(s) != "xy" {
		t.Fatalf("Bytes: %q, %v", s, err)
	}
	if string(rd.Rest()) != "z" {
		t.Fatalf("Rest: %q", rd.Rest())
	}
	rd.Skip(1)
	if err := rd.Done(); err != nil {
		t.Fatalf("Done at end: %v", err)
	}
}

// TestReaderRejects: every bound the formats rely on fails cleanly.
func TestReaderRejects(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(*Reader) error
		want string
	}{
		{"U8 at end", nil, func(r *Reader) error { _, err := r.U8(); return err }, "truncated"},
		{"unterminated uvarint", []byte{0x80}, func(r *Reader) error { _, err := r.Uvarint(); return err }, "bad uvarint"},
		{"count over limit", AppendUvarint(nil, 11), func(r *Reader) error { _, err := r.Count(10); return err }, "exceeds limit"},
		{"index over uint32", AppendUvarint(nil, math.MaxUint32+1), func(r *Reader) error { _, err := r.U32(); return err }, "overflows uint32"},
		{"short float", make([]byte, 7), func(r *Reader) error { _, err := r.F64(); return err }, "truncated float"},
		{"NaN", AppendF64(nil, math.NaN()), func(r *Reader) error { _, err := r.F64(); return err }, "non-finite"},
		{"+Inf", AppendF64(nil, math.Inf(1)), func(r *Reader) error { _, err := r.F64(); return err }, "non-finite"},
		{"short bytes", []byte("ab"), func(r *Reader) error { _, err := r.Bytes(3); return err }, "truncated"},
	}
	for _, tc := range cases {
		if err := tc.read(NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestReaderSkipPastEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Skip past the end did not panic")
		}
	}()
	NewReader([]byte{1}).Skip(2)
}
