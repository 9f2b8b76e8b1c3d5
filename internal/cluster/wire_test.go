package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
)

// rawStream frames hand-built payloads exactly as a conforming sender
// would — valid untraced header, correct length prefixes and CRCs — so a
// rejection can only come from the payload decoder itself.
func rawStream(kind byte, payloads ...[]byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, frameMagic)
	out = binary.LittleEndian.AppendUint32(out, wireVersion)
	out = append(out, make([]byte, 24)...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	for _, p := range payloads {
		out = append(out, kind)
		out = binary.AppendUvarint(out, uint64(len(p)))
		out = append(out, p...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	}
	return out
}

// payloadOf encodes f and returns its payload bytes alone.
func payloadOf(t *testing.T, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteFrames(&buf, []Frame{f}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()[streamHeaderSize+1:]
	n, k := binary.Uvarint(frame)
	return append([]byte(nil), frame[k:k+int(n)]...)
}

// change is one gap-encoded bucket change of a hand-built delta.
type change struct {
	gap uint64
	val float64
}

// deltaPayload hand-encodes a delta frame for origin "x" at version 5 on
// base 4 with the given scale and changes, and empty heavy-list diffs.
func deltaPayload(scale float64, changes ...change) []byte {
	p := binary.AppendUvarint(nil, 1)
	p = append(p, 'x')
	p = binary.AppendUvarint(p, 5)
	p = binary.AppendUvarint(p, 4)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(scale))
	p = binary.AppendUvarint(p, uint64(len(changes)))
	for _, ch := range changes {
		p = binary.AppendUvarint(p, ch.gap)
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(ch.val))
	}
	p = binary.AppendUvarint(p, 0) // removed heavy keys
	return binary.AppendUvarint(p, 0)
}

// TestReadFramesRejectsHostilePayloads feeds streams whose framing and
// CRCs are all valid but whose payloads break a decode rule. Every one must
// be rejected with the named reason; the control rows prove the hand-built
// frames are otherwise well-formed.
func TestReadFramesRejectsHostilePayloads(t *testing.T) {
	b := newMember(t, "node-b")
	train(b, datagen.RCV1Like(4).Take(300))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	full := payloadOf(t, b.node.BuildFrames(map[string]int64{}, false)[0])
	digest := func(n uint64, origin string) []byte {
		p := binary.AppendUvarint(nil, n)
		p = binary.AppendUvarint(p, uint64(len(origin)))
		p = append(p, origin...)
		return binary.AppendUvarint(p, 1)
	}
	cases := []struct {
		name   string
		stream []byte
		want   string // substring of the error; "" = must be accepted
	}{
		{"control full", rawStream(kindFull, full), ""},
		{"control delta", rawStream(kindDelta, deltaPayload(0.5, change{3, 1}, change{2, -1})), ""},
		{"control digest", rawStream(kindDigest, digest(1, "a")), ""},
		{"trailing byte after sketch", rawStream(kindFull, append(append([]byte(nil), full...), 0)), "trailing bytes"},
		{"truncated sketch", rawStream(kindFull, full[:len(full)-8]), "truncated"},
		{"NaN scale", rawStream(kindDelta, deltaPayload(math.NaN())), "non-finite"},
		{"zero scale", rawStream(kindDelta, deltaPayload(0)), "scale"},
		{"empty digest origin", rawStream(kindDigest, digest(1, "")), "empty origin"},
		{"digest count over limit", rawStream(kindDigest, digest(maxDigestEntries+1, "a")), "exceeds limit"},
		{"zero change gap", rawStream(kindDelta, deltaPayload(1, change{3, 1}, change{0, 2})), "non-ascending"},
		{"change index over MaxUint32", rawStream(kindDelta, deltaPayload(1, change{math.MaxUint32 + 1, 1})), "overflows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames, err := ReadFrames(bytes.NewReader(tc.stream))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("well-formed stream rejected: %v", err)
			case tc.want == "" && len(frames) != 1:
				t.Fatalf("decoded %d frames, want 1", len(frames))
			case tc.want != "" && err == nil:
				t.Fatal("hostile payload accepted")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestReadFramesRejectsWrappingChangeGap: a change gap so large that
// prev+gap wraps uint64 back below prev must not slip past the
// ascending-order check as a small index.
func TestReadFramesRejectsWrappingChangeGap(t *testing.T) {
	stream := rawStream(kindDelta, deltaPayload(1, change{3, 1}, change{math.MaxUint64 - 1, 2}))
	if _, err := ReadFrames(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("wrapping change gap: got %v, want an overflow rejection", err)
	}
}

// benchFrames builds one gossip stream's worth of frames (24 origins, as a
// mid-sized fleet would push) at the given sketch width: full snapshots, or
// deltas after a short burst of further training.
func benchFrames(b *testing.B, width int, delta bool) []Frame {
	b.Helper()
	cfg := core.Config{Width: width, Depth: 1, HeapSize: 64, Lambda: 1e-6, Seed: 7}
	l := core.NewAWMSketch(cfg)
	n, err := NewNode(Config{Self: "node-b", Mix: mixOpt(cfg), Local: l, Interval: -1})
	if err != nil {
		b.Fatal(err)
	}
	for _, ex := range datagen.RCV1Like(4).Take(300) {
		l.Update(ex.X, ex.Y)
	}
	version, _, err := n.PublishLocal()
	if err != nil {
		b.Fatal(err)
	}
	f := n.BuildFrames(map[string]int64{}, false)[0]
	if delta {
		for _, ex := range datagen.RCV1Like(44).Take(5) {
			l.Update(ex.X, ex.Y)
		}
		if _, _, err := n.PublishLocal(); err != nil {
			b.Fatal(err)
		}
		fs := n.BuildFrames(map[string]int64{"node-b": version}, false)
		if len(fs) != 1 || fs[0].Kind != kindDelta {
			b.Fatalf("width %d: want one delta frame, got %d", width, len(fs))
		}
		f = fs[0]
	}
	frames := make([]Frame, 24)
	for i := range frames {
		frames[i] = f
		frames[i].Origin = fmt.Sprintf("node-%02d", i)
	}
	return frames
}

// gossipBenchCases is the per-layer sweep: sketch width × frame kind.
func gossipBenchCases(b *testing.B, run func(b *testing.B, frames []Frame)) {
	for _, width := range []int{128, 4096} {
		for _, kind := range []string{"full", "delta"} {
			frames := benchFrames(b, width, kind == "delta")
			b.Run(fmt.Sprintf("width=%d/%s", width, kind), func(b *testing.B) { run(b, frames) })
		}
	}
}

// BenchmarkWriteFrames measures gossip stream encode (header, per-frame
// payload, length prefix and CRC) for one 24-frame stream.
func BenchmarkWriteFrames(b *testing.B) {
	gossipBenchCases(b, func(b *testing.B, frames []Frame) {
		var buf bytes.Buffer
		n, err := WriteFrames(&buf, frames)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(n)
		b.ReportAllocs()
		for b.Loop() {
			buf.Reset()
			if _, err := WriteFrames(&buf, frames); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReadFrames measures gossip stream decode (CRC check and bounded
// payload decode) for the same streams.
func BenchmarkReadFrames(b *testing.B) {
	gossipBenchCases(b, func(b *testing.B, frames []Frame) {
		var buf bytes.Buffer
		if _, err := WriteFrames(&buf, frames); err != nil {
			b.Fatal(err)
		}
		stream := buf.Bytes()
		b.SetBytes(int64(len(stream)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := ReadFrames(bytes.NewReader(stream)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
