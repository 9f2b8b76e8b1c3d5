package cluster

import (
	"bytes"
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
)

// fuzzCorpus builds seed inputs from real encoded streams: a digest-only
// stream, a full sync, a delta, plus truncated and bit-flipped variants —
// the corpus CI's fuzz smoke starts from.
func fuzzCorpus(f *testing.F) {
	b := newMemberF(f, "node-b")
	for _, ex := range datagen.RCV1Like(21).Take(300) {
		b.learner.Update(ex.X, ex.Y)
	}
	if _, _, err := b.node.PublishLocal(); err != nil {
		f.Fatal(err)
	}
	full := b.node.BuildFrames(map[string]int64{}, true)
	var buf bytes.Buffer
	if _, err := WriteFrames(&buf, full); err != nil {
		f.Fatal(err)
	}
	fullStream := append([]byte(nil), buf.Bytes()...)
	base := full[len(full)-1].Version

	for _, ex := range datagen.RCV1Like(22).Take(40) {
		b.learner.Update(ex.X, ex.Y)
	}
	if _, _, err := b.node.PublishLocal(); err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if _, err := WriteFrames(&buf, b.node.BuildFrames(map[string]int64{"node-b": base}, false)); err != nil {
		f.Fatal(err)
	}
	deltaStream := append([]byte(nil), buf.Bytes()...)

	buf.Reset()
	if _, err := WriteFrames(&buf, []Frame{{Kind: kindDigest, Digest: map[string]int64{"a": 1, "b": 2}}}); err != nil {
		f.Fatal(err)
	}
	digestStream := append([]byte(nil), buf.Bytes()...)

	for _, s := range [][]byte{digestStream, fullStream, deltaStream} {
		f.Add(s)
		// Truncations at interesting depths: inside the header, the length
		// prefix, the payload, and the checksum trailer.
		for _, cut := range []int{3, 9, len(s) / 2, len(s) - 3, len(s) - 1} {
			if cut > 0 && cut < len(s) {
				f.Add(append([]byte(nil), s[:cut]...))
			}
		}
		// Bit flips across the stream.
		for _, at := range []int{0, 5, 8, len(s) / 3, 2 * len(s) / 3, len(s) - 2} {
			if at >= 0 && at < len(s) {
				c := append([]byte(nil), s...)
				c[at] ^= 0xA5
				f.Add(c)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte("WMCF"))
}

// newMemberF mirrors newMember for fuzz seeding (testing.F, not testing.T).
func newMemberF(f *testing.F, id string) *testMember {
	f.Helper()
	cfg := clusterConfig()
	l := core.NewAWMSketch(cfg)
	n, err := NewNode(Config{Self: id, Mix: mixOpt(cfg), Local: l, Interval: -1})
	if err != nil {
		f.Fatal(err)
	}
	return &testMember{node: n, learner: l}
}

// FuzzReadFrames: whatever bytes arrive, the decoder must return cleanly —
// no panic, no unbounded allocation — and anything it does accept must be
// a fixed point of the codec: re-encoding the decoded frames and decoding
// them again must reproduce the re-encoded stream byte for byte, trace
// annotation included (decoded state is well-formed and loses nothing the
// encoder writes, not just non-crashing).
func FuzzReadFrames(f *testing.F) {
	fuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, sc, err := ReadFramesTraced(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if _, err := WriteFramesTraced(&once, sc, frames); err != nil {
			t.Fatalf("accepted stream failed to re-encode: %v", err)
		}
		again, sc2, err := ReadFramesTraced(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded stream failed to decode: %v", err)
		}
		var twice bytes.Buffer
		if _, err := WriteFramesTraced(&twice, sc2, again); err != nil {
			t.Fatalf("round-tripped stream failed to re-encode: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("encode(decode(x)) is not a fixed point: %d vs %d bytes", once.Len(), twice.Len())
		}
	})
}
