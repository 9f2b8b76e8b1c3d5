package cluster

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/trace"
)

// Golden gossip stream: testdata/gossip_v3.bin pins the version-3 frame
// encoding byte for byte. A failure after an intentional format change is
// a wire break — bump wireVersion and regenerate with
//
//	go test ./internal/cluster -run TestGoldenGossipStream -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/gossip_v3.bin")

func goldenGossipPath() string { return filepath.Join("testdata", "gossip_v3.bin") }

// goldenSpan is the fixed trace annotation stamped into the golden stream.
var goldenSpan = trace.SpanContext{
	TraceID: trace.TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36},
	SpanID:  trace.SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7},
}

// goldenGossipStream encodes one traced stream holding a digest frame, a
// full frame, and a delta frame, all from deterministic training.
func goldenGossipStream(t *testing.T) []byte {
	t.Helper()
	b := newMember(t, "node-b")
	train(b, datagen.RCV1Like(4).Take(300))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	frames := b.node.BuildFrames(map[string]int64{}, true)
	if len(frames) != 2 || frames[0].Kind != kindDigest || frames[1].Kind != kindFull {
		t.Fatalf("want digest+full frames, got %d", len(frames))
	}
	train(b, datagen.RCV1Like(44).Take(30))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	delta := b.node.BuildFrames(map[string]int64{"node-b": frames[1].Version}, false)
	if len(delta) != 1 || delta[0].Kind != kindDelta {
		t.Fatalf("want one delta frame, got %d", len(delta))
	}
	var buf bytes.Buffer
	if _, err := WriteFramesTraced(&buf, goldenSpan, append(frames, delta...)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenGossipStream requires a fresh encode to equal the committed
// bytes, and decode→re-encode of the committed bytes to reproduce them.
func TestGoldenGossipStream(t *testing.T) {
	want := goldenGossipStream(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenGossipPath(), want, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(want), goldenGossipPath())
	}
	blob, err := os.ReadFile(goldenGossipPath())
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(want, blob) {
		t.Fatalf("encoder output diverged from committed golden bytes (%d vs %d bytes) — a wire-version-%d break",
			len(want), len(blob), wireVersion)
	}
	frames, sc, err := ReadFramesTraced(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("decode golden stream: %v", err)
	}
	if sc != goldenSpan {
		t.Fatalf("trace annotation %v, want %v", sc, goldenSpan)
	}
	var again bytes.Buffer
	if _, err := WriteFramesTraced(&again, sc, frames); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), blob) {
		t.Fatal("decode→re-encode did not reproduce the golden bytes")
	}
}
