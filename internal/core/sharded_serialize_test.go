package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"sync"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// Checkpoint/restore tests for the Sharded learner: per-shard state must
// survive a WriteTo/LoadSharded round trip exactly, including while training
// continues on other goroutines.

func TestShardedCheckpointRoundTrip(t *testing.T) {
	cfg := Config{Width: 512, Depth: 1, HeapSize: 64, Lambda: 1e-5, Seed: 21}
	s := NewSharded(cfg, ShardedOptions{Workers: 3, SyncEvery: -1})
	defer s.Close()
	gen := datagen.RCV1Like(8)
	data := gen.Take(3000)
	for i := 0; i+64 <= len(data); i += 64 {
		s.UpdateBatch(data[i : i+64])
	}

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	s.Sync() // learner must still be live after a checkpoint

	got, err := LoadSharded(bytes.NewReader(buf.Bytes()), nil, nil, ShardedOptions{})
	if err != nil {
		t.Fatalf("LoadSharded: %v", err)
	}
	defer got.Close()

	if got.Steps() != s.Steps() {
		t.Errorf("steps %d != %d", got.Steps(), s.Steps())
	}
	for i := uint32(0); i < 2048; i++ {
		if g, w := got.Estimate(i), s.Estimate(i); g != w {
			t.Fatalf("Estimate(%d) = %v, want %v", i, g, w)
		}
	}
	probe := gen.Next().X
	if g, w := got.Predict(probe), s.Predict(probe); g != w {
		t.Fatalf("Predict = %v, want %v", g, w)
	}
	gotTop, wantTop := got.TopK(16), s.TopK(16)
	if len(gotTop) != len(wantTop) {
		t.Fatalf("TopK lengths %d vs %d", len(gotTop), len(wantTop))
	}
	for i := range wantTop {
		if gotTop[i] != wantTop[i] {
			t.Fatalf("TopK[%d] = %+v, want %+v", i, gotTop[i], wantTop[i])
		}
	}

	// The restored learner must keep training.
	got.Update(probe, 1)
	got.Sync()
}

// TestShardedCheckpointGolden pins the checkpoint format: testdata/
// sharded_v1.ckpt was written by an earlier release (Workers 2, width 64,
// depth 1, heap 8, λ=1e-5, seed 21, the first 500 RCV1Like(8) examples fed
// one at a time through Update). It must load, re-serialize byte for byte,
// and match a learner trained the same way today.
func TestShardedCheckpointGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/sharded_v1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadSharded(bytes.NewReader(golden), nil, nil, ShardedOptions{})
	if err != nil {
		t.Fatalf("LoadSharded: %v", err)
	}
	defer got.Close()
	var buf bytes.Buffer
	if _, err := got.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("re-serialized checkpoint differs from the golden file (%d vs %d bytes)", buf.Len(), len(golden))
	}

	cfg := Config{Width: 64, Depth: 1, HeapSize: 8, Lambda: 1e-5, Seed: 21}
	s := NewSharded(cfg, ShardedOptions{Workers: 2})
	defer s.Close()
	for _, ex := range datagen.RCV1Like(8).Take(500) {
		s.Update(ex.X, ex.Y)
	}
	buf.Reset()
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("a freshly trained learner no longer writes the golden checkpoint")
	}
}

// TestShardedCheckpointAfterClose covers the quiescent path: a closed
// learner serializes without the freeze handshake.
func TestShardedCheckpointAfterClose(t *testing.T) {
	cfg := Config{Width: 128, Depth: 2, HeapSize: 16, Lambda: 0, Seed: 5}
	s := NewSharded(cfg, ShardedOptions{Workers: 2, SyncEvery: -1})
	gen := datagen.RCV1Like(3)
	for _, ex := range gen.Take(500) {
		s.Update(ex.X, ex.Y)
	}
	s.Close()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSharded(&buf, nil, nil, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	for i := uint32(0); i < 512; i++ {
		if g, w := got.Estimate(i), s.Estimate(i); g != w {
			t.Fatalf("Estimate(%d) = %v, want %v", i, g, w)
		}
	}
}

// TestShardedCheckpointConcurrentWithUpdates exercises the freeze handshake
// under contention: checkpoints interleave with concurrent Update callers
// and must neither deadlock nor corrupt state (-race covers the rest).
func TestShardedCheckpointConcurrentWithUpdates(t *testing.T) {
	cfg := Config{Width: 256, Depth: 1, HeapSize: 32, Lambda: 1e-6, Seed: 2}
	s := NewSharded(cfg, ShardedOptions{Workers: 2, SyncEvery: -1})
	defer s.Close()
	gen := datagen.RCV1Like(4)
	data := gen.Take(2000)

	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := off; i < len(data); i += 2 {
				s.Update(data[i].X, data[i].Y)
			}
		}(p)
	}
	for c := 0; c < 5; c++ {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Errorf("checkpoint %d: %v", c, err)
		}
		got, err := LoadSharded(&buf, nil, nil, ShardedOptions{})
		if err != nil {
			t.Fatalf("checkpoint %d: %v", c, err)
		}
		got.Close()
	}
	wg.Wait()
}

func TestLoadShardedRejectsCorruptHeader(t *testing.T) {
	cfg := Config{Width: 64, Depth: 1, HeapSize: 8, Lambda: 0, Seed: 1}
	s := NewSharded(cfg, ShardedOptions{Workers: 1, SyncEvery: -1})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()
	blob := buf.Bytes()

	// withWord overwrites the little-endian header word at off (magic=0,
	// version=4, variant=8, workers=12).
	withWord := func(off int, v uint32) []byte {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[off:], v)
		return bad
	}
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"implausible worker count", withWord(12, 0x7fffffff)},
		{"variant 1", withWord(8, 1)},
		{"variant 0xFFFFFFFF", withWord(8, 0xFFFFFFFF)},
		{"truncated shard payload", blob[:len(blob)-9]},
	} {
		if _, err := LoadSharded(bytes.NewReader(tc.blob), nil, nil, ShardedOptions{}); err == nil {
			t.Errorf("%s: must be rejected", tc.name)
		}
	}
}

var _ stream.Learner = (*Sharded)(nil)
