package sketch

import (
	"math"
	"math/rand"
	"testing"
)

// TestLocateMatchesHashedAccess: the Loc-based hash-once API must agree
// exactly with the per-access hashing API at every depth, including the
// depth-1 fast paths.
func TestLocateMatchesHashedAccess(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 5, 8} {
		cs := NewCountSketch(depth, 128, 42)
		rng := rand.New(rand.NewSource(int64(depth)))
		// Populate with arbitrary mass.
		for i := 0; i < 500; i++ {
			cs.Update(uint32(rng.Intn(1000)), rng.NormFloat64())
		}
		locs := make([]Loc, depth)
		for i := 0; i < 200; i++ {
			key := uint32(rng.Intn(1000))
			cs.Locate(key, locs)
			if got, want := cs.SumAt(locs), cs.SumSigned(key); got != want {
				t.Fatalf("depth %d: SumAt(%d) = %v, SumSigned %v", depth, key, got, want)
			}
			if got, want := cs.EstimateAt(locs), cs.Estimate(key); got != want {
				t.Fatalf("depth %d: EstimateAt(%d) = %v, Estimate %v", depth, key, got, want)
			}
		}
		// AddAt must land mass identically to Update.
		a := NewCountSketch(depth, 128, 42)
		b := NewCountSketch(depth, 128, 42)
		for i := 0; i < 300; i++ {
			key := uint32(rng.Intn(1000))
			delta := rng.NormFloat64()
			a.Update(key, delta)
			b.Locate(key, locs)
			b.AddAt(locs, delta)
		}
		for j := 0; j < depth; j++ {
			ra, rb := a.Row(j), b.Row(j)
			for bkt := range ra {
				if ra[bkt] != rb[bkt] {
					t.Fatalf("depth %d: AddAt diverged from Update at [%d][%d]", depth, j, bkt)
				}
			}
		}
	}
}

// TestCloneIndependent: mutating a clone must not affect the original.
func TestCloneIndependent(t *testing.T) {
	cs := NewCountSketch(2, 16, 5)
	cs.Update(1, 3)
	c := cs.Clone()
	c.Update(1, 100)
	if got, want := cs.Estimate(1), 3.0; got != want {
		t.Fatalf("original estimate changed to %v after clone mutation", got)
	}
	if got := c.Estimate(1); got != 103 {
		t.Fatalf("clone estimate = %v, want 103", got)
	}
	// Clones share hash functions: same locations.
	a, b := make([]Loc, 2), make([]Loc, 2)
	cs.Locate(77, a)
	c.Locate(77, b)
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("clone disagrees on hash locations")
		}
	}
}

// TestMidpointPrecision: (a+b)/2 is exact when the sum does not overflow;
// the old a/2+b/2 formulation loses the low bit for subnormals.
func TestMidpointPrecision(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	if got := Median([]float64{sub, sub}); got != sub {
		t.Fatalf("Median(min-subnormal ×2) = %g, want %g (low bit lost)", got, sub)
	}
	if got := Median([]float64{3 * sub, 5 * sub}); got != 4*sub {
		t.Fatalf("Median(3u,5u) = %g, want %g", got, 4*sub)
	}
	// Overflow guard: extreme magnitudes must not produce ±Inf.
	big := math.MaxFloat64
	if got := Median([]float64{big, big}); got != big {
		t.Fatalf("Median(MaxFloat64 ×2) = %g, want %g", got, big)
	}
	if got := Median([]float64{big, big / 2}); math.IsInf(got, 0) {
		t.Fatalf("Median(big, big/2) overflowed to %g", got)
	}
	if got := Median([]float64{-1, 1}); got != 0 {
		t.Fatalf("Median(-1,1) = %g, want 0", got)
	}
}

// Micro-benchmarks of the core sketch operations at the paper's standard
// configurations.

func benchUpdate(b *testing.B, depth, width int) {
	cs := NewCountSketch(depth, width, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Update(uint32(i), 1.5)
	}
}

func benchEstimate(b *testing.B, depth, width int) {
	cs := NewCountSketch(depth, width, 1)
	for i := 0; i < 10000; i++ {
		cs.Update(uint32(i%width), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cs.Estimate(uint32(i))
	}
	_ = sink
}

func BenchmarkCountSketchUpdateDepth1(b *testing.B)   { benchUpdate(b, 1, 4096) }
func BenchmarkCountSketchUpdateDepth4(b *testing.B)   { benchUpdate(b, 4, 1024) }
func BenchmarkCountSketchEstimateDepth1(b *testing.B) { benchEstimate(b, 1, 4096) }
func BenchmarkCountSketchEstimateDepth4(b *testing.B) { benchEstimate(b, 4, 1024) }

func BenchmarkCountSketchLocateSumAdd(b *testing.B) {
	cs := NewCountSketch(2, 1024, 1)
	locs := make([]Loc, 2)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		cs.Locate(uint32(i), locs)
		sink += cs.SumAt(locs)
		cs.AddAt(locs, 0.5)
	}
	_ = sink
}
