package firmware

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// rngCounts are draw counts on both sides of the generator's boundaries:
// the tap lag (273), the first draw whose feed word wraps (334), one full
// register (607) and two (1214).
var rngCounts = []int{1, 9, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1213, 1214, 1215, 2000}

// checkRNG draws n values from r, freshly seeded, and compares each with
// ref seeded the same way.
func checkRNG(t *testing.T, what string, r *hazardRNG, ref *rand.Rand, seed int64, n int) {
	t.Helper()
	r.Seed(seed)
	ref.Seed(seed)
	for i := 0; i < n; i++ {
		if got, want := r.Float64(), ref.Float64(); got != want {
			t.Fatalf("%s: seed %d: draw %d of %d = %v, want %v", what, seed, i, n, got, want)
		}
	}
}

// TestHazardRNGMatchesMathRand pins the generator to math/rand draw for
// draw. One generator is reseeded between seeds, as a firmware's is, so a
// word left from an earlier seed must never be read as the current seed's.
func TestHazardRNGMatchesMathRand(t *testing.T) {
	r := new(hazardRNG)
	ref := rand.New(rand.NewSource(0))
	// 0 and 2³¹−1 both reduce to the LCG's zero, which Seed replaces with
	// 89482311; the negative seeds take the sign fix-up.
	edge := []int64{0, -1, -7, math.MinInt64, 1<<31 - 1, 1 << 31, 89482311, 1 << 40, math.MaxInt64}
	for _, seed := range edge {
		for _, n := range rngCounts {
			checkRNG(t, "edge", r, ref, seed, n)
		}
	}
	for seed := int64(1); seed <= 20000; seed++ {
		checkRNG(t, "consecutive", r, ref, seed, 1+int(seed%97))
	}

	// Stamp wrap-around. The first seed stamps words 34–606 with generation
	// 1 and leaves 0–33 at zero; the next runs in the last generation and
	// restamps fewer words, so the one after wraps. Its words must match
	// neither the stale generation-1 stamps nor the zero stamps.
	r = new(hazardRNG)
	checkRNG(t, "before wrap", r, ref, 11, 300)
	r.gen = math.MaxUint32 - 1
	checkRNG(t, "last generation", r, ref, 12, 50)
	checkRNG(t, "wrapped", r, ref, 13, 1214)
	if r.gen != 1 {
		t.Fatalf("generation after wrap-around = %d, want 1", r.gen)
	}
	checkRNG(t, "after wrap", r, ref, 14, 1214)
}

// TestHazardDrawsMatchSeededRand pins the builder's hazard bits to the
// contract: hazard i of a stream seeded s is
// rand.New(rand.NewSource(s)).Float64() < hf at draw i. One source serves
// every stream, as in a firmware, across seeds and fractions; two firmwares
// do so at once on separate goroutines, as parallel sweep workers do, so
// the race detector sees any state they share.
func TestHazardDrawsMatchSeededRand(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := &streamSource{}
			seed := int64(0)
			for _, hf := range []float64{0.28, 0.5, 0.05} {
				for _, n := range rngCounts {
					seed++
					ref := rand.New(rand.NewSource(seed))
					b := src.builder(seed, hf)
					for i := 0; i < n; i++ {
						if got, want := b.hazard(), ref.Float64() < hf; got != want {
							t.Errorf("firmware %d: seed %d hf %v: draw %d of %d = %v, want %v", g, seed, hf, i, n, got, want)
							return
						}
					}
					b.build("hazards", 0, 0, -1, nil)
				}
			}
		}()
	}
	wg.Wait()
}
