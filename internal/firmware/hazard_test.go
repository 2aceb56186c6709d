package firmware

import (
	"math/rand"
	"sync"
	"testing"
)

// hazardCounts are the draw counts the equivalence tests cover: inside the
// first memo chunk, at each chunk and doubling boundary, and well past the
// point where one stream used to reseed four times.
var hazardCounts = []int{1, 9, 127, 128, 129, 255, 256, 257, 600, 1100}

// hazardFracs are the fractions the tests draw at; each fraction is its own
// memo key, so no test sees another's entries.
var hazardFracs = []float64{0.28, 0.5, 0.05}

// refHazards is the contract: hazard i of a stream seeded s is
// rand.New(rand.NewSource(s)).Float64() < hf at draw i.
func refHazards(seed int64, hf float64, n int) []bool {
	r := rand.New(rand.NewSource(seed))
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Float64() < hf
	}
	return out
}

// drawHazards builds one stream from src that draws n hazards and returns
// them.
func drawHazards(src *streamSource, seed int64, hf float64, n int) []bool {
	b := src.builder(seed, hf)
	out := make([]bool, n)
	for i := range out {
		out[i] = b.hazard()
	}
	b.build("hazards", 0, 0, -1, nil)
	return out
}

// memoLen returns how many draws the memo holds for seed and fraction.
func memoLen(seed int64, hf float64) int {
	e, _ := hazardLookup(seed, hf)
	return e.n
}

func checkHazards(t *testing.T, what string, seed int64, hf float64, got []bool) {
	t.Helper()
	want := refHazards(seed, hf, len(got))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: seed %d hf %v: draw %d of %d = %v, want %v", what, seed, hf, i, len(got), got[i], want[i])
		}
	}
}

// TestHazardDrawsMatchSeededRand pins the builder's hazard bits to a freshly
// seeded math/rand generator for a cold memo, a warm memo, and an entry that
// a longer stream extends. One source serves every stream, as in a firmware,
// so the shared generator is reseeded between seeds and between fractions.
func TestHazardDrawsMatchSeededRand(t *testing.T) {
	src := &streamSource{}
	seed := int64(1 << 40)
	for _, hf := range hazardFracs {
		for _, n := range hazardCounts {
			seed++
			cold := drawHazards(src, seed, hf, n)
			checkHazards(t, "cold", seed, hf, cold)
			want := (n + hazardChunk - 1) / hazardChunk * hazardChunk
			if got := memoLen(seed, hf); got != want {
				t.Errorf("cold %d draws published %d, want %d", n, got, want)
			}

			warm := src.builder(seed, hf)
			for i := 0; i < n; i++ {
				if warm.hazard() != cold[i] {
					t.Fatalf("warm: seed %d hf %v: draw %d differs from the cold run", seed, hf, i)
				}
			}
			if warm.live {
				t.Errorf("warm %d draws on a %d-draw entry drew live", n, memoLen(seed, hf))
			}
			warm.build("warm", 0, 0, -1, nil)

			// Partly cached: a seed gets a one- or two-chunk entry first, then
			// a stream of n draws extends it to at least double.
			for _, prefix := range []int{9, 200} {
				seed++
				checkHazards(t, "prefix", seed, hf, drawHazards(src, seed, hf, prefix))
				have := memoLen(seed, hf)
				checkHazards(t, "extend", seed, hf, drawHazards(src, seed, hf, n))
				want = (max(n, 2*have) + hazardChunk - 1) / hazardChunk * hazardChunk
				if n <= have {
					want = have
				}
				if got := memoLen(seed, hf); got != want {
					t.Errorf("extending a %d-draw entry with %d draws left %d, want %d", have, n, got, want)
				}
				checkHazards(t, "after extend", seed, hf, drawHazards(src, seed, hf, memoLen(seed, hf)))
			}
		}
	}
}

// TestHazardDrawsWithFullMemo: a builder that finds no room in the memo
// draws the same sequence live and publishes nothing.
func TestHazardDrawsWithFullMemo(t *testing.T) {
	src := &streamSource{}
	seed, hf := int64(1<<41), 0.28
	b := src.builder(seed, hf)
	b.ent, b.full = noDraws, true
	got := make([]bool, 600)
	for i := range got {
		got[i] = b.hazard()
	}
	b.build("full", 0, 0, -1, nil)
	checkHazards(t, "full memo", seed, hf, got)
	if n := memoLen(seed, hf); n != 0 {
		t.Errorf("a full memo took a %d-draw entry", n)
	}
}

// TestHazardConcurrentExtension: two firmwares (two sources) on separate
// goroutines extend the same seed's entry at once, as parallel sweep workers
// do. Both see the reference draws, and the entry left behind is a correct
// prefix of the sequence.
func TestHazardConcurrentExtension(t *testing.T) {
	hf := 0.28
	for k := int64(0); k < 8; k++ {
		seed := int64(1<<42) + k
		checkHazards(t, "prefix", seed, hf, drawHazards(&streamSource{}, seed, hf, 9))
		var wg sync.WaitGroup
		got := make([][]bool, 2)
		for g, n := range []int{600, 1100} {
			wg.Add(1)
			go func(g, n int) {
				defer wg.Done()
				got[g] = drawHazards(&streamSource{}, seed, hf, n)
			}(g, n)
		}
		wg.Wait()
		checkHazards(t, "racer 0", seed, hf, got[0])
		checkHazards(t, "racer 1", seed, hf, got[1])
		if n := memoLen(seed, hf); n < 1100 {
			t.Errorf("seed %d: memo holds %d draws after a 1100-draw stream", seed, n)
		}
		checkHazards(t, "memo", seed, hf, drawHazards(&streamSource{}, seed, hf, memoLen(seed, hf)))
	}
}
