package firmware

import "math/rand"

// hazardRNG draws exactly the values rand.New(rand.NewSource(seed)).Float64()
// returns, draw for draw, but seeds in O(1).
//
// Go's source is an additive lagged-Fibonacci generator over 607 words with
// tap 273. Its Seed sets word i from outputs 21+3i, 22+3i and 23+3i of the
// Lehmer LCG x ← 48271·x mod (2³¹−1) started at the seed, XORed with a fixed
// table: about 1,840 multiplies before the first draw, while a stream draws
// a few dozen to a few hundred times. Output k of the LCG is
// seed·48271^k mod (2³¹−1), so with a table of powers any word is three
// multiplies away. Here Seed only bumps a generation, and each word is
// computed on first use; a word belongs to the current seed when its stamp
// equals the generation.
type hazardRNG struct {
	x         uint64 // the normalized seed: output 0 of the LCG
	gen       uint32 // the current seed's generation
	tap, feed int
	vec       [rngLen]int64
	stamp     [rngLen]uint32 // vec[i] is live when stamp[i] == gen
}

const (
	rngLen = 607
	rngTap = 273
	lcgMod = 1<<31 - 1
	lcgMul = 48271
)

var (
	// lcgPow[k] is 48271^k mod (2³¹−1), up to the last output Seed uses.
	lcgPow [21 + 3*rngLen]uint64
	// rngCooked is math/rand's unexported table of the same name.
	rngCooked [rngLen]int64
)

// init builds the power table and derives rngCooked from math/rand itself,
// which ties the draws to the stdlib that defines them. The first 607
// outputs of a seed-1 source give its initial register: out[n] adds the
// register's feed word (333−n mod 607) to its tap word, which is the initial
// word 606−n for n < 273 and out[n−273] after. XOR with seed 1's LCG words
// leaves the table.
func init() {
	lcgPow[0] = 1
	for k := 1; k < len(lcgPow); k++ {
		lcgPow[k] = lcgPow[k-1] * lcgMul % lcgMod
	}
	src := rand.NewSource(1).(rand.Source64)
	var out, v [rngLen]int64
	for n := range out {
		out[n] = int64(src.Uint64())
	}
	for n := rngTap; n < rngLen; n++ { // feed words 0–60 and 334–606
		v[(rngLen-rngTap-1-n+rngLen)%rngLen] = out[n] - out[n-rngTap]
	}
	for n := 0; n < rngTap; n++ { // feed words 333 down to 61
		v[rngLen-rngTap-1-n] = out[n] - v[rngLen-1-n]
	}
	for i := range rngCooked {
		rngCooked[i] = v[i] ^ lcgWord(1, i)
	}
}

// lcgWord is word i of the register Seed(x) fills, before the XOR with
// rngCooked.
func lcgWord(x uint64, i int) int64 {
	k := 21 + 3*i
	a := x * lcgPow[k] % lcgMod
	b := x * lcgPow[k+1] % lcgMod
	c := x * lcgPow[k+2] % lcgMod
	return int64(a<<40 ^ b<<20 ^ c)
}

// Seed starts the sequence of rand.NewSource(seed). Seed before drawing.
func (r *hazardRNG) Seed(seed int64) {
	r.tap, r.feed = 0, rngLen-rngTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	r.x = uint64(seed)
	r.gen++
	if r.gen == 0 { // wrapped: an old stamp could match the new generation
		r.stamp = [rngLen]uint32{}
		r.gen = 1
	}
}

// word returns register word i, computing it on its first use this seed.
func (r *hazardRNG) word(i int) int64 {
	if r.stamp[i] != r.gen {
		r.stamp[i] = r.gen
		r.vec[i] = lcgWord(r.x, i) ^ rngCooked[i]
	}
	return r.vec[i]
}

// Int63 is math/rand's rngSource.Int63.
func (r *hazardRNG) Int63() int64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.word(r.feed) + r.word(r.tap)
	r.vec[r.feed] = x
	return x & (1<<63 - 1)
}

// Float64 is math/rand's Rand.Float64, resampling on the rare round-up to 1.
func (r *hazardRNG) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}
