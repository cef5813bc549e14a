package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refNoise is the draw Noise's factors must reproduce: a generator
// seeded per source, one NormFloat64 per factor times sigma, clamped to
// +-1, exponentiated.
type refNoise struct {
	rng   *rand.Rand
	sigma float64
}

func newRefNoise(sigma float64, seed int64) *refNoise {
	return &refNoise{rng: rand.New(rand.NewSource(seed)), sigma: sigma}
}

func (r *refNoise) factor() float64 {
	if r.sigma == 0 {
		return 1
	}
	x := r.rng.NormFloat64() * r.sigma
	if x > 1 {
		x = 1
	} else if x < -1 {
		x = -1
	}
	return math.Exp(x)
}

// noiseSigmas spans the simulator's default, the serving tests' 0.05
// and a sigma at which about half the draws hit the clamp.
var noiseSigmas = []float64{0.003, 0.05, 1.5}

// checkAgainstRef reads n factors from got and ref and fails on the
// first difference.
func checkAgainstRef(t *testing.T, what string, got *Noise, ref *refNoise, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if g, w := got.Factor(), ref.factor(); g != w {
			t.Errorf("%s: factor %d = %v, reference draws %v", what, i, g, w)
			return
		}
	}
}

// TestNoiseMatchesReferenceDraw is the property the shared streams
// rest on: after NewNoise or Reset, Factor returns exactly what a
// generator seeded there would draw, at any sigma, seed and length —
// lengths within one chunk and across several, seeds other sources
// have already read further or less far, and a source reset to another
// seed mid-stream.
func TestNoiseMatchesReferenceDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(20101204))
	seeds := []int64{1, 2, 3, rng.Int63(), rng.Int63()} // small ones recur: streams already long
	moved := NewNoise(noiseSigmas[0], seeds[0])
	for i := 0; i < 60; i++ {
		sigma := noiseSigmas[rng.Intn(len(noiseSigmas))]
		seed := seeds[rng.Intn(len(seeds))]
		if rng.Intn(4) == 0 {
			seed = rng.Int63()
		}
		n := rng.Intn(3 * noiseChunk)
		checkAgainstRef(t, "NewNoise", NewNoise(sigma, seed), newRefNoise(sigma, seed), n)

		// The long-lived source is reset part-way through whatever it
		// read last, onto another (sigma, seed).
		moved.Factor()
		moved.Reset(sigma, seed)
		checkAgainstRef(t, "Reset", moved, newRefNoise(sigma, seed), n)
	}
}

// TestNoiseConcurrentReaders has four goroutines read the same seeds at
// once, each to its own lengths, so streams grow under one reader while
// others index them. Every factor must still be the reference draw;
// under -race (make race) the stream's publication is checked too.
func TestNoiseConcurrentReaders(t *testing.T) {
	const readers = 4
	seeds := []int64{-7, 99991, 1 << 40}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := new(Noise)
			for round := 0; round < 6; round++ {
				for i, seed := range seeds {
					sigma := noiseSigmas[(g+i+round)%len(noiseSigmas)]
					n.Reset(sigma, seed)
					checkAgainstRef(t, "concurrent reader", n, newRefNoise(sigma, seed), (round+1)*(g+1)*noiseChunk/3)
				}
			}
		}(g)
	}
	wg.Wait()
}
