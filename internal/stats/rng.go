package stats

import (
	"math"
	"math/rand"
)

// Noise produces deterministic multiplicative jitter used to emulate
// system noise on the simulated machine (§V runs each workload 20
// times and trims; with noise injected the trimming is meaningful).
type Noise struct {
	rng   *rand.Rand
	sigma float64
}

// NewNoise returns a log-normal noise source with the given sigma
// (standard deviation of log-scale jitter) and seed. sigma = 0 yields
// the constant factor 1.
func NewNoise(sigma float64, seed int64) *Noise {
	return &Noise{rng: rand.New(rand.NewSource(seed)), sigma: sigma}
}

// Reset restarts the source exactly as NewNoise(sigma, seed) builds
// it, in place: the generator's state is a pure function of the seed.
func (n *Noise) Reset(sigma float64, seed int64) {
	n.rng.Seed(seed)
	n.sigma = sigma
}

// Factor draws one multiplicative jitter factor, always positive and
// with median 1. The log-scale draw is clamped to +-1 so pathological
// tails cannot destabilise a simulation run.
func (n *Noise) Factor() float64 {
	if n.sigma == 0 {
		return 1
	}
	x := n.rng.NormFloat64() * n.sigma
	if x > 1 {
		x = 1
	} else if x < -1 {
		x = -1
	}
	return math.Exp(x)
}
