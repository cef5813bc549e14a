package stats

import (
	"math"
	"math/rand"
	"sync"
)

// Noise produces deterministic multiplicative jitter used to emulate
// system noise on the simulated machine (§V runs each workload 20
// times and trims; with noise injected the trimming is meaningful).
type Noise struct {
	s *noiseStream // nil: sigma = 0, every factor is 1
	f []float64    // s's factors as of the last look, read without the lock
	i int          // index of the next factor
}

// NewNoise returns a log-normal noise source with the given sigma
// (standard deviation of log-scale jitter) and seed. sigma = 0 yields
// the constant factor 1.
func NewNoise(sigma float64, seed int64) *Noise {
	n := new(Noise)
	n.Reset(sigma, seed)
	return n
}

// Reset restarts the source exactly as NewNoise(sigma, seed) builds
// it, in place: the factors are a pure function of sigma and the seed,
// so a reset only finds their stream and rewinds to its start.
func (n *Noise) Reset(sigma float64, seed int64) {
	n.s, n.f, n.i = nil, nil, 0
	if sigma != 0 {
		n.s = streamOf(sigma, seed)
	}
}

// Factor draws one multiplicative jitter factor, always positive and
// with median 1. The log-scale draw is clamped to +-1 so pathological
// tails cannot destabilise a simulation run.
func (n *Noise) Factor() float64 {
	if n.s == nil {
		return 1
	}
	if n.i == len(n.f) {
		n.f = n.s.prefix(n.i + 1)
	}
	x := n.f[n.i]
	n.i++
	return x
}

// noiseStream is the factor sequence of one (sigma, seed), shared by
// every Noise of that pair in the process. A sweep makes thousands of
// runs over about a hundred (sigma, seed) pairs; reseeding a generator
// per run costs ~8 µs and redraws the same factors, so the first run
// to need a factor draws it and every later run reads it. The sequence only
// grows: a slice handed out under mu is never written within its
// length, so readers index it without the lock.
type noiseStream struct {
	mu    sync.Mutex
	sigma float64
	rng   *rand.Rand
	f     []float64
}

// noiseChunk is how many factors a stream draws at a time.
const noiseChunk = 1024

type noiseKey struct {
	sigma float64
	seed  int64
}

// noiseStreams holds every stream drawn in this process, under
// noiseMu. It grows with the distinct (sigma, seed) pairs used, each
// stream as long as the longest run of its pair: 8 bytes a factor.
var (
	noiseMu      sync.Mutex
	noiseStreams = make(map[noiseKey]*noiseStream)
)

// streamOf returns the stream of (sigma, seed), creating it empty.
func streamOf(sigma float64, seed int64) *noiseStream {
	k := noiseKey{sigma, seed}
	noiseMu.Lock()
	defer noiseMu.Unlock()
	s := noiseStreams[k]
	if s == nil {
		s = &noiseStream{sigma: sigma, rng: rand.New(rand.NewSource(seed))}
		noiseStreams[k] = s
	}
	return s
}

// prefix returns the stream's factors, first drawing whole chunks
// until it holds at least n.
func (s *noiseStream) prefix(n int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.f) < n {
		for range noiseChunk {
			s.f = append(s.f, s.draw())
		}
	}
	return s.f
}

// draw is one factor: a log-scale normal draw times sigma, clamped to
// +-1, exponentiated.
func (s *noiseStream) draw() float64 {
	x := s.rng.NormFloat64() * s.sigma
	if x > 1 {
		x = 1
	} else if x < -1 {
		x = -1
	}
	return math.Exp(x)
}
