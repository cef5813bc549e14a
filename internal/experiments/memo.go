package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"memthrottle/internal/core"
	"memthrottle/internal/simsched"
	"memthrottle/internal/stream"
)

// staticKey identifies one static-MTL (core.Fixed{K}) trimmed
// measurement. The program is identified structurally — name plus
// per-phase shape — rather than by pointer, because the workload
// library rebuilds identical programs for every figure; the config is
// the flat simsched.Config value with the seed normalised away
// (runTrimmed overrides it per repetition).
type staticKey struct {
	prog string
	cfg  simsched.Config
	reps int
	keep int
	k    int
}

// progFingerprint summarises a program's full structure. Phases built
// by stream.Build carry identical pairs, so the first pair of each
// phase determines the rest.
func progFingerprint(p *stream.Program) string {
	var b strings.Builder
	b.WriteString(p.Name)
	for _, ph := range p.Phases {
		pr := ph.Pairs[0]
		fmt.Fprintf(&b, "|%s:%d:%g:%g", ph.Name, len(ph.Pairs), pr.Gather.Bytes, float64(pr.Compute.Work))
		if pr.Scatter != nil {
			fmt.Fprintf(&b, ":s%g", pr.Scatter.Bytes)
		}
	}
	return b.String()
}

// staticEntry is a singleflight slot: the first requester runs the
// measurement, concurrent requesters block on once and share the result.
type staticEntry struct {
	once sync.Once
	t    float64
	rep  simsched.Result
}

// staticMemo caches static-MTL trimmed means per (program, config, K).
// A fixed MTL is a pure function of the key — no controller state, the
// same seeds every time — and the figures ask for the same points again
// and again: every speedup is over MTL = n, the offline search and the
// Fig. 13 sweeps revisit each other's grids. The cached values are
// deterministic (seeded runs), so memoisation never changes a reported
// number — it only removes repeated work.
type staticMemo struct {
	mu     sync.Mutex
	m      map[staticKey]*staticEntry
	hits   atomic.Uint64
	misses atomic.Uint64
}

func newStaticMemo() *staticMemo {
	return &staticMemo{m: make(map[staticKey]*staticEntry)}
}

// Static returns the trimmed-mean total time and representative result
// of the fixed MTL = k schedule for prog on cfg, computing it at most
// once per (program, config, methodology, k). Callers must treat the
// returned Result as read-only: it is shared.
func (e Env) Static(prog *stream.Program, cfg simsched.Config, k int) (float64, simsched.Result) {
	mk := func() core.Throttler { return core.Fixed{K: k} }
	if e.memo == nil { // zero-value Env: fall back to an uncached run
		return e.runTrimmed(prog, cfg, mk)
	}
	key := staticKey{prog: progFingerprint(prog), cfg: cfg, reps: e.Reps, keep: e.Keep, k: k}
	key.cfg.Seed = 0
	e.memo.mu.Lock()
	ent := e.memo.m[key]
	if ent == nil {
		ent = &staticEntry{}
		e.memo.m[key] = ent
		e.memo.misses.Add(1)
	} else {
		e.memo.hits.Add(1)
	}
	e.memo.mu.Unlock()
	ent.once.Do(func() { ent.t, ent.rep = e.runTrimmed(prog, cfg, mk) })
	return ent.t, ent.rep
}

// Baseline is the conventional interference-oblivious schedule every
// speedup is measured against: Static at MTL = n.
func (e Env) Baseline(prog *stream.Program, cfg simsched.Config) (float64, simsched.Result) {
	return e.Static(prog, cfg, cfg.Machine.HardwareThreads())
}

// MemoStats reports (hits, misses) of the static-MTL memo, for tests
// and CLI diagnostics.
func (e Env) MemoStats() (hits, misses uint64) {
	if e.memo == nil {
		return 0, 0
	}
	return e.memo.hits.Load(), e.memo.misses.Load()
}
