package host

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestGateNeverExceedsLimit slams the admission CAS from many
// goroutines and verifies the in-flight count never passes the limit
// and every acquire is balanced by a release.
func TestGateNeverExceedsLimit(t *testing.T) {
	const (
		limit      = 3
		goroutines = 32
		rounds     = 5000
	)
	var g gate
	g.limit.Store(limit)
	var inside atomic.Int64
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if g.tryAcquireN(1) == 0 {
					continue
				}
				if n := inside.Add(1); n > limit {
					t.Errorf("%d tasks inside the gate, limit %d", n, limit)
				}
				admitted.Add(1)
				inside.Add(-1)
				g.releaseN(1)
			}
		}()
	}
	wg.Wait()
	if g.active.Load() != 0 {
		t.Fatalf("gate active = %d after all releases", g.active.Load())
	}
	if admitted.Load() == 0 {
		t.Fatal("gate admitted nothing")
	}
	if p := g.peak.Load(); p > limit {
		t.Fatalf("gate peak = %d, limit %d", p, limit)
	}
}

func TestGateLimitRaiseAdmitsMore(t *testing.T) {
	var g gate
	g.limit.Store(1)
	if g.tryAcquireN(1) == 0 {
		t.Fatal("first acquire failed")
	}
	if g.tryAcquireN(1) == 1 {
		t.Fatal("second acquire passed a limit of 1")
	}
	g.limit.Store(2)
	if g.tryAcquireN(1) == 0 {
		t.Fatal("acquire failed after the limit was raised")
	}
	g.releaseN(1)
	g.releaseN(1)
}
