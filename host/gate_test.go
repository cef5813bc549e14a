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
				if !g.tryAcquire() {
					continue
				}
				if n := inside.Add(1); n > limit {
					t.Errorf("%d tasks inside the gate, limit %d", n, limit)
				}
				admitted.Add(1)
				inside.Add(-1)
				g.release()
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
	if !g.tryAcquire() {
		t.Fatal("first acquire failed")
	}
	if g.tryAcquire() {
		t.Fatal("second acquire passed a limit of 1")
	}
	g.limit.Store(2)
	if !g.tryAcquire() {
		t.Fatal("acquire failed after the limit was raised")
	}
	g.release()
	g.release()
}

// TestGateOps pins the one-slot gate primitives both disciplines admit
// through: tryAcquire claims up to the limit and is refused past it,
// release hands a slot back, the peak keeps the high-water mark, and a
// release below zero panics.
func TestGateOps(t *testing.T) {
	var g gate
	g.limit.Store(3)
	for i := 0; i < 3; i++ {
		if !g.tryAcquire() {
			t.Fatalf("acquire %d refused under a limit of 3", i+1)
		}
	}
	if g.tryAcquire() {
		t.Fatal("acquire passed a full gate")
	}
	g.release()
	if got := g.active.Load(); got != 2 {
		t.Fatalf("active = %d after one release, want 2", got)
	}
	if got := g.peak.Load(); got != 3 {
		t.Fatalf("peak = %d, want 3", got)
	}
	if !g.tryAcquire() {
		t.Fatal("acquire refused after a release")
	}
	for i := 0; i < 3; i++ {
		g.release()
	}
	defer func() {
		if recover() == nil {
			t.Error("release below zero did not panic")
		}
	}()
	g.release()
}

// TestLotUnparkAll pins the phase-wide wakeup: one call wakes every
// parked worker, each with exactly one token, and leaves the lot empty.
func TestLotUnparkAll(t *testing.T) {
	var l lot
	parkers := make([]*parker, 5)
	for i := range parkers {
		parkers[i] = &parker{token: make(chan struct{}, 1)}
		l.enqueue(parkers[i])
	}
	l.unparkAll()
	if len(l.parked) != 0 {
		t.Fatalf("%d parkers left after unparkAll", len(l.parked))
	}
	for i, p := range parkers {
		if p.queued {
			t.Fatalf("parker %d still marked queued", i)
		}
		select {
		case <-p.token:
		default:
			t.Fatalf("parker %d has no token after unparkAll", i)
		}
	}
	l.unparkAll() // an empty lot: nothing to wake, nothing blocks
	if l.unparkOne() {
		t.Fatal("unparkOne woke someone on an empty lot")
	}
}
