package host

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestDequeOwnerLIFO(t *testing.T) {
	d := newDeque(8)
	jobs := make([]pairRec, 3)
	for i := range jobs {
		jobs[i].seq = int64(i)
		if !d.push(&jobs[i]) {
			t.Fatalf("push %d failed on empty deque", i)
		}
	}
	for want := 2; want >= 0; want-- {
		j := d.popBottom()
		if j == nil || int(j.seq) != want {
			t.Fatalf("popBottom = %v, want id %d", j, want)
		}
	}
	if d.popBottom() != nil {
		t.Fatal("popBottom on empty deque returned a job")
	}
}

func TestDequeBoundedPushSpills(t *testing.T) {
	d := newDeque(8)
	jobs := make([]pairRec, 9)
	for i := 0; i < 8; i++ {
		if !d.push(&jobs[i]) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if d.push(&jobs[8]) {
		t.Fatal("push succeeded on a full deque")
	}
	if got := d.size(); got != 8 {
		t.Fatalf("size = %d, want 8", got)
	}
}

// TestDequeConcurrentStealNoLossNoDup is the deque's correctness
// property under contention: an owner pushing and popping at the
// bottom while thieves hit the top must hand out every job exactly
// once. Runs under -race to validate the atomics.
func TestDequeConcurrentStealNoLossNoDup(t *testing.T) {
	const (
		total   = 20000
		thieves = 8
	)
	d := newDeque(64)
	jobs := make([]pairRec, total)
	taken := make([]atomic.Int32, total)
	count := func(j *pairRec) {
		if j == nil {
			return
		}
		if taken[j.seq].Add(1) != 1 {
			t.Errorf("job %d taken twice", j.seq)
		}
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				j, retry := d.steal()
				if j != nil {
					count(j)
				} else if !retry {
					// Empty right now; the owner may still push more.
					continue
				}
			}
			// Final drain after the owner finishes.
			for {
				j, retry := d.steal()
				if j != nil {
					count(j)
				} else if !retry {
					return
				}
			}
		}()
	}

	// Owner: push everything, popping locally whenever the ring fills
	// and sometimes voluntarily, mixing bottom and top traffic.
	for i := range jobs {
		jobs[i].seq = int64(i)
		for !d.push(&jobs[i]) {
			count(d.popBottom())
		}
		if i%7 == 0 {
			count(d.popBottom())
		}
	}
	for {
		j := d.popBottom()
		if j == nil {
			break
		}
		count(j)
	}
	done.Store(true)
	wg.Wait()

	// The owner can see an empty bottom while a thief still holds the
	// last CAS; after wg.Wait everything is settled.
	for i := range taken {
		if taken[i].Load() != 1 {
			t.Fatalf("job %d taken %d times, want exactly once", i, taken[i].Load())
		}
	}
}

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
