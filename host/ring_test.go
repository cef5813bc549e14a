package host

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{-3: 2, 0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestRingFIFO(t *testing.T) {
	r := newMPMCRing(4)
	jobs := make([]pairRec, 6)
	for i := 0; i < 4; i++ {
		if !r.push(&jobs[i]) {
			t.Fatalf("push %d failed on empty-enough ring", i)
		}
	}
	if r.push(&jobs[4]) {
		t.Fatal("push succeeded on a full ring")
	}
	if got := r.length(); got != 4 {
		t.Fatalf("length = %d, want 4", got)
	}
	for i := 0; i < 4; i++ {
		if got := r.pop(); got != &jobs[i] {
			t.Fatalf("pop %d returned wrong job", i)
		}
	}
	if r.pop() != nil {
		t.Fatal("pop returned a job from an empty ring")
	}
	// Wrap around a few laps: the per-slot sequences must keep lining
	// up with the head/tail tickets.
	for lap := 0; lap < 3; lap++ {
		for i := 0; i < 3; i++ {
			if !r.push(&jobs[i]) {
				t.Fatalf("lap %d push %d failed", lap, i)
			}
		}
		for i := 0; i < 3; i++ {
			if got := r.pop(); got != &jobs[i] {
				t.Fatalf("lap %d pop %d returned wrong job", lap, i)
			}
		}
	}
}

func TestRingCapacityTwo(t *testing.T) {
	// The minimum capacity: exercise the lap arithmetic at its
	// tightest (capacity 1 is rejected — sequence values for "published
	// this lap" and "free next lap" would collide).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("newMPMCRing(1) did not panic")
			}
		}()
		newMPMCRing(1)
	}()
	r := newMPMCRing(2)
	var j1, j2 pairRec
	for lap := 0; lap < 5; lap++ {
		if !r.push(&j1) || !r.push(&j2) {
			t.Fatalf("lap %d: push failed", lap)
		}
		if r.push(&j1) {
			t.Fatalf("lap %d: push succeeded on full ring", lap)
		}
		if r.pop() != &j1 || r.pop() != &j2 {
			t.Fatalf("lap %d: pop order wrong", lap)
		}
		if r.pop() != nil {
			t.Fatalf("lap %d: pop on empty ring returned a job", lap)
		}
	}
}

func TestRingConcurrent(t *testing.T) {
	// Hammer the ring from both ends and check conservation: every
	// pushed job is popped exactly once.
	const (
		producers = 4
		consumers = 4
		perProd   = 5000
	)
	r := newMPMCRing(64)
	jobs := make([]pairRec, producers*perProd)
	counts := make([]atomic.Int32, len(jobs))
	for i := range jobs {
		jobs[i].seq = int64(i)
	}
	var prodWG, consWG sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			for {
				j := r.pop()
				if j == nil {
					select {
					case <-done:
						if j = r.pop(); j == nil {
							return
						}
					default:
						runtime.Gosched()
						continue
					}
				}
				counts[j.seq].Add(1)
			}
		}()
	}
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for i := 0; i < perProd; i++ {
				for !r.push(&jobs[p*perProd+i]) {
					runtime.Gosched() // full: spurious or real — retry
				}
			}
		}(p)
	}
	prodWG.Wait()
	close(done)
	consWG.Wait()
	// Drain any stragglers left between the consumers' final checks.
	for j := r.pop(); j != nil; j = r.pop() {
		counts[j.seq].Add(1)
	}
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("job %d popped %d times, want exactly once", i, n)
		}
	}
}

// TestGateBatchOps pins the batched gate primitives the serving pump is
// built on: one tryAcquireN CAS claims min(free, max) slots, releaseN
// returns them, and the peak tracks the high-water mark.
func TestGateBatchOps(t *testing.T) {
	var g gate
	g.limit.Store(8)
	if n := g.tryAcquireN(32); n != 8 {
		t.Fatalf("tryAcquireN(32) on an empty 8-limit gate = %d, want 8", n)
	}
	if n := g.tryAcquireN(1); n != 0 {
		t.Fatalf("tryAcquireN on a full gate = %d, want 0", n)
	}
	g.releaseN(5)
	if n := g.tryAcquireN(3); n != 3 {
		t.Fatalf("tryAcquireN(3) with 5 free = %d, want 3", n)
	}
	if got := g.active.Load(); got != 6 {
		t.Fatalf("active = %d, want 6", got)
	}
	if got := g.peak.Load(); got != 8 {
		t.Fatalf("peak = %d, want 8", got)
	}
	if n := g.tryAcquireN(0); n != 0 {
		t.Fatalf("tryAcquireN(0) = %d, want 0", n)
	}
	g.releaseN(6)
	defer func() {
		if recover() == nil {
			t.Error("releaseN below zero did not panic")
		}
	}()
	g.releaseN(1)
}

// TestLotUnparkN pins the batched wakeup: one call wakes up to n
// parked workers under a single lock acquisition.
func TestLotUnparkN(t *testing.T) {
	var l lot
	parkers := make([]*parker, 5)
	for i := range parkers {
		parkers[i] = &parker{token: make(chan struct{}, 1)}
		l.enqueue(parkers[i])
	}
	if woken := l.unparkN(3); woken != 3 {
		t.Fatalf("unparkN(3) woke %d, want 3", woken)
	}
	if woken := l.unparkN(10); woken != 2 {
		t.Fatalf("unparkN(10) with 2 parked woke %d, want 2", woken)
	}
	if woken := l.unparkN(1); woken != 0 {
		t.Fatalf("unparkN on an empty lot woke %d, want 0", woken)
	}
	for i, p := range parkers {
		select {
		case <-p.token:
		default:
			t.Fatalf("parker %d has no token after unparkN", i)
		}
	}
}
