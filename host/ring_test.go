package host

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// length reports the ring's approximate occupancy (racy: exact only
// while no push or pop is in flight). The runtime never reads it.
func (r *mpmcRing) length() int {
	t, h := r.tail.Load(), r.head.Load()
	if t <= h {
		return 0
	}
	return int(t - h)
}

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
