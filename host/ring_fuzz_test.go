package host

import "testing"

// FuzzMpmcRing runs an arbitrary single-threaded push/pop program
// against a plain FIFO model at a fuzzed capacity. With no concurrent
// peers the ring's weak contract tightens to an exact one — push fails
// iff full, pop fails iff empty, FIFO order, exact length — so any
// divergence from the model is a real slot-sequence bug, not a
// tolerated spurious answer. Capacity edges (the minimum 2, exact
// powers of two, wraparound after many laps) come from the fuzzer.
func FuzzMpmcRing(f *testing.F) {
	f.Add(2, []byte{0, 0, 0, 1, 1, 1})
	f.Add(2, []byte{0, 0, 1, 0, 1, 0, 1, 1})
	f.Add(4, []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(64, []byte{0, 0, 0, 0, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, capHint int, ops []byte) {
		capacity := ceilPow2(capHint & 63)
		r := newMPMCRing(capacity)
		jobs := make([]pairRec, len(ops))
		var model []*pairRec
		next := 0
		for i, op := range ops {
			if op&1 == 0 {
				j := &jobs[next]
				ok := r.push(j)
				if want := len(model) < capacity; ok != want {
					t.Fatalf("op %d: push ok = %v with %d/%d occupied", i, ok, len(model), capacity)
				}
				if ok {
					model = append(model, j)
					next++
				}
			} else {
				j := r.pop()
				if len(model) == 0 {
					if j != nil {
						t.Fatalf("op %d: pop returned %p from an empty ring", i, j)
					}
				} else {
					if j != model[0] {
						t.Fatalf("op %d: pop returned %p, FIFO order wants %p", i, j, model[0])
					}
					model = model[1:]
				}
			}
			if got := r.length(); got != len(model) {
				t.Fatalf("op %d: length = %d, model holds %d", i, got, len(model))
			}
		}
		for len(model) > 0 {
			if j := r.pop(); j != model[0] {
				t.Fatalf("drain: pop returned %p, want %p", j, model[0])
			}
			model = model[1:]
		}
		if j := r.pop(); j != nil {
			t.Fatalf("drained ring still popped %p", j)
		}
	})
}

// FuzzCeilPow2 pins the ring-sizing helper: the result is always a
// power of two, at least 2, at least n, and minimal.
func FuzzCeilPow2(f *testing.F) {
	f.Add(0)
	f.Add(1)
	f.Add(2)
	f.Add(3)
	f.Add(1 << 20)
	f.Fuzz(func(t *testing.T, n int) {
		if n > 1<<30 {
			t.Skip() // doubling loop would overflow toward negative
		}
		p := ceilPow2(n)
		if p < 2 || p&(p-1) != 0 {
			t.Fatalf("ceilPow2(%d) = %d, not a power of two >= 2", n, p)
		}
		if p < n {
			t.Fatalf("ceilPow2(%d) = %d, below n", n, p)
		}
		if n > 2 && p/2 >= n {
			t.Fatalf("ceilPow2(%d) = %d, not minimal", n, p)
		}
	})
}

// TestMpmcRingCapacityValidation pins the constructor's panic contract:
// capacity 1 is unsound for the slot-sequence design (see newMPMCRing)
// and non-powers-of-two break the mask arithmetic.
func TestMpmcRingCapacityValidation(t *testing.T) {
	for _, capacity := range []int{-1, 0, 1, 3, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newMPMCRing(%d) accepted an invalid capacity", capacity)
				}
			}()
			newMPMCRing(capacity)
		}()
	}
	for _, capacity := range []int{2, 4, 1 << 16} {
		r := newMPMCRing(capacity)
		if len(r.slots) != capacity {
			t.Errorf("newMPMCRing(%d) allocated %d slots", capacity, len(r.slots))
		}
	}
}
