package host

import "sync/atomic"

// deque is a bounded single-owner work-stealing deque (Chase–Lev): the
// owning worker pushes and pops at the bottom (LIFO, cache-warm — a
// just-gathered pair's compute task is taken next by the same worker),
// thieves take from the top (FIFO, the owner's oldest job). All
// cross-goroutine access goes through atomics; Go's sequentially-
// consistent atomics subsume the fences the original algorithm needs.
//
// The ring is fixed-size. The owner is the only pusher, so a full ring
// is reported to the caller, which spills to the phase's mutex-guarded
// overflow list (the Go scheduler's local-runq + global-runq idiom).
// Capacity covers the common case exactly — the initial share plus the
// successors a worker generates — and the spill path keeps pathological
// shapes (one worker absorbing every scatter while gate-blocked)
// correct rather than wedged.
// Layout: top is CAS-hot under thieves, bottom is store-hot under the
// owner, and mask/ring are immutable after construction. Packed on one
// line (the pre-padding layout) every owner push/pop invalidated the
// line mid-CAS under every scanning thief — and vice versa — even when
// the deque was empty; padded apart, an idle thief's top/mask reads
// stay in shared state across the owner's pushes. The exact 64-byte
// gap between top and bottom keeps them on distinct lines for any
// allocator alignment of the struct.
type deque struct {
	top    atomic.Int64 // next steal slot (thief CAS-hot)
	_      [56]byte
	bottom atomic.Int64 // next push slot (owner store-hot)
	_      [56]byte
	mask   int64 // immutable
	ring   []atomic.Pointer[pairRec]
}

// newDeque builds a deque holding at least capacity jobs, rounded up
// to a power of two within [8, 4096].
func newDeque(capacity int) *deque {
	n := 8
	for n < capacity && n < 4096 {
		n <<= 1
	}
	return &deque{mask: int64(n - 1), ring: make([]atomic.Pointer[pairRec], n)}
}

// push appends at the bottom. Owner-only. Returns false when the ring
// is full; the caller spills to the overflow list.
func (d *deque) push(j *pairRec) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	if b-t > d.mask {
		return false
	}
	d.ring[b&d.mask].Store(j)
	d.bottom.Store(b + 1)
	return true
}

// popBottom takes the most recently pushed job. Owner-only.
func (d *deque) popBottom() *pairRec {
	b := d.bottom.Load()
	if d.top.Load() >= b {
		// Empty: stay read-only so idle polling does not bounce the
		// bottom cache line under the thieves.
		return nil
	}
	b--
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Raced empty: undo the reservation.
		d.bottom.Store(b + 1)
		return nil
	}
	j := d.ring[b&d.mask].Load()
	if t == b {
		// Last element: race the thieves for it.
		if !d.top.CompareAndSwap(t, t+1) {
			j = nil // a thief won
		}
		d.bottom.Store(b + 1)
	}
	return j
}

// steal takes the oldest job. Any goroutine. retry reports a CAS race
// with another thief or the owner: the deque may still hold work, so
// the caller should try again before moving to the next victim.
func (d *deque) steal() (j *pairRec, retry bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	j = d.ring[t&d.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, true
	}
	return j, false
}

// size reports a racy snapshot of the element count (observability
// only — never used for correctness decisions).
func (d *deque) size() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
