package host

import "sync/atomic"

// mpmcRing is a bounded multi-producer multi-consumer ring over
// *pairRec, the classic per-slot-sequence design: each slot carries a
// sequence number that encodes, relative to the head/tail tickets,
// whether the slot is free, full, or mid-handoff. push and pop are one
// ticket CAS plus one slot store each — no locks, no allocation, and
// bounded spinning (a CAS loss retries against fresh tickets; a slot
// mid-handoff by a stalled peer reports full/empty instead of waiting).
//
// The serving path uses two of these: the per-domain pending queue
// (producers: Submit callers; consumers: workers, each popping under
// the gate slot it just claimed, pool.takeMem) and the free-block list
// (both ends contended). Both tolerate spurious "full"/"empty"
// answers, which is exactly the ring's contract: a push that loses its
// slot to a lagging consumer may report full even though a later retry
// would fit, and a pop that meets a slot mid-publish reports empty;
// Submit sheds, and a worker hands its claimed slot back with a nudge,
// rather than spin.
type mpmcRing struct {
	mask  uint64
	slots []ringSlot
	_     [48]byte // keep push/pop tickets off the slots' lines
	head  atomic.Uint64
	_     [56]byte
	tail  atomic.Uint64
}

type ringSlot struct {
	seq atomic.Uint64
	job *pairRec
	_   [48]byte // one slot per cache line: adjacent handoffs don't false-share
}

// newMPMCRing returns a ring with the given capacity, which must be a
// power of two >= 2 (callers size via ceilPow2). Capacity 1 is unsound
// for this design: the push for ticket t treats seq == t as "slot free
// for my lap", but the push for ticket t-capacity leaves seq =
// t-capacity+1, which collides with t when capacity is 1 — a producer
// could then overwrite a slot its consumer hasn't vacated.
func newMPMCRing(capacity int) *mpmcRing {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		panic("host: mpmcRing capacity must be a power of two >= 2")
	}
	r := &mpmcRing{
		mask:  uint64(capacity - 1),
		slots: make([]ringSlot, capacity),
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// push enqueues j, reporting false when the ring is full (or a lagging
// consumer still owns the target slot — the caller treats both as
// full).
func (r *mpmcRing) push(j *pairRec) bool {
	pos := r.tail.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos: // slot free for this ticket
			if r.tail.CompareAndSwap(pos, pos+1) {
				s.job = j
				s.seq.Store(pos + 1) // publish: pop for this ticket may proceed
				return true
			}
			pos = r.tail.Load()
		case seq < pos: // consumer for (pos - capacity) hasn't vacated: full
			return false
		default: // another producer claimed pos; chase the tail
			pos = r.tail.Load()
		}
	}
}

// pop takes the oldest job, or nil when the ring is empty (or the
// producer of the head slot hasn't finished publishing).
func (r *mpmcRing) pop() *pairRec {
	pos := r.head.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos+1: // slot published for this ticket
			if r.head.CompareAndSwap(pos, pos+1) {
				j := s.job
				s.job = nil
				s.seq.Store(pos + uint64(len(r.slots))) // vacate for the next lap
				return j
			}
			pos = r.head.Load()
		case seq <= pos: // nothing published here yet: empty
			return nil
		default: // another consumer claimed pos; chase the head
			pos = r.head.Load()
		}
	}
}

// ceilPow2 rounds n up to the next power of two, with a floor of 2 —
// every caller sizes an mpmcRing, and the ring needs capacity >= 2.
func ceilPow2(n int) int {
	if n < 2 {
		return 2
	}
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}
