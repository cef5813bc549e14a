package host

import (
	"testing"
	"unsafe"
)

// TestLayoutHotStructs pins the cache-line layout of every padded
// hot-path struct. The padding is load-bearing — it is what keeps a
// CAS-hot field off the line a read-mostly field lives on — and
// nothing but these assertions stops an innocent field addition from
// silently re-packing two hot fields onto one line. The assertions
// use a 64-byte line (the x86-64 and most-arm64 size); structs that
// must never share a line across array elements are pinned to a
// 128-byte stride, which guarantees separation for any allocator base
// alignment (two fields 64+ bytes apart can never land on one
// 64-byte line).
//
// `make lint` runs this test by name: it is the in-repo substitute
// for a fieldalignment linter pass over the dispatch hot structs.
const lineSize = 64

// distinctLines reports whether two byte offsets within one struct
// are guaranteed to fall on different cache lines for any base
// alignment of the struct, i.e. they are at least a full line apart.
func distinctLines(a, b uintptr) bool {
	if a > b {
		a, b = b, a
	}
	return b-a >= lineSize
}

func TestLayoutGate(t *testing.T) {
	var g gate
	if got := unsafe.Sizeof(g); got != 2*lineSize {
		t.Errorf("sizeof(gate) = %d, want %d (two-line stride so adjacent per-domain gates never share a line)", got, 2*lineSize)
	}
	limit := unsafe.Offsetof(g.limit)
	active := unsafe.Offsetof(g.active)
	peak := unsafe.Offsetof(g.peak)
	if !distinctLines(limit, active) {
		t.Errorf("gate.limit (offset %d) and gate.active (offset %d) may share a cache line", limit, active)
	}
	if !distinctLines(limit, peak) {
		t.Errorf("gate.limit (offset %d) and gate.peak (offset %d) may share a cache line", limit, peak)
	}
}

func TestLayoutLot(t *testing.T) {
	var l lot
	mu := unsafe.Offsetof(l.mu)
	spinners := unsafe.Offsetof(l.spinners)
	if !distinctLines(mu, spinners) {
		t.Errorf("lot.mu (offset %d) and lot.spinners (offset %d) may share a cache line (spin entry/exit would bounce the lock word)", mu, spinners)
	}
	// λ is loaded by every dispatch and stored once per blocking park:
	// park-path traffic like spinners, whose line it shares.
	if wake := unsafe.Offsetof(l.wakeNs); !distinctLines(mu, wake) {
		t.Errorf("lot.mu (offset %d) and lot.wakeNs (offset %d) may share a cache line (every dispatch's λ load would contend with the lock word)", mu, wake)
	}
}

func TestLayoutMpmcRing(t *testing.T) {
	var r mpmcRing
	mask := unsafe.Offsetof(r.mask)
	head := unsafe.Offsetof(r.head)
	tail := unsafe.Offsetof(r.tail)
	if !distinctLines(mask, head) {
		t.Errorf("mpmcRing.mask (offset %d) and mpmcRing.head (offset %d) may share a cache line", mask, head)
	}
	if !distinctLines(head, tail) {
		t.Errorf("mpmcRing.head (offset %d) and mpmcRing.tail (offset %d) may share a cache line", head, tail)
	}
	var s ringSlot
	if got := unsafe.Sizeof(s); got != lineSize {
		t.Errorf("sizeof(ringSlot) = %d, want %d (one slot per line so adjacent handoffs don't false-share)", got, lineSize)
	}
}

func TestLayoutFlightRec(t *testing.T) {
	var f flightRec
	if got := unsafe.Sizeof(f); got != lineSize {
		t.Errorf("sizeof(flightRec) = %d, want %d (records live in a per-worker array)", got, lineSize)
	}
}

func TestLayoutDomainState(t *testing.T) {
	var ds domainState
	if got := unsafe.Sizeof(ds); got%lineSize != 0 {
		t.Errorf("sizeof(domainState) = %d, want a multiple of %d (states live in a per-phase array; a fractional stride would share readyMem lines across domains)", got, lineSize)
	}
	ready := unsafe.Offsetof(ds.readyMem)
	scat := unsafe.Offsetof(ds.scat)
	if !distinctLines(ready, scat) {
		t.Errorf("domainState.readyMem (offset %d) and domainState.scat (offset %d) may share a cache line", ready, scat)
	}
}
