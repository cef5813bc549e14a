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

// Where a Server or a Runtime starts within a cache line is the
// allocator's: both are over 512 bytes and hold pointers, so each sits
// 8 bytes (the malloc header) into a slot of a size class that is a
// multiple of 64. The two tests below read that start off a heap
// allocation and check the lines each field actually lands on.
var (
	serverSink  *Server
	runtimeSink *Runtime
)

// heapLines returns the line (from the slot's first) of a byte offset
// in an object that starts at p.
func heapLines(p unsafe.Pointer) func(off uintptr) uintptr {
	base := uintptr(p) % lineSize
	return func(off uintptr) uintptr { return (base + off) / lineSize }
}

// TestLayoutServer pins Server's counters to the front of the struct,
// where no field added ahead of them can move them: seq through
// rejected on line 1, admitted and blacklisted on line 2, nothing else
// on either.
func TestLayoutServer(t *testing.T) {
	serverSink = new(Server)
	s := serverSink
	line := heapLines(unsafe.Pointer(s))
	for _, f := range []struct {
		name string
		off  uintptr
		want uintptr
	}{
		{"seq", unsafe.Offsetof(s.seq), 1},
		{"rejected", unsafe.Offsetof(s.rejected), 1},
		{"admitted", unsafe.Offsetof(s.admitted), 2},
		{"blacklisted", unsafe.Offsetof(s.blacklisted), 2},
		{"pool", unsafe.Offsetof(s.pool), 3},
	} {
		if got := line(f.off); got != f.want {
			t.Errorf("Server.%s at offset %d lands on line %d, want %d (Server starts at %d mod %d)", f.name, f.off, got, f.want, uintptr(unsafe.Pointer(s))%lineSize, lineSize)
		}
	}
	if off := unsafe.Offsetof(s.seq); off != 56 {
		t.Errorf("Server.seq at offset %d, want 56: a field ahead of the counters moves them", off)
	}
}

// TestLayoutRuntime pins Runtime's dispatch words to the front of the
// struct, where no field added ahead of them (a Config field, say) can
// move them: gates on line 0, the lot on lines 1-2 (TestLayoutLot pins
// its inside), memActive and memPeak on line 3, nothing else on any.
func TestLayoutRuntime(t *testing.T) {
	runtimeSink = new(Runtime)
	r := runtimeSink
	line := heapLines(unsafe.Pointer(r))
	for _, f := range []struct {
		name string
		off  uintptr
		want uintptr
	}{
		{"gates", unsafe.Offsetof(r.gates), 0},
		{"lot.mu", unsafe.Offsetof(r.lot) + unsafe.Offsetof(r.lot.mu), 1},
		{"lot.wakeNs", unsafe.Offsetof(r.lot) + unsafe.Offsetof(r.lot.wakeNs), 2},
		{"memActive", unsafe.Offsetof(r.memActive), 3},
		{"memPeak", unsafe.Offsetof(r.memPeak), 3},
		{"cfg", unsafe.Offsetof(r.cfg), 4},
	} {
		if got := line(f.off); got != f.want {
			t.Errorf("Runtime.%s at offset %d lands on line %d, want %d (Runtime starts at %d mod %d)", f.name, f.off, got, f.want, uintptr(unsafe.Pointer(r))%lineSize, lineSize)
		}
	}
	if off := unsafe.Offsetof(r.gates); off != 0 {
		t.Errorf("Runtime.gates at offset %d, want 0: a field ahead of the dispatch words moves them", off)
	}
}
