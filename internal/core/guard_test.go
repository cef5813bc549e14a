package core

import (
	"math"
	"testing"

	"memthrottle/internal/sim"
)

// feedLawCorrupt is feedLaw with a per-sample corruption hook applied
// before OnPair.
func feedLawCorrupt(th Throttler, pairs int, tml, tql, tc sim.Time, corrupt func(i int, s PairSample) PairSample) {
	now := sim.Time(0)
	for i := 0; i < pairs; i++ {
		k := th.MTL()
		tm := tml + sim.Time(k)*tql
		now += tm + tc
		th.OnPair(corrupt(i, PairSample{Tm: tm, Tc: tc, Now: now}))
	}
}

func TestGuardDropsNonFinite(t *testing.T) {
	m := NewModel(4)
	d := NewDynamic(m, 4)
	bad := []sim.Time{
		sim.Time(math.NaN()),
		sim.Time(math.Inf(1)),
		sim.Time(math.Inf(-1)),
		0,
		-us,
	}
	// Every corrupted field combination must be rejected without
	// reaching the window or panicking the selector.
	for _, b := range bad {
		d.OnPair(PairSample{Tm: b, Tc: us, Now: us})
		d.OnPair(PairSample{Tm: us, Tc: b, Now: us})
	}
	d.OnPair(PairSample{Tm: us, Tc: us, Now: sim.Time(math.NaN())})
	h := d.Health()
	if h.Dropped != 2*len(bad)+1 {
		t.Errorf("Dropped = %d, want %d", h.Dropped, 2*len(bad)+1)
	}
	if h.Kept+h.Clamped != 0 {
		t.Errorf("dropped samples entered the window: %+v", h)
	}
	// Clean samples still adapt the controller afterwards.
	feedLaw(d, 200, 0.8*us, 0.1*us, 10*us)
	if !d.Watching() || d.MTL() != 1 {
		t.Errorf("controller unhealthy after rejected samples: watching=%v MTL=%d",
			d.Watching(), d.MTL())
	}
}

func TestGuardWinsorizesTmSpikes(t *testing.T) {
	m := NewModel(4)
	d := NewDynamic(m, 4)
	// A compute-bound workload with occasional 1000x Tm spikes. The
	// guard cannot hide that the machine misbehaved — a spiked window
	// may still re-trigger selection — but it must keep every decision
	// inside [1, n] and let the controller re-converge once the data
	// is clean again.
	feedLawCorrupt(d, 200, 0.8*us, 0.1*us, 10*us, func(i int, s PairSample) PairSample {
		if i%9 == 4 {
			s.Tm *= 1000
		}
		if k := d.MTL(); k < 1 || k > 4 {
			t.Fatalf("pair %d: MTL = %d escaped [1, 4]", i, k)
		}
		return s
	})
	h := d.Health()
	if h.Clamped == 0 {
		t.Fatal("no spike was winsorized")
	}
	feedLaw(d, 200, 0.8*us, 0.1*us, 10*us)
	if !d.Watching() {
		t.Fatal("controller did not settle after the spikes stopped")
	}
	if d.MTL() != 1 {
		t.Errorf("D-MTL after recovery = %d, want 1", d.MTL())
	}
}

func TestGuardCleanRunIsNoOp(t *testing.T) {
	m := NewModel(4)
	d := NewDynamic(m, 4)
	feedLaw(d, 200, 0.8*us, 0.1*us, 10*us)
	h := d.Health()
	if h.Clamped != 0 || h.Dropped != 0 || h.DiscardedWindows != 0 || h.Fallbacks != 0 || h.Degraded {
		t.Errorf("guard touched clean samples: %+v", h)
	}
	if h.Kept != 200 {
		t.Errorf("Kept = %d, want 200", h.Kept)
	}
}

func TestForceConventional(t *testing.T) {
	m := NewModel(4)
	d := NewDynamic(m, 4)
	feedLaw(d, 100, 0.8*us, 0.1*us, 10*us)
	if d.MTL() == 4 {
		t.Fatal("controller never throttled; fallback test is vacuous")
	}
	d.ForceConventional()
	if !d.Health().Degraded || d.MTL() != 4 {
		t.Errorf("fallback: degraded=%v MTL=%d, want true/4", d.Health().Degraded, d.MTL())
	}
	if d.Monitoring() {
		t.Error("degraded controller still claims to monitor")
	}
	if got := d.History[len(d.History)-1]; got != 4 {
		t.Errorf("fallback not recorded in History: %v", d.History)
	}
	h := d.Health()
	if h.Fallbacks != 1 || !h.Degraded {
		t.Errorf("Health after fallback: %+v", h)
	}
	// Further samples must not move the MTL or panic.
	feedLaw(d, 100, 0.8*us, 0.1*us, 0.1*us)
	if after := d.Health(); d.MTL() != 4 || after.Kept+after.Clamped != h.Kept+h.Clamped {
		t.Errorf("degraded controller kept adapting: MTL=%d", d.MTL())
	}
	// Idempotent.
	d.ForceConventional()
	if d.Health().Fallbacks != 1 {
		t.Errorf("Fallbacks = %d after repeat call, want 1", d.Health().Fallbacks)
	}
}

func TestOnlineExhaustiveGuard(t *testing.T) {
	m := NewModel(4)
	o := NewOnlineExhaustive(m, 4, 0.10)
	for i := 0; i < 10; i++ {
		o.OnPair(PairSample{Tm: sim.Time(math.NaN()), Tc: us, Now: us})
	}
	if h := o.Health(); h.Dropped != 10 || h.Kept+h.Clamped != 0 {
		t.Errorf("online guard: %+v", h)
	}
}
