package core

import (
	"testing"

	"memthrottle/internal/sim"
)

// feedLaw streams pairs pairs into a throttler, with Tm responding to
// the throttler's current MTL through the law and wall-clock advancing
// by a crude serial estimate. Returns the sequence of MTLs observed.
func feedLaw(th Throttler, pairs int, tml, tql, tc sim.Time) []int {
	now := sim.Time(0)
	var mtls []int
	for i := 0; i < pairs; i++ {
		k := th.MTL()
		tm := tml + sim.Time(k)*tql
		now += tm + tc
		mtls = append(mtls, k)
		th.OnPair(PairSample{Tm: tm, Tc: tc, Now: now})
	}
	return mtls
}

func TestFixedThrottler(t *testing.T) {
	f := Fixed{K: 3}
	if f.MTL() != 3 || f.Monitoring() || f.Name() != "fixed(3)" {
		t.Errorf("Fixed misbehaves: %+v", f)
	}
	f.OnPair(PairSample{Tm: us, Tc: us, Now: us})
	if f.MTL() != 3 {
		t.Error("Fixed MTL changed")
	}
}

func TestDynamicConvergesComputeBound(t *testing.T) {
	// Tm1/Tc = 0.12 (dft-like): D-MTL must converge to 1 and stay.
	m := NewModel(4)
	d := NewDynamic(m, 4)
	feedLaw(d, 200, 0.8*us, 0.1*us, 10*us)
	if !d.Watching() {
		t.Fatal("controller still probing after 200 pairs")
	}
	if d.MTL() != 1 {
		t.Errorf("D-MTL = %d, want 1", d.MTL())
	}
	if len(d.History) != 1 {
		t.Errorf("selections decided = %d, want 1 (no phase changes)", len(d.History))
	}
	if h := d.Health(); h.Kept+h.Clamped != 200 {
		t.Errorf("monitored pairs = %d, want 200", h.Kept+h.Clamped)
	}
}

func TestDynamicStartsAtConventional(t *testing.T) {
	m := NewModel(4)
	d := NewDynamic(m, 4)
	if d.MTL() != 4 {
		t.Errorf("initial probe MTL = %d, want n=4 (the unthrottled anchor)", d.MTL())
	}
	if d.Watching() {
		t.Error("controller watching before any selection")
	}
}

func TestDynamicDetectsPhaseChange(t *testing.T) {
	// Phase 1: compute-bound (IdleBound 1). Phase 2: memory-bound
	// (IdleBound 2+). The detector must trigger a second selection and
	// move D-MTL up.
	m := NewModel(4)
	d := NewDynamic(m, 4)
	feedLaw(d, 120, 0.8*us, 0.1*us, 10*us) // converges to D-MTL=1
	first := d.MTL()
	feedLaw(d, 120, 4*us, us, 4*us) // ratio jumps to ~1.5+
	if len(d.History) < 2 {
		t.Fatalf("phase change not detected: history %v", d.History)
	}
	if d.MTL() == first && d.History[len(d.History)-1] == first {
		t.Errorf("D-MTL did not adapt: history %v", d.History)
	}
	if d.MTL() < 2 {
		t.Errorf("memory-bound phase chose D-MTL=%d, want >= 2", d.MTL())
	}
}

func TestDynamicStableRatioNoRetrigger(t *testing.T) {
	// Small ratio wobbles that do not change IdleBound must not
	// trigger re-selection — the coarse-grained detector's entire
	// point (§IV-B).
	m := NewModel(4)
	d := NewDynamic(m, 4)
	feedLaw(d, 100, 0.8*us, 0.1*us, 10*us)
	selections := d.Selections
	// Wobble Tc between 10us and 12us: ratio stays well under 1/3.
	feedLaw(d, 50, 0.8*us, 0.1*us, 12*us)
	feedLaw(d, 50, 0.8*us, 0.1*us, 10*us)
	if d.Selections != selections {
		t.Errorf("re-selection on ratio wobble: %d -> %d", selections, d.Selections)
	}
}

func TestOnlineExhaustiveSweepsAllMTLs(t *testing.T) {
	m := NewModel(4)
	o := NewOnlineExhaustive(m, 4, 0.10)
	mtls := feedLaw(o, 16, us, 0.4*us, 2.8*us)
	// The initial sweep holds each MTL 1..4 for W=4 pairs.
	want := []int{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4}
	for i := range want {
		if mtls[i] != want[i] {
			t.Fatalf("probe sequence %v, want %v", mtls, want)
		}
	}
	if o.TotalProbes != 4 {
		t.Errorf("TotalProbes = %d, want 4 (full sweep)", o.TotalProbes)
	}
	if len(o.History) != 1 {
		t.Errorf("history %v, want one decision", o.History)
	}
}

func TestOnlineExhaustiveStableNoRetrigger(t *testing.T) {
	m := NewModel(4)
	o := NewOnlineExhaustive(m, 4, 0.10)
	feedLaw(o, 200, us, 0.4*us, 2.8*us)
	if len(o.History) != 1 {
		t.Errorf("stable workload re-triggered: history %v", o.History)
	}
}

func TestOnlineExhaustiveTriggersOnBigChange(t *testing.T) {
	m := NewModel(4)
	o := NewOnlineExhaustive(m, 4, 0.10)
	feedLaw(o, 100, us, 0.4*us, 2.8*us)
	// Halve the compute time: group wall time shifts far beyond 10%.
	feedLaw(o, 100, us, 0.4*us, 0.9*us)
	if len(o.History) < 2 {
		t.Errorf("online baseline missed a >10%% shift: history %v", o.History)
	}
}

func TestOnlineExhaustivePaysMoreProbesThanDynamic(t *testing.T) {
	// The headline §VI-B contrast: for the same workload, the naive
	// baseline monitors at n probes per selection vs the dynamic
	// mechanism's <= 2+log2(n).
	m := NewModel(4)
	d := NewDynamic(m, 4)
	o := NewOnlineExhaustive(m, 4, 0.10)
	feedLaw(d, 200, us, 0.4*us, 2.8*us)
	feedLaw(o, 200, us, 0.4*us, 2.8*us)
	if d.TotalProbes >= o.TotalProbes {
		t.Errorf("dynamic probes (%d) not fewer than online (%d)", d.TotalProbes, o.TotalProbes)
	}
}

func TestWindowSpanAndReset(t *testing.T) {
	w := window{w: 2}
	if w.add(PairSample{Tm: us, Tc: us, Now: 5 * us}) {
		t.Fatal("window full after one sample")
	}
	if !w.add(PairSample{Tm: 3 * us, Tc: us, Now: 9 * us}) {
		t.Fatal("window not full after W samples")
	}
	m := w.measurement()
	if m.Tm != 2*us || m.Tc != us {
		t.Errorf("measurement %+v, want Tm=2us Tc=1us", m)
	}
	if got := w.span(9 * us); float64(got-4*us) > 1e-15 || float64(4*us-got) > 1e-15 {
		t.Errorf("span = %v, want 4us", got)
	}
	w.reset()
	if w.count != 0 || w.open {
		t.Error("reset did not clear window")
	}
}
