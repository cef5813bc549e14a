package core

import (
	"reflect"
	"testing"

	"memthrottle/internal/sim"
)

const pus = Time(1000) // 1us in sim time

// feedPairs drives th with count pairs of the given shape and class.
func feedPairs(th Throttler, count int, tm, tc Time, class int, now *Time) {
	for i := 0; i < count; i++ {
		*now += tm + tc
		th.OnPair(PairSample{Tm: tm, Tc: tc, Now: *now, Class: class})
	}
}

// The adapter windows W pairs, aggregates per class, harvests stall
// counters, and publishes the policy's decision atomically. Issue
// signals are accepted and change nothing.
func TestPolicyThrottlerWindowing(t *testing.T) {
	run := func(issues bool) (*PolicyThrottler, []WindowStats) {
		var got []WindowStats
		p := policyFunc{
			name: "spy",
			fn: func(w WindowStats) Decision {
				// Deep-copy Classes: it aliases the adapter's scratch.
				cp := w
				cp.Classes = append([]ClassStats(nil), w.Classes...)
				got = append(got, cp)
				return Decision{Limit: 3, Monitoring: true}
			},
		}
		th := NewPolicyThrottler(p, 4, 8)
		if th.MTL() != 8 {
			t.Fatalf("initial MTL = %d, want 8", th.MTL())
		}
		if issues {
			th.OnSignal(1, SignalIssue)
			th.OnSignal(1, SignalIssue)
		}
		th.OnSignal(0, SignalStall)
		var now Time
		feedPairs(th, 2, 2*pus, 6*pus, 0, &now)
		feedPairs(th, 2, 10*pus, pus, 1, &now)
		if issues {
			th.OnSignal(0, SignalIssue)
		}
		feedPairs(th, 4, 2*pus, 6*pus, 0, &now)
		return th, got
	}
	th, got := run(false)
	if len(got) != 2 {
		t.Fatalf("observed %d windows, want 2", len(got))
	}
	w := got[0]
	if w.Pairs != 4 || w.Tm != 6*pus {
		t.Errorf("window = %+v, want Pairs 4, Tm %v", w, 6*pus)
	}
	if len(w.Classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(w.Classes))
	}
	if w.Classes[0].Pairs != 2 || w.Classes[1].Pairs != 2 {
		t.Errorf("per-class pairs = %d/%d, want 2/2", w.Classes[0].Pairs, w.Classes[1].Pairs)
	}
	if w.Classes[1].TmSum != 20*pus {
		t.Errorf("class 1 TmSum = %v, want %v", w.Classes[1].TmSum, 20*pus)
	}
	if w.Classes[0].Stalls != 1 || w.Classes[1].Stalls != 0 {
		t.Errorf("stalls = %d/%d, want 1/0", w.Classes[0].Stalls, w.Classes[1].Stalls)
	}
	if th.MTL() != 3 {
		t.Errorf("MTL after decision = %d, want 3", th.MTL())
	}
	// Stall counters harvest deltas, not totals.
	if got[1].Classes[0].Stalls != 0 {
		t.Errorf("second window class 0 stalls = %d, want 0 (delta)", got[1].Classes[0].Stalls)
	}
	if _, with := run(true); !reflect.DeepEqual(with, got) {
		t.Errorf("issue signals changed the windows:\n%+v\nwant\n%+v", with, got)
	}
}

// Stalls of a class that has not completed a pair reach the policy at
// the next boundary: a wedging attacker may never complete one.
func TestPolicyThrottlerStallOfUnseenClass(t *testing.T) {
	var got []WindowStats
	p := policyFunc{name: "spy", fn: func(w WindowStats) Decision {
		cp := w
		cp.Classes = append([]ClassStats(nil), w.Classes...)
		got = append(got, cp)
		return Decision{Monitoring: true}
	}}
	th := NewPolicyThrottler(p, 2, 8)
	th.OnSignal(1, SignalStall)
	th.OnSignal(1, SignalStall)
	var now Time
	feedPairs(th, 2, 2*pus, 6*pus, 0, &now)
	if len(got) != 1 {
		t.Fatalf("observed %d windows, want 1", len(got))
	}
	if len(got[0].Classes) != 2 {
		t.Fatalf("classes = %d, want 2 (class 1 stalled)", len(got[0].Classes))
	}
	if c := got[0].Classes[1]; c.Stalls != 2 || c.Pairs != 0 {
		t.Errorf("class 1 = %+v, want Stalls 2, Pairs 0", c)
	}
}

// Blacklisted classes report an effective limit of 1.
func TestPolicyThrottlerBlacklistLimit(t *testing.T) {
	p := policyFunc{name: "bl", fn: func(WindowStats) Decision {
		return Decision{Limit: 4, Blacklist: 1 << 2, Monitoring: true}
	}}
	th := NewPolicyThrottler(p, 1, 8)
	var now Time
	feedPairs(th, 1, pus, pus, 0, &now)
	if !th.Blacklisted(2) || th.Blacklisted(0) {
		t.Errorf("blacklist bits wrong: class2=%v class0=%v", th.Blacklisted(2), th.Blacklisted(0))
	}
	if th.ClassLimit(2) != 1 {
		t.Errorf("blacklisted ClassLimit = %d, want 1", th.ClassLimit(2))
	}
	if th.ClassLimit(0) != 0 {
		t.Errorf("clean ClassLimit = %d, want 0 (unlimited)", th.ClassLimit(0))
	}
}

type policyFunc struct {
	name string
	fn   func(WindowStats) Decision
}

func (p policyFunc) Name() string                   { return p.name }
func (p policyFunc) Observe(w WindowStats) Decision { return p.fn(w) }

// Hysteresis: a flip must persist h+1 consecutive windows before
// re-selection; an attacker flipping every window never triggers.
func TestDynamicHysteresis(t *testing.T) {
	model := Model{N: 8}
	w := 1
	memHeavy := WindowStats{Pairs: w, Tm: 10 * pus, Tc: pus}
	compHeavy := WindowStats{Pairs: w, Tm: pus, Tc: 40 * pus}

	settle := func(d *Dynamic, ws WindowStats) {
		for i := 0; i < 2*model.N+4 && !d.Watching(); i++ {
			d.Observe(ws)
		}
		if !d.Watching() {
			t.Fatal("controller never settled into watching")
		}
	}

	// Plain D-MTL re-selects on the first flipped window.
	plain := NewDynamic(model, w)
	settle(plain, compHeavy)
	plain.Observe(memHeavy)
	if plain.Watching() {
		t.Error("plain D-MTL should re-select after one flipped window")
	}

	// Hysteresis 2: two flipped windows are tolerated, the third
	// triggers.
	hyst := NewDynamicOpts(model, w, DynamicOptions{Hysteresis: 2})
	settle(hyst, compHeavy)
	hyst.Observe(memHeavy)
	hyst.Observe(memHeavy)
	if !hyst.Watching() {
		t.Fatal("hysteresis D-MTL re-selected before the flip persisted")
	}
	hyst.Observe(memHeavy)
	if hyst.Watching() {
		t.Error("hysteresis D-MTL should re-select once the flip persists")
	}

	// A phase-flip attacker alternating every window never gets a
	// persistent flip: the controller keeps watching.
	hyst2 := NewDynamicOpts(model, w, DynamicOptions{Hysteresis: 2})
	settle(hyst2, compHeavy)
	sels := hyst2.Selections
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			hyst2.Observe(memHeavy)
		} else {
			hyst2.Observe(compHeavy)
		}
	}
	if hyst2.Selections != sels {
		t.Errorf("alternating windows triggered %d re-selections, want 0", hyst2.Selections-sels)
	}
	if hyst2.Name() != "dynamic-hyst" {
		t.Errorf("Name = %q", hyst2.Name())
	}
}

// StdevClamp halves the limit on an anomalous window and recovers one
// slot per calm window.
func TestStdevClamp(t *testing.T) {
	c := NewStdevClamp(8, 2)
	calm := WindowStats{Tm: 2 * pus, Tc: 6 * pus}
	// Warm up with slightly varied calm windows so stdev > 0.
	for i := 0; i < 16; i++ {
		w := calm
		w.Tm += Time(i % 3)
		d := c.Observe(w)
		if d.Limit != 8 {
			t.Fatalf("calm window %d clamped to %d", i, d.Limit)
		}
	}
	spike := WindowStats{Tm: 50 * pus, Tc: 6 * pus}
	d := c.Observe(spike)
	if d.Limit != 4 {
		t.Fatalf("spike limit = %d, want 4", d.Limit)
	}
	if c.Triggers != 1 {
		t.Errorf("Triggers = %d, want 1", c.Triggers)
	}
	d = c.Observe(spike)
	if d.Limit != 2 {
		t.Fatalf("second spike limit = %d, want 2", d.Limit)
	}
	// Calm again: one slot per window back to 8.
	for i := 0; i < 6; i++ {
		d = c.Observe(calm)
	}
	if d.Limit != 8 {
		t.Errorf("recovered limit = %d, want 8", d.Limit)
	}
}

// Blacklist demotes the class dominating memory time and releases it
// once its share ages out of the rotating counters.
func TestBlacklistDemotesHog(t *testing.T) {
	b := NewBlacklist(Fixed{K: 8}, BlacklistOptions{})
	hog := WindowStats{
		Tm: 10 * pus, Tc: 2 * pus, End: 100 * pus,
		Classes: []ClassStats{
			{Pairs: 4, TmSum: 4 * pus},
			{Pairs: 4, TmSum: 40 * pus},
		},
	}
	var d Decision
	for i := 0; i < 20; i++ {
		hog.End += 10 * pus
		d = b.Observe(hog)
	}
	if d.Blacklist != 1<<1 {
		t.Fatalf("blacklist = %b, want class 1 demoted", d.Blacklist)
	}
	if d.Limit != 8 {
		t.Errorf("inner limit = %d, want 8", d.Limit)
	}
	if !b.Blacklisted(1) || b.Blacklisted(0) {
		t.Errorf("Blacklisted: class1=%v class0=%v", b.Blacklisted(1), b.Blacklisted(0))
	}
	if b.DemotedAt[1] == 0 {
		t.Error("DemotedAt not recorded")
	}
	// The attacker goes quiet; its score ages out of the rotating
	// counters and the demotion lifts.
	calm := WindowStats{
		Tm: 2 * pus, Tc: 6 * pus, End: hog.End,
		Classes: []ClassStats{{Pairs: 8, TmSum: 16 * pus}, {}},
	}
	for i := 0; i < 24 && d.Blacklist != 0; i++ {
		calm.End += 10 * pus
		d = b.Observe(calm)
	}
	if d.Blacklist != 0 {
		t.Error("blacklist never released after the attacker stopped")
	}
	if b.Name() != "blacklist+fixed(8)" {
		t.Errorf("Name = %q", b.Name())
	}
}

// The adapter's window boundary is allocation-free in steady state:
// scratch arrays, no per-window garbage. make bench-check holds it to
// zero allocs/op (ZERO_ALLOC) and compares its time with its base.
func BenchmarkPolicyObserve(b *testing.B) {
	bl := NewBlacklist(Fixed{K: 8}, BlacklistOptions{})
	th := NewPolicyThrottler(bl, 16, 8)
	var now Time
	// Pre-touch both classes so maxClass is stable before measuring.
	feedPairs(th, 16, 2*pus, 6*pus, 0, &now)
	feedPairs(th, 16, 10*pus, pus, 1, &now)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 8 * pus
		th.OnSignal(i&1, SignalIssue)
		th.OnPair(PairSample{Tm: 2 * pus, Tc: 6 * pus, Now: now, Class: i & 1})
	}
	_ = sim.Time(th.MTL())
}
