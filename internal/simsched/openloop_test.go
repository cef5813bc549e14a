package simsched

import (
	"testing"

	"memthrottle/internal/core"
	"memthrottle/internal/machine"
)

// runOn runs the case on g, as ServeRun and MixRun do on a rig from the
// pool.
func (c openLoopCase) runOn(g *rig) capturedOpenLoop {
	if c.serve != nil {
		spec, th := c.serve()
		return captureServe(serveResult(runMix(g, c.cfg, spec.mix(), th)))
	}
	spec, th := c.mix()
	return captureMix(runMix(g, c.cfg, spec, th))
}

// TestRigRecycledAcrossDrivers runs the two fixed case sets the way the
// shared pool mixes them in the worst case: one runner per machine
// shape alternates closed-loop and open-loop runs, each starting on
// what the other kind left behind — events, actors, LLC, noise, idle
// flags. Every result must be the one a rig built for the case
// produced at the parent commit.
func TestRigRecycledAcrossDrivers(t *testing.T) {
	wantClosed, wantOpen := parentResults(t), openLoopParentResults(t)
	closed := make(map[machine.Config][]kernelCase)
	for _, c := range kernelCases() {
		m := c.config().Machine
		closed[m] = append(closed[m], c)
	}
	byShape := make(map[machine.Config]*runner)
	runClosed := func(r *runner, c kernelCase) {
		if res := r.run(c.program(), c.config(), c.throttler()); !sameAsParent(t, res, wantClosed[c.name]) {
			t.Errorf("%s after an open-loop run on the same rig: result differs from the parent commit's", c.name)
		}
	}
	shapes := 0
	for i, c := range openLoopCases() {
		m := c.cfg.Machine
		kcs := closed[m]
		if len(kcs) == 0 {
			t.Fatalf("%s: no closed-loop case on machine %+v", c.name, m)
		}
		r := byShape[m]
		if r == nil {
			r = newRunner(c.cfg)
			byShape[m] = r
			shapes++
		}
		runClosed(r, kcs[i%len(kcs)])
		if got := c.runOn(&r.rig); !sameOpenLoop(t, got, wantOpen[c.name]) {
			t.Errorf("%s after a closed-loop run on the same rig: result differs from the parent commit's\n got %+v\nwant %+v",
				c.name, got, wantOpen[c.name])
		}
		runClosed(r, kcs[(i+1)%len(kcs)])
	}
	if shapes != 4 {
		t.Errorf("%d machine shapes exercised, want 4 (1, 2 and 4 domains, and 8 cores x 4-way SMT)", shapes)
	}
}

// pairCounter is a class-aware policy: it caps class 0 at one memory
// task under an aggregate limit of 4 and adds up the class-0 pairs it
// is shown.
type pairCounter struct{ pairs, windows int }

func (p *pairCounter) Name() string { return "pair-counter" }
func (p *pairCounter) Observe(w core.WindowStats) core.Decision {
	p.windows++
	p.pairs += w.Classes[0].Pairs
	return core.Decision{Limit: 4, ClassLimit: []int{1}}
}

// TestServeRunFeedsClassAwareThrottler pins what the fold gave the
// single-class entry point: a class-aware throttler sees every
// completed job in its class's windows and its class limit gates
// admission. (The old ServeRun did not gate: PeakActiveMem 4.)
func TestServeRunFeedsClassAwareThrottler(t *testing.T) {
	const w, jobs = 4, 400
	pol := &pairCounter{}
	th := core.NewPolicyThrottler(pol, w, 4)
	// One priming window, so the class limit is in force from the first
	// arrival on.
	for i := 0; i < w; i++ {
		th.OnPair(core.PairSample{Tm: 1e-4, Tc: 1e-4})
	}
	res := ServeRun(serveCfg(21), serveSpec(20000, jobs, 0, 61), th)
	if res.Completed != jobs {
		t.Fatalf("Completed = %d, want %d", res.Completed, jobs)
	}
	if pol.windows != 1+jobs/w {
		t.Fatalf("policy observed %d windows, want %d", pol.windows, 1+jobs/w)
	}
	if pol.pairs != w+jobs {
		t.Errorf("policy saw %d class-0 pairs, want the priming window's %d plus one per job (%d)", pol.pairs, w, jobs)
	}
	if res.PeakActiveMem != 1 {
		t.Errorf("PeakActiveMem = %d under a class limit of 1 (aggregate MTL %d)", res.PeakActiveMem, res.FinalMTL)
	}
}

// scripted is an arrival process with the given gaps.
type scripted struct {
	gaps []float64
	next int
}

func (s *scripted) Next() float64 { s.next++; return s.gaps[s.next-1] }
func (s *scripted) Rate() float64 { return 0 }
func (s *scripted) Name() string  { return "scripted" }

// blackOne is Fixed with class 1 blacklisted from the start.
type blackOne struct{ core.Fixed }

func (blackOne) ClassLimit(int) int     { return 0 }
func (blackOne) Blacklisted(c int) bool { return c == 1 }

// TestMixRunHomesLikeHostSubmit pins the placement rule at two domains,
// the second a hundred times slower so that a job's service time tells
// where it ran. With MTL 1 and a queue of one, four arrivals inside the
// first gather go: domain 0 (runs), domain 1 (runs), domain 0 (queued),
// domain 1 (queue full: shed). The shed job used up its turn, as in
// host.Server.Submit (seq % len(doms) before enqueue), so a fifth job
// long afterwards lands on domain 0 and is quick; homing by admitted
// jobs, the old MixRun rule, would put it on the slow domain. Refused
// arrivals of a blacklisted class in between take no turn: the victim's
// outcome is the same with and without them.
func TestMixRunHomesLikeHostSubmit(t *testing.T) {
	cfg := domCfg(2)
	cfg.DomainMem[1].TmlPerByte *= 100
	cfg.DomainMem[1].TqlPerByte *= 100
	fast, slow := cfg.DomainMem[0].TaskTime(footprint, 1), cfg.DomainMem[1].TaskTime(footprint, 1)
	const last = 1.0 // the fifth arrival, long after the slow gather (~73 ms)
	victim := func() Stream {
		return Stream{
			Class:    0,
			Arrivals: &scripted{gaps: []float64{1e-5, 1e-5, 1e-5, 1e-5, last}},
			Shapes:   oneShape{footprint, float64(tm1())},
			Jobs:     5,
		}
	}
	alone := MixRun(cfg, MixSpec{Streams: []Stream{victim()}, Queue: 1}, core.Fixed{K: 1})
	v := alone.ByClass[0]
	if v.Arrived != 5 || v.Dropped != 1 || v.Completed != 4 {
		t.Fatalf("arrived/dropped/completed = %d/%d/%d, want 5/1/4", v.Arrived, v.Dropped, v.Completed)
	}
	if float64(v.Service.Max()) < 1e9*float64(slow) {
		t.Fatalf("slowest job took %v, none ran on the slow domain (gather alone takes %v)", v.Service.Max(), slow)
	}
	if served := alone.Makespan - (last + 4e-5); served > fast+2*tm1() {
		t.Errorf("the job after the drop took %v: homed on the slow domain, want domain 0 (gather %v)", served, fast)
	}

	refused := Stream{
		Class:    1,
		Arrivals: &scripted{gaps: []float64{1.5e-5, 1e-5, 1e-5}}, // between the victim's first four
		Shapes:   oneShape{footprint, float64(tm1())},
		Jobs:     3,
	}
	mixed := MixRun(cfg, MixSpec{Streams: []Stream{victim(), refused}, Queue: 1}, blackOne{core.Fixed{K: 1}})
	if a := mixed.ByClass[1]; a.Arrived != 3 || a.Dropped != 3 {
		t.Fatalf("blacklisted class arrived/dropped = %d/%d, want 3/3", a.Arrived, a.Dropped)
	}
	if mixed.ByClass[0] != v || mixed.Makespan != alone.Makespan {
		t.Errorf("refused arrivals moved the victim: makespan %v vs %v alone", mixed.Makespan, alone.Makespan)
	}
}
