package simsched

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"memthrottle/internal/core"
	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
	"memthrottle/internal/workload"
)

// testdata/openloop_parent.json holds what ServeRun and MixRun produced
// at the parent commit of the fold into one open-loop driver (two
// drivers, ServeRun homing jobs by arrival count and MixRun by admitted
// count). It was captured the way kernel_parent.json was: this file
// copied to that commit, then
//
//	go test ./internal/simsched -run TestOpenLoopMatchesParentResults -capture
//
// so it compiles against both result shapes and records only what the
// parent recorded. Re-capture only for an intended change of output.
const openLoopParentPath = "testdata/openloop_parent.json"

// capturedHist is a latency histogram as the experiments read it.
type capturedHist struct {
	Count               uint64
	P50, P99, P999, Max time.Duration
}

func captureHist(h *stats.LatencyHist) capturedHist {
	return capturedHist{h.Count(), h.P50(), h.P99(), h.P999(), h.Max()}
}

type capturedClass struct {
	Arrived, Completed, Dropped int
	Queue, Service, Sojourn     capturedHist
}

// capturedOpenLoop is one open-loop result, from either entry point.
// MixRun recorded no Service histogram and no PeakActiveMem at the
// parent: a mix case leaves them zero on both sides.
type capturedOpenLoop struct {
	Policy        string
	Makespan      sim.Time
	Goodput       float64
	Classes       []capturedClass
	PeakQueue     int
	PeakActiveMem int
	FinalMTL      int
	MTLDecisions  []int
	ContainedAt   sim.Time
}

func captureServe(r ServeResult) capturedOpenLoop {
	return capturedOpenLoop{
		Policy: r.Policy, Makespan: r.Makespan, Goodput: r.Goodput,
		Classes: []capturedClass{{
			Arrived: r.Arrived, Completed: r.Completed, Dropped: r.Dropped,
			Queue: captureHist(&r.Queue), Service: captureHist(&r.Service), Sojourn: captureHist(&r.Sojourn),
		}},
		PeakQueue: r.PeakQueue, PeakActiveMem: r.PeakActiveMem,
		FinalMTL: r.FinalMTL, MTLDecisions: r.MTLDecisions,
	}
}

func captureMix(r MixResult) capturedOpenLoop {
	c := capturedOpenLoop{
		Policy: r.Policy, Makespan: r.Makespan, Goodput: r.Goodput,
		PeakQueue: r.PeakQueue, FinalMTL: r.FinalMTL, MTLDecisions: r.MTLDecisions,
		ContainedAt: r.ContainedAt,
	}
	for i := range r.ByClass {
		oc := &r.ByClass[i]
		c.Classes = append(c.Classes, capturedClass{
			Arrived: oc.Arrived, Completed: oc.Completed, Dropped: oc.Dropped,
			Queue: captureHist(&oc.Queue), Sojourn: captureHist(&oc.Sojourn),
		})
	}
	return c
}

// openLoopCfg is the serving test machine with n unequal DIMMs, so the
// domains drift apart and a job homed elsewhere finishes elsewhen.
func openLoopCfg(domains int, seed int64) Config {
	c := serveCfg(seed)
	if domains > 1 {
		c.Machine.MemDomains = domains
		for d := 0; d < domains; d++ {
			c.DomainMem[d] = c.Mem
			c.DomainMem[d].TqlPerByte *= 1 + 0.25*float64(d)
		}
	}
	return c
}

// openLoopCase is one fixed open-loop run; run builds its stateful
// generators and throttler afresh on every call.
type openLoopCase struct {
	name string
	// drops: the case exists to pin what happens around shed arrivals,
	// so a capture without any would pin nothing.
	drops bool
	cfg   Config
	serve func() (ServeSpec, core.Throttler) // ServeRun cases
	mix   func() (MixSpec, core.Throttler)   // MixRun cases
}

func (c openLoopCase) run() capturedOpenLoop {
	if c.serve != nil {
		spec, th := c.serve()
		return captureServe(ServeRun(c.cfg, spec, th))
	}
	spec, th := c.mix()
	return captureMix(MixRun(c.cfg, spec, th))
}

// openLoopCases spans what the two drivers differed in and what they
// shared: ServeRun under a static and a moving limit, with a bounded
// queue in overload (drops, at 1, 2 and 4 domains: the homing rule) and
// an unbounded one, Poisson and bursty arrivals; MixRun over the R2
// attack shapes, class-blind and under the blacklist, plus two-domain
// runs without queue drops, where the two homing rules coincide, and
// one overloaded blacklist run on a 32-thread machine.
func openLoopCases() []openLoopCase {
	var cs []openLoopCase
	const gather, compute = 256 << 10, 2e-4
	seed := int64(200)
	for _, domains := range []int{1, 2, 4} {
		for _, pol := range []string{"fixed2", "dynamic"} {
			for _, queue := range []int{16, 0} {
				for _, arr := range []string{"poisson", "mmpp"} {
					seed++
					seed := seed // the closure runs after the counter has moved on
					cfg := openLoopCfg(domains, seed)
					cs = append(cs, openLoopCase{
						name:  fmt.Sprintf("serve-d%d-%s-q%d-%s", domains, pol, queue, arr),
						drops: queue > 0,
						cfg:   cfg,
						serve: func() (ServeSpec, core.Throttler) {
							// ~1.6x the four threads' capacity per domain count.
							rate := 12000 * float64(domains)
							var a Arrivals = workload.NewPoisson(rate, seed+1000)
							if arr == "mmpp" {
								a = workload.NewBursty(rate, 8, 0.01, seed+1000)
							}
							var th core.Throttler = core.Fixed{K: 2}
							if pol == "dynamic" {
								th = core.NewDynamic(core.NewModel(cfg.Machine.HardwareThreads()), 8)
							}
							return ServeSpec{Arrivals: a, Jobs: 1200, Gather: gather, Compute: compute, Queue: queue}, th
						},
					})
				}
			}
		}
	}

	victim := func(seed int64) Stream {
		return Stream{Class: 0, Arrivals: workload.NewPoisson(5000, seed), Shapes: workload.NewSteady(gather, compute), Jobs: 2000}
	}
	attacks := map[string]func(seed int64) Stream{
		"flood": func(seed int64) Stream {
			return Stream{Class: 1, Arrivals: workload.NewPoisson(4000, seed), Shapes: workload.NewFlood(gather, 8, compute/4), Jobs: 1200}
		},
		"phase-flip": func(seed int64) Stream {
			mem := workload.JobShape{Gather: 4 * gather, Compute: compute / 4}
			comp := workload.JobShape{Gather: gather / 8, Compute: 4 * compute}
			return Stream{Class: 1, Arrivals: workload.NewPoisson(4000, seed), Shapes: workload.NewPhaseFlip(mem, comp, 32), Jobs: 1200}
		},
	}
	policies := map[string]func(n int) core.Throttler{
		"fixed4":  func(n int) core.Throttler { return core.Fixed{K: 4} },
		"dynamic": func(n int) core.Throttler { return core.NewDynamic(core.NewModel(n), 32) },
		"blacklist": func(n int) core.Throttler {
			return core.NewPolicyThrottler(core.NewBlacklist(core.NewDynamic(core.NewModel(n), 32), core.BlacklistOptions{}), 32, n)
		},
	}
	mixCase := func(domains int, attack, pol string, queue int) {
		seed++
		seed := seed
		cfg := openLoopCfg(domains, seed)
		cs = append(cs, openLoopCase{
			name:  fmt.Sprintf("mix-d%d-%s-%s-q%d", domains, attack, pol, queue),
			drops: queue > 0,
			cfg:   cfg,
			mix: func() (MixSpec, core.Throttler) {
				return MixSpec{Streams: []Stream{victim(seed + 1000), attacks[attack](seed + 2000)}, Queue: queue},
					policies[pol](cfg.Machine.HardwareThreads())
			},
		})
	}
	for _, attack := range []string{"flood", "phase-flip"} {
		for _, pol := range []string{"fixed4", "dynamic", "blacklist"} {
			mixCase(1, attack, pol, 64)
		}
	}
	mixCase(2, "flood", "dynamic", 0)
	mixCase(2, "flood", "blacklist", 0)

	// S1's regime on P1's machine: 32 threads, 2 domains, 4 tokens a
	// domain under the blacklist's class limits, and offered load past
	// what the gates admit, so most workers sit idle behind full gates
	// while the queue holds work.
	seed++
	wideSeed := seed
	cfg := openLoopCfg(2, wideSeed)
	cfg.Machine.Cores, cfg.Machine.SMTWays = 8, 4
	cs = append(cs, openLoopCase{
		name:  "mix-d2-c8smt4-flood-blacklistfixed4-q64",
		drops: true,
		cfg:   cfg,
		mix: func() (MixSpec, core.Throttler) {
			v, a := victim(wideSeed+1000), attacks["flood"](wideSeed+2000)
			v.Arrivals, a.Arrivals = workload.NewPoisson(8000, wideSeed+1000), workload.NewPoisson(6000, wideSeed+2000)
			th := core.NewPolicyThrottler(core.NewBlacklist(core.Fixed{K: 4}, core.BlacklistOptions{}), 32, cfg.Machine.HardwareThreads())
			return MixSpec{Streams: []Stream{v, a}, Queue: 64}, th
		},
	})
	return cs
}

// openLoopParentResults loads the committed capture.
func openLoopParentResults(t *testing.T) map[string]capturedOpenLoop {
	t.Helper()
	data, err := os.ReadFile(openLoopParentPath)
	if err != nil {
		t.Fatalf("missing parent results (see -capture): %v", err)
	}
	var want map[string]capturedOpenLoop
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// sameOpenLoop compares a fresh capture with a committed one after the
// same trip through JSON (nil and empty slices come back alike).
func sameOpenLoop(t *testing.T, got, want capturedOpenLoop) bool {
	t.Helper()
	data, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	var back capturedOpenLoop
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(back, want)
}

// TestOpenLoopMatchesParentResults pins the one open-loop driver to
// the two it replaced.
func TestOpenLoopMatchesParentResults(t *testing.T) {
	cases := openLoopCases()
	if *capture {
		got := make(map[string]capturedOpenLoop)
		for _, c := range cases {
			got[c.name] = c.run()
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(openLoopParentPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := openLoopParentResults(t)
	if len(want) != len(cases) {
		t.Fatalf("parent file holds %d cases, the test runs %d: re-capture at the parent commit", len(want), len(cases))
	}
	contained := 0
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: not in the parent file", c.name)
			continue
		}
		dropped := 0
		for _, cl := range w.Classes {
			dropped += cl.Dropped
		}
		if c.drops && dropped == 0 {
			t.Errorf("%s: no arrival was shed at the parent, the case pins nothing about drops", c.name)
		}
		if w.ContainedAt > 0 {
			contained++
		}
		if got := c.run(); !sameOpenLoop(t, got, w) {
			t.Errorf("%s: result differs from the parent commit's\n got %+v\nwant %+v", c.name, got, w)
		}
	}
	if contained == 0 {
		t.Error("no case in the parent file saw the blacklist demote a class")
	}
}
