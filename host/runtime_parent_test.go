package host

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"memthrottle/internal/core"
)

// -capture rewrites testdata/runtime_parent.json from the code under
// test. The committed file was captured at 2985d44, the parent of the
// commit that put Run and Serve on one worker runtime (two park loops,
// two retry runners, two controller feeds, two watchdogs before it), by
// running
//
//	go test ./host -run TestRuntimeMatchesParent -capture
//
// there with this file copied in, so it pins the merged runtime to its
// two predecessors, not to itself. Re-capture only for an intended
// change of a pinned counter or error text.
var captureRuntime = flag.Bool("capture", false, "rewrite testdata/runtime_parent.json from the current code")

const runtimeParentPath = "testdata/runtime_parent.json"

// pinnedCase is what one seeded program leaves behind that does not
// depend on the interleaving: at Workers=1 every counter and the first
// error's text, at Workers=4 the plan-determined counters plus the
// invariants (Holds) the interleaving must respect.
type pinnedCase struct {
	Counters map[string]int64 `json:"counters"`
	Err      string           `json:"err"`
	Holds    map[string]bool  `json:"holds,omitempty"`
}

func newPinned() pinnedCase {
	return pinnedCase{Counters: map[string]int64{}, Holds: map[string]bool{}}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// run records one Run's Stats under prefix. Pairs and the per-domain
// split are fixed by the program; plan adds the counters the fault plan
// fixes once the run has ended normally (any worker count); exact
// (Workers=1) adds the ones the interleaving decides.
func (p *pinnedCase) run(prefix string, st Stats, plan, exact bool) {
	c := p.Counters
	c[prefix+"Pairs"] = int64(st.Pairs)
	for d, ds := range st.Domains {
		c[fmt.Sprintf("%sDomains[%d].Pairs", prefix, d)] = int64(ds.Pairs)
	}
	if plan || exact {
		c[prefix+"CompletedPairs"] = int64(st.CompletedPairs)
		c[prefix+"Retries"] = int64(st.Retries)
		c[prefix+"Recovered"] = int64(st.Recovered)
	}
	if !exact {
		return
	}
	c[prefix+"FinalMTL"] = int64(st.FinalMTL)
	c[prefix+"MaxConcurrentM"] = int64(st.MaxConcurrentM)
	c[prefix+"Stalls"] = int64(st.Stalls)
	for i, s := range st.Stalled {
		c[fmt.Sprintf("%sStalled[%d]", prefix, i)] = int64(s)
	}
	c[prefix+"Degraded"] = b2i(st.Degraded)
	c[prefix+"Cancelled"] = b2i(st.Cancelled)
	c[prefix+"Spills"] = int64(st.Spills)
}

// serve records one session's ServeStats; exact as in run.
func (p *pinnedCase) serve(st ServeStats, exact bool) {
	c := p.Counters
	c["Blacklisted"] = st.Blacklisted
	c["Retries"] = st.Retries
	c["Recovered"] = st.Recovered
	c["Failed"] = st.Failed
	p.Holds["Submitted == Completed+Failed"] = st.Submitted == st.Completed+st.Failed
	p.Holds["histograms hold the completed jobs"] =
		int64(st.QueueLatency.Count()) >= st.Completed && int64(st.ServiceLatency.Count()) == st.Completed
	if !exact {
		return
	}
	c["Submitted"] = st.Submitted
	c["Completed"] = st.Completed
	c["Dropped"] = st.Dropped
	c["Rejected"] = st.Rejected
	c["AdmittedJobs"] = st.AdmittedJobs
	c["FinalMTL"] = int64(st.FinalMTL)
	c["MaxConcurrentM"] = int64(st.MaxConcurrentM)
	c["Stalls"] = st.Stalls
	for i, s := range st.Stalled {
		c[fmt.Sprintf("Stalled[%d]", i)] = s
	}
	c["Degraded"] = b2i(st.Degraded)
}

// faults records the injector's plan and how much of it fired.
func (p *pinnedCase) faults(inj *FaultInjector) {
	fc := inj.Counts()
	p.Counters["planted.Panics"] = int64(fc.Panics)
	p.Counters["planted.Errors"] = int64(fc.Errors)
	p.Counters["planted.Clean"] = int64(fc.Clean)
	p.Counters["Fired"] = int64(fc.Fired)
}

// pinPairs builds n pairs of empty tasks: every third carries a
// scatter and the slots alternate between the plain and the
// error-returning form, so both invoke paths run.
func pinPairs(n int) []Pair {
	pairs := make([]Pair, n)
	for i := range pairs {
		p := &pairs[i]
		if i%2 == 0 {
			p.Memory, p.Compute = func() {}, func() {}
		} else {
			p.MemoryErr, p.ComputeErr = func() error { return nil }, func() error { return nil }
		}
		if i%3 == 0 {
			if i%2 == 0 {
				p.ScatterErr = func() error { return nil }
			} else {
				p.Scatter = func() {}
			}
		}
	}
	return pairs
}

// pinFaulty wraps pinPairs(n) in a seeded fault plan; failures < 0
// makes every planted fault permanent.
func pinFaulty(t *testing.T, n int, seed int64, failures int) ([]Pair, *FaultInjector) {
	t.Helper()
	inj, err := NewFaultInjector(FaultConfig{
		PanicRate: 0.10, ErrorRate: 0.15, FailuresPerTask: failures, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inj.Wrap(pinPairs(n)), inj
}

var pinRetry = RetryPolicy{MaxAttempts: 3, BaseDelay: 20 * time.Microsecond, Seed: 7}

// pinW1 is the deterministic configuration: one worker takes the tasks
// in one order.
func pinW1() Config { return Config{Workers: 1, Policy: Static, MTL: 1} }

// stallSpy is pinW1's limit behind the plugin surface, so the stall
// cases can see the watchdog's signal: a task parks in hold until it has
// been flagged, where it used to sleep a fixed 60 ms against the 15 ms
// watchdog and read Stalls 0 on a loaded box.
type stallSpy struct {
	core.Fixed
	once    sync.Once
	flagged chan struct{}
}

func (s *stallSpy) OnSignal(_ int, sig core.Signal) {
	if sig == core.SignalStall {
		s.once.Do(func() { close(s.flagged) })
	}
}

// hold returns once the watchdog has flagged the calling task. The
// timer only fires in a run that has already failed (Stalls 0).
func (s *stallSpy) hold() {
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	select {
	case <-s.flagged:
	case <-deadline.C:
	}
}

// pinStall is pinW1 with a 15 ms stall watchdog and six pairs whose
// third compute stalls until flagged.
func pinStall() (Config, []Pair) {
	spy := &stallSpy{Fixed: core.Fixed{K: 1}, flagged: make(chan struct{})}
	pairs := pinPairs(6)
	pairs[2].Compute = spy.hold
	return Config{Workers: 1, Throttler: spy, StallTimeout: 15 * time.Millisecond}, pairs
}

// pinW4 runs four workers over two domains under a plugged controller
// that holds the limit at 2.
func pinW4() Config {
	pol := &fixedDecision{d: core.Decision{Limit: 2, Monitoring: true}}
	return Config{Workers: 4, Domains: 2, Throttler: core.NewPolicyThrottler(pol, 4, 2)}
}

func pinRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// pinLimit is the per-domain bound on concurrent memory tasks: the
// held limit, or the worker count where the controller moves it.
func pinLimit(rt *Runtime) int {
	if _, ok := rt.th.(*core.Dynamic); ok {
		return rt.cfg.Workers
	}
	return rt.MTL()
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// pinRun runs pairs once on cfg and records it.
func pinRun(t *testing.T, cfg Config, pairs []Pair, inj *FaultInjector) pinnedCase {
	t.Helper()
	rt := pinRuntime(t, cfg)
	st, err := rt.Run(pairs)
	p := newPinned()
	exact := cfg.Workers == 1
	p.run("", st, err == nil, exact)
	if exact || err == nil {
		p.Err = errText(err)
	} else {
		// Which task fails first is the interleaving's choice.
		p.Holds["a task failure surfaced"] = strings.Contains(err.Error(), " task ")
	}
	if inj != nil && (exact || err == nil) {
		p.faults(inj)
	}
	if !exact {
		p.runHolds(rt, st, err)
	}
	return p
}

// runHolds records the invariants of a multi-worker Run.
func (p *pinnedCase) runHolds(rt *Runtime, st Stats, err error) {
	mtl := pinLimit(rt)
	p.Holds["MaxConcurrentM within MTL*Domains"] = st.MaxConcurrentM <= mtl*rt.cfg.Domains
	sum, peaks := 0, true
	for _, ds := range st.Domains {
		sum += ds.Pairs
		peaks = peaks && ds.PeakActive <= mtl
	}
	p.Holds["per-domain Pairs sum to Pairs"] = sum == st.Pairs
	p.Holds["per-domain PeakActive within MTL"] = peaks
	if err != nil {
		p.Holds["CompletedPairs below Pairs"] = st.CompletedPairs < st.Pairs
		return
	}
	p.Holds["CompletedPairs == Pairs"] = st.CompletedPairs == st.Pairs
}

// pinServe opens a session, lets submit drive it and records the drain.
// gated holds the first job's memory task until submit returns, and
// submits the rest only once that task has started: a job counts
// against Queue until a worker takes it, so with one worker the pending
// queue then fills to exactly its capacity.
func pinServe(t *testing.T, cfg Config, sc ServeConfig, pairs []Pair, inj *FaultInjector, gated bool, submitters int) pinnedCase {
	t.Helper()
	rt := pinRuntime(t, cfg)
	srv, err := rt.Serve(sc)
	if err != nil {
		t.Fatal(err)
	}
	release, started := make(chan struct{}), make(chan struct{})
	if gated {
		body := pairs[0].Memory
		pairs[0].Memory = func() { close(started); <-release; body() }
	}
	var firstErr error
	var mu sync.Mutex
	var offered, refused int64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(pairs); i += submitters {
				err := srv.Submit(pairs[i])
				if gated && i == 0 && err == nil {
					<-started
				}
				mu.Lock()
				offered++
				if err != nil {
					refused++
					if firstErr == nil {
						firstErr = err
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(release)
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := newPinned()
	exact := cfg.Workers == 1
	p.serve(st, exact)
	p.Err = errText(firstErr)
	if inj != nil && exact {
		p.faults(inj)
	}
	p.Holds["Submitted+Dropped+refused == offered"] = st.Submitted+st.Dropped+refused == offered
	p.Holds["refused == Rejected"] = refused == st.Rejected
	p.Holds["MaxConcurrentM within MTL*Domains"] = st.MaxConcurrentM <= pinLimit(rt)*rt.cfg.Domains
	return p
}

// runtimeCases are the pinned programs.
func runtimeCases() []struct {
	name string
	run  func(t *testing.T) pinnedCase
} {
	type c = struct {
		name string
		run  func(t *testing.T) pinnedCase
	}
	phases := func(t *testing.T, cfg Config, permanentAt int) pinnedCase {
		rt := pinRuntime(t, cfg)
		var progs [][]Pair
		for i, n := range []int{5, 1, 9} {
			failures := 1
			if i == permanentAt {
				failures = -1
			}
			pairs, _ := pinFaulty(t, n, int64(40+i), failures)
			if i == permanentAt {
				pairs[0].MemoryErr = func() error { return errors.New("boom") }
			}
			progs = append(progs, pairs)
		}
		// Phases run back to back; the first failure ends the program.
		var sts []Stats
		var err error
		for i, pairs := range progs {
			st, runErr := rt.Run(pairs)
			if runErr != nil {
				err = fmt.Errorf("host: phase %d: %w", i, runErr)
				break
			}
			sts = append(sts, st)
		}
		p := newPinned()
		p.Counters["phases"] = int64(len(sts))
		for i, st := range sts {
			p.run(fmt.Sprintf("phase[%d].", i), st, true, cfg.Workers == 1)
		}
		p.Err = errText(err)
		return p
	}
	return []c{
		{"w1/run/plain", func(t *testing.T) pinnedCase {
			return pinRun(t, pinW1(), pinPairs(24), nil)
		}},
		{"w1/run/faults-recovered", func(t *testing.T) pinnedCase {
			cfg := pinW1()
			cfg.Retry = pinRetry
			pairs, inj := pinFaulty(t, 40, 11, 1)
			return pinRun(t, cfg, pairs, inj)
		}},
		{"w1/run/faults-exhausted", func(t *testing.T) pinnedCase {
			cfg := pinW1()
			cfg.Retry = pinRetry
			cfg.Retry.MaxAttempts = 2
			pairs, inj := pinFaulty(t, 40, 12, -1)
			return pinRun(t, cfg, pairs, inj)
		}},
		{"w1/run/faults-noretry", func(t *testing.T) pinnedCase {
			pairs, inj := pinFaulty(t, 40, 13, 1)
			return pinRun(t, pinW1(), pairs, inj)
		}},
		{"w1/run/pair0-compute-fails", func(t *testing.T) pinnedCase {
			pairs := pinPairs(6)
			pairs[0].Compute, pairs[0].ComputeErr = nil, func() error { return errors.New("boom") }
			return pinRun(t, pinW1(), pairs, nil)
		}},
		{"w1/run/memory-panics", func(t *testing.T) pinnedCase {
			pairs := pinPairs(6)
			pairs[3].MemoryErr = func() error { panic("kaboom") }
			return pinRun(t, pinW1(), pairs, nil)
		}},
		{"w1/run/scatter-fails-after-retries", func(t *testing.T) pinnedCase {
			cfg := pinW1()
			cfg.Retry = pinRetry
			pairs := pinPairs(6)
			pairs[3].Scatter = func() { panic("kaboom") }
			return pinRun(t, cfg, pairs, nil)
		}},
		{"w1/run/stall", func(t *testing.T) pinnedCase {
			cfg, pairs := pinStall()
			return pinRun(t, cfg, pairs, nil)
		}},
		{"w1/runphases/faults-recovered", func(t *testing.T) pinnedCase {
			cfg := pinW1()
			cfg.Retry = pinRetry
			return phases(t, cfg, -1)
		}},
		{"w1/runphases/phase1-fails", func(t *testing.T) pinnedCase {
			cfg := pinW1()
			cfg.Retry = pinRetry
			return phases(t, cfg, 1)
		}},
		{"w1/serve/reject", func(t *testing.T) pinnedCase {
			return pinServe(t, pinW1(), ServeConfig{Queue: 4, Shed: ShedReject}, pinPairs(12), nil, true, 1)
		}},
		{"w1/serve/drop", func(t *testing.T) pinnedCase {
			return pinServe(t, pinW1(), ServeConfig{Queue: 4, Shed: ShedDrop}, pinPairs(12), nil, true, 1)
		}},
		{"w1/serve/block-faults-recovered", func(t *testing.T) pinnedCase {
			cfg := pinW1()
			cfg.Retry = pinRetry
			pairs, inj := pinFaulty(t, 40, 21, 1)
			return pinServe(t, cfg, ServeConfig{Queue: 2, Shed: ShedBlock}, pairs, inj, false, 1)
		}},
		{"w1/serve/block-faults-exhausted", func(t *testing.T) pinnedCase {
			cfg := pinW1()
			cfg.Retry = pinRetry
			cfg.Retry.MaxAttempts = 2
			pairs, inj := pinFaulty(t, 40, 22, -1)
			return pinServe(t, cfg, ServeConfig{Queue: 2, Shed: ShedBlock}, pairs, inj, false, 1)
		}},
		{"w1/serve/stall", func(t *testing.T) pinnedCase {
			cfg, pairs := pinStall()
			return pinServe(t, cfg, ServeConfig{Shed: ShedBlock}, pairs, nil, false, 1)
		}},
		{"w4d2/run/plain", func(t *testing.T) pinnedCase {
			return pinRun(t, pinW4(), pinPairs(96), nil)
		}},
		{"w4d2/run/faults-recovered", func(t *testing.T) pinnedCase {
			cfg := pinW4()
			cfg.Retry = pinRetry
			pairs, inj := pinFaulty(t, 96, 31, 1)
			return pinRun(t, cfg, pairs, inj)
		}},
		{"w4d2/run/faults-exhausted", func(t *testing.T) pinnedCase {
			cfg := pinW4()
			cfg.Retry = pinRetry
			cfg.Retry.MaxAttempts = 2
			pairs, inj := pinFaulty(t, 96, 32, -1)
			return pinRun(t, cfg, pairs, inj)
		}},
		{"w4d2/run/dynamic", func(t *testing.T) pinnedCase {
			return pinRun(t, Config{Workers: 4, Domains: 2, Policy: Dynamic, W: 4}, pinPairs(96), nil)
		}},
		{"w4d2/runphases/faults-recovered", func(t *testing.T) pinnedCase {
			cfg := pinW4()
			cfg.Retry = pinRetry
			return phases(t, cfg, -1)
		}},
		{"w4d2/serve/reject", func(t *testing.T) pinnedCase {
			return pinServe(t, pinW4(), ServeConfig{Queue: 4, Shed: ShedReject}, pinPairs(200), nil, false, 2)
		}},
		{"w4d2/serve/drop", func(t *testing.T) pinnedCase {
			return pinServe(t, pinW4(), ServeConfig{Queue: 4, Shed: ShedDrop}, pinPairs(200), nil, false, 2)
		}},
		{"w4d2/serve/block-faults-recovered", func(t *testing.T) pinnedCase {
			cfg := pinW4()
			cfg.Retry = pinRetry
			pairs, inj := pinFaulty(t, 200, 33, 1)
			return pinServe(t, cfg, ServeConfig{Queue: 8, Shed: ShedBlock}, pairs, inj, false, 2)
		}},
		{"w4d2/serve/block-faults-exhausted", func(t *testing.T) pinnedCase {
			cfg := pinW4()
			cfg.Retry = pinRetry
			cfg.Retry.MaxAttempts = 2
			pairs, inj := pinFaulty(t, 200, 34, -1)
			return pinServe(t, cfg, ServeConfig{Queue: 8, Shed: ShedBlock}, pairs, inj, false, 2)
		}},
		{"w4d2/serve/dynamic", func(t *testing.T) pinnedCase {
			cfg := Config{Workers: 4, Domains: 2, Policy: Dynamic, W: 4}
			return pinServe(t, cfg, ServeConfig{Queue: 8, Shed: ShedBlock}, pinPairs(200), nil, false, 2)
		}},
	}
}

// TestRuntimeMatchesParent pins Run, back-to-back Runs and Serve to
// what the two separate runtimes of the parent commit produced for the
// same seeded programs.
func TestRuntimeMatchesParent(t *testing.T) {
	cases := runtimeCases()
	if *captureRuntime {
		got := make(map[string]pinnedCase)
		for _, c := range cases {
			got[c.name] = c.run(t)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(runtimeParentPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runtimeParentPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(runtimeParentPath)
	if err != nil {
		t.Fatalf("%v (capture it at the parent commit: see the comment on -capture)", err)
	}
	var want map[string]pinnedCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("parent file holds %d cases, the test runs %d: re-capture at the parent commit", len(want), len(cases))
	}
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: not in the parent file", c.name)
			continue
		}
		for name, held := range w.Holds {
			if !held {
				t.Errorf("%s: the parent file records %q as broken; it pins nothing", c.name, name)
			}
		}
		// Both sides take the trip through JSON, so empty maps compare
		// equal to absent ones.
		enc, err := json.Marshal(c.run(t))
		if err != nil {
			t.Fatal(err)
		}
		var got pinnedCase
		if err := json.Unmarshal(enc, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s: differs from the parent commit's\n got %+v\nwant %+v", c.name, got, w)
		}
	}
}
