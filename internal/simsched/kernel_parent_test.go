package simsched

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memthrottle/internal/core"
	"memthrottle/internal/sim"
	"memthrottle/internal/stream"
	"memthrottle/internal/trace"
)

// -capture rewrites testdata/kernel_parent.json from the code under
// test. The committed file was captured at the parent commit of the
// run-kernel rewrite (flat ID-sorted readyMem slice, linear admission
// scan, one closure per task) by copying this file there and running
//
//	go test ./internal/simsched -run TestRunMatchesParentResults -capture
//
// so it pins the rewrite to its predecessor, not to itself. Re-capture
// only for an intended change of simulated output.
var capture = flag.Bool("capture", false, "rewrite testdata/kernel_parent.json from the current code")

// kernelCase is one fixed (program, machine, policy, seed) point.
type kernelCase struct {
	name      string
	cores     int // 0: the default machine's four
	domains   int
	smt       int
	pairs     []int // pairs per phase
	footprint float64
	ratio     float64 // Tm1/Tc
	scatter   bool
	policy    string
	seed      int64
	trace     bool
	slowMem   bool // a DIMM with twice the queueing cost per byte
}

// kernelCases spans what the dispatch order depends on: domain count,
// scatter re-admission, pair counts around and far above the thread
// count, a moving MTL (dynamic, online), SMT, LLC overflow (2 MB
// footprints drive miss traffic through the compute path), phase
// barriers, and two memory systems per machine shape (a recycled
// runner must take the new parameters). Traced cases stay small; the
// timelines are the bulk of the file.
func kernelCases() []kernelCase {
	var cs []kernelCase
	policies := []string{"fixed1", "fixed2", "fixed4", "dynamic", "online"}
	seed := int64(1)
	for _, d := range []int{1, 2, 4} {
		for _, sc := range []bool{false, true} {
			for pi, pol := range policies {
				seed++
				cs = append(cs, kernelCase{
					domains: d, smt: 1, pairs: []int{37 + 60*pi, 5}, footprint: 512 << 10,
					ratio: 0.3 + 0.35*float64(pi), scatter: sc, policy: pol, seed: seed,
				})
			}
			seed++
			cs = append(cs, kernelCase{
				domains: d, smt: 1, pairs: []int{13, 1, 9}, footprint: 256 << 10,
				ratio: 0.8, scatter: sc, policy: "dynamic", seed: seed, trace: true,
			})
		}
	}
	cs = append(cs,
		kernelCase{domains: 1, smt: 2, pairs: []int{64}, footprint: 512 << 10, ratio: 0.5, scatter: true, policy: "dynamic", seed: 101},
		kernelCase{domains: 2, smt: 2, pairs: []int{11}, footprint: 512 << 10, ratio: 1.2, scatter: true, policy: "online", seed: 102, trace: true},
		kernelCase{domains: 1, smt: 1, pairs: []int{48}, footprint: 2 << 20, ratio: 0.6, policy: "fixed4", seed: 103},
		kernelCase{domains: 2, smt: 1, pairs: []int{12}, footprint: 2 << 20, ratio: 0.6, scatter: true, policy: "fixed4", seed: 104, trace: true},
		kernelCase{domains: 4, smt: 1, pairs: []int{300}, footprint: 512 << 10, ratio: 2.5, scatter: true, policy: "fixed2", seed: 105},
		kernelCase{domains: 1, smt: 1, pairs: []int{40}, footprint: 512 << 10, ratio: 0.7, policy: "fixed4", seed: 106, slowMem: true},
		kernelCase{domains: 2, smt: 1, pairs: []int{40}, footprint: 512 << 10, ratio: 0.7, scatter: true, policy: "dynamic", seed: 107, slowMem: true},
		kernelCase{cores: 8, domains: 2, smt: 4, pairs: []int{200, 33}, footprint: 512 << 10, ratio: 0.4, policy: "fixed4", seed: 108},
		kernelCase{cores: 8, domains: 2, smt: 4, pairs: []int{200, 33}, footprint: 512 << 10, ratio: 0.4, scatter: true, policy: "dynamic", seed: 109},
	)
	for i := range cs {
		c := &cs[i]
		c.name = fmt.Sprintf("%02d-d%d-smt%d-p%v-r%.2f-sc%t-%s", i, c.domains, c.smt, c.pairs, c.ratio, c.scatter, c.policy)
		if c.cores > 0 {
			c.name += fmt.Sprintf("-c%d", c.cores)
		}
	}
	return cs
}

func (c kernelCase) program() *stream.Program {
	tm1 := testMem().TaskTime(c.footprint, 1)
	var specs []stream.PhaseSpec
	for i, n := range c.pairs {
		spec := stream.PhaseSpec{
			Name: fmt.Sprintf("p%d", i), Pairs: n, MemBytes: c.footprint,
			ComputeTime: sim.Time(float64(tm1) / c.ratio),
		}
		if c.scatter {
			spec.ScatterBytes = c.footprint / 2
		}
		specs = append(specs, spec)
	}
	return stream.Build("kernel", specs...)
}

func (c kernelCase) config() Config {
	cf := cfg()
	if c.cores > 0 {
		cf.Machine.Cores = c.cores
	}
	cf.Machine.SMTWays = c.smt
	if c.slowMem {
		cf.Mem.TqlPerByte *= 2
	}
	if c.domains > 1 {
		cf.Machine.MemDomains = c.domains
		for d := 0; d < c.domains; d++ {
			// Unequal DIMMs, so the domains drift apart.
			cf.DomainMem[d] = cf.Mem
			cf.DomainMem[d].TqlPerByte *= 1 + 0.25*float64(d)
		}
	}
	cf.NoiseSigma = 0.01
	cf.Seed = c.seed
	cf.RecordTrace = c.trace
	return cf
}

func (c kernelCase) throttler() core.Throttler {
	model := core.NewModel(c.config().Machine.HardwareThreads())
	switch c.policy {
	case "fixed1":
		return core.Fixed{K: 1}
	case "fixed2":
		return core.Fixed{K: 2}
	case "fixed4":
		return core.Fixed{K: 4}
	case "dynamic":
		return core.NewDynamic(model, 4)
	case "online":
		return core.NewOnlineExhaustive(model, 4, 0.10)
	}
	panic("unknown policy " + c.policy)
}

// capturedRun is a Result in a JSON shape that round-trips exactly:
// the timeline's fields are unexported, so its segments travel beside
// the result.
type capturedRun struct {
	Result   Result
	Threads  int
	Segments []trace.Segment
}

func captureRun(res Result) capturedRun {
	c := capturedRun{Result: res}
	if tl := res.Timeline; tl != nil {
		c.Threads, c.Segments = tl.Threads(), tl.Segments()
		c.Result.Timeline = nil
	}
	return c
}

const parentResultsPath = "testdata/kernel_parent.json"

// parentResults loads the committed capture.
func parentResults(t *testing.T) map[string]capturedRun {
	t.Helper()
	data, err := os.ReadFile(parentResultsPath)
	if err != nil {
		t.Fatalf("missing parent results (see -capture): %v", err)
	}
	var want map[string]capturedRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// sameAsParent compares a fresh result with a captured one. The fresh
// one takes the same trip through JSON first, so both sides have the
// shape JSON gives empty slices and maps; float64 survives it exactly.
func sameAsParent(t *testing.T, res Result, want capturedRun) bool {
	t.Helper()
	data, err := json.Marshal(captureRun(res))
	if err != nil {
		t.Error(err) // not Fatal: callers may be off the test goroutine
		return false
	}
	var got capturedRun
	if err := json.Unmarshal(data, &got); err != nil {
		t.Error(err)
		return false
	}
	return reflect.DeepEqual(got, want)
}

// TestRunMatchesParentResults pins Run to the results its predecessor
// produced: every field of Result, timelines included, for a fixed set
// of programs and seeds.
func TestRunMatchesParentResults(t *testing.T) {
	cases := kernelCases()
	if *capture {
		got := make(map[string]capturedRun)
		for _, c := range cases {
			got[c.name] = captureRun(Run(c.program(), c.config(), c.throttler()))
		}
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(parentResultsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parentResultsPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := parentResults(t)
	if len(want) != len(cases) {
		t.Fatalf("parent file holds %d cases, the test runs %d: re-capture at the parent commit", len(want), len(cases))
	}
	traced := 0
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: not in the parent file", c.name)
			continue
		}
		if len(w.Segments) > 0 {
			traced++
		}
		if res := Run(c.program(), c.config(), c.throttler()); !sameAsParent(t, res, w) {
			res.Timeline = nil
			t.Errorf("%s: result differs from the parent commit's\n got %+v\nwant %+v", c.name, res, w.Result)
		}
	}
	if traced == 0 {
		t.Error("no traced case in the parent file")
	}
}
