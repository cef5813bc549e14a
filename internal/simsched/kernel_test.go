package simsched

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"memthrottle/internal/core"
	"memthrottle/internal/machine"
	"memthrottle/internal/sim"
	"memthrottle/internal/stream"
	"memthrottle/internal/trace"
)

// refAdmission is the admission rule the run kernel replaced, kept as
// its reference: one flat queue of ready memory tasks in task-ID
// order, scanned from the front for the first task whose home domain
// still holds MTL tokens, against the head of the ready compute queue.
//
// It shares no state with the kernel's per-domain structures. It sees
// the kernel's picks through runner.onPick and learns completions from
// the timeline being recorded (account appends a task's segment the
// moment the task finishes), and from those two streams alone it keeps
// its own queues and token counts.
type refAdmission struct {
	t    *testing.T
	prog *stream.Program

	readyMem     []*stream.Task
	readyCompute []*stream.Task
	activeMem    []int
	phase        int // phase whose gathers are queued; -1 before the first
	seen         int // timeline segments consumed
	picks, idles int
}

func insertTaskByID(q []*stream.Task, ts *stream.Task) []*stream.Task {
	i := len(q)
	for i > 0 && q[i-1].ID > ts.ID {
		i--
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = ts
	return q
}

func (o *refAdmission) dom(ts *stream.Task) int { return ts.Pair % len(o.activeMem) }

// sync replays what happened since the last dispatch, given the
// timeline so far and the phase the run is in: finished tasks release
// tokens and make their successors ready; a phase change queues the new
// phase's gathers.
func (o *refAdmission) sync(tl *trace.Timeline, phase int) {
	segs := tl.Segments()
	for ; o.seen < len(segs); o.seen++ {
		label := segs[o.seen].Label
		if label == "mon" {
			continue
		}
		var kind stream.Kind
		var rest string
		for _, k := range []stream.Kind{stream.Gather, stream.Compute, stream.Scatter} {
			if s, ok := strings.CutPrefix(label, k.String()); ok {
				kind, rest = k, s
			}
		}
		var ph, pr int
		if _, err := fmt.Sscanf(rest, "%d.%d", &ph, &pr); err != nil {
			o.t.Fatalf("timeline label %q: %v", label, err)
		}
		pair := o.prog.Phases[ph].Pairs[pr]
		switch kind {
		case stream.Gather:
			o.activeMem[o.dom(pair.Gather)]--
			o.readyCompute = insertTaskByID(o.readyCompute, pair.Compute)
		case stream.Compute:
			if pair.Scatter != nil {
				o.readyMem = insertTaskByID(o.readyMem, pair.Scatter)
			}
		case stream.Scatter:
			o.activeMem[o.dom(pair.Scatter)]--
		}
	}
	if phase != o.phase {
		if len(o.readyMem) != 0 || len(o.readyCompute) != 0 {
			o.t.Fatalf("phase %d entered with %d memory and %d compute tasks of phase %d still queued",
				phase, len(o.readyMem), len(o.readyCompute), o.phase)
		}
		o.phase = phase
		if phase == len(o.prog.Phases) {
			return // the run is over
		}
		for _, pair := range o.prog.Phases[phase].Pairs {
			o.readyMem = insertTaskByID(o.readyMem, pair.Gather)
		}
	}
}

// check compares one kernel decision with the reference scan, then
// applies it to the reference's own queues.
func (o *refAdmission) check(w *worker, got *taskRun, mtl int) {
	memIdx := -1
	for i, ts := range o.readyMem {
		if o.activeMem[o.dom(ts)] < mtl {
			memIdx = i
			break
		}
	}
	compOK := len(o.readyCompute) > 0
	var want *stream.Task
	switch {
	case memIdx >= 0 && (!compOK || o.readyMem[memIdx].ID < o.readyCompute[0].ID):
		want = o.readyMem[memIdx]
		o.readyMem = append(o.readyMem[:memIdx], o.readyMem[memIdx+1:]...)
		o.activeMem[o.dom(want)]++
	case compOK:
		want = o.readyCompute[0]
		o.readyCompute = o.readyCompute[1:]
	}
	switch {
	case want == nil && got == nil:
		o.idles++
		return
	case want == nil:
		o.t.Fatalf("dispatch %d (worker %d, MTL %d): kernel picked task %d, reference leaves the worker idle",
			o.picks, w.id, mtl, got.task.ID)
	case got == nil:
		o.t.Fatalf("dispatch %d (worker %d, MTL %d): kernel leaves the worker idle, reference picks task %d",
			o.picks, w.id, mtl, want.ID)
	case got.task != want:
		o.t.Fatalf("dispatch %d (worker %d, MTL %d): kernel picked task %d (%s), reference picks %d (%s)",
			o.picks, w.id, mtl, got.task.ID, got.task.Kind, want.ID, want.Kind)
	}
	o.picks++
}

// runAgainstReference runs prog with every dispatch checked.
func runAgainstReference(t *testing.T, prog *stream.Program, c Config, th core.Throttler) (Result, *refAdmission) {
	t.Helper()
	c.RecordTrace = true
	r := newRunner(c)
	o := &refAdmission{t: t, prog: prog, activeMem: make([]int, c.Machine.Domains()), phase: -1}
	r.onPick = func(w *worker, got *taskRun, mtl int) {
		o.sync(r.timeline, r.phase)
		o.check(w, got, mtl)
	}
	res := r.run(prog, c, th)
	o.sync(res.Timeline, len(prog.Phases))
	if len(o.readyMem) != 0 || len(o.readyCompute) != 0 {
		t.Fatalf("run ended with %d memory and %d compute tasks still queued in the reference", len(o.readyMem), len(o.readyCompute))
	}
	for d, a := range o.activeMem {
		if a != 0 {
			t.Fatalf("run ended with %d tokens of domain %d still held in the reference", a, d)
		}
	}
	return res, o
}

// TestDispatchMatchesReferenceScan drives randomized programs — 1, 2
// and 4 domains, with and without scatter, 1 to 300 pairs a phase,
// static limits and the two adaptive controllers with short windows so
// the MTL moves mid-phase — and checks every dispatch decision of the
// kernel against the reference admission scan.
func TestDispatchMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20100913))
	runs := 150
	if testing.Short() {
		runs = 40
	}
	var picks, idles, moved int
	for i := 0; i < runs; i++ {
		domains := []int{1, 2, 4}[rng.Intn(3)]
		scatter := rng.Intn(2) == 1
		c := cfg()
		c.Machine.SMTWays = 1 + rng.Intn(2)
		if domains > 1 {
			c.Machine.MemDomains = domains
			for d := 0; d < domains; d++ {
				c.DomainMem[d] = testMem()
				c.DomainMem[d].TqlPerByte *= 1 + rng.Float64()
			}
		}
		c.NoiseSigma = []float64{0, 0.003, 0.05}[rng.Intn(3)]
		c.Seed = rng.Int63()

		var specs []stream.PhaseSpec
		for ph := 1 + rng.Intn(3); ph > 0; ph-- {
			pairs := 1 + rng.Intn(300)
			if rng.Intn(3) == 0 {
				pairs = 1 + rng.Intn(9) // around and below the thread count
			}
			fp := float64(int(64<<10) << rng.Intn(6)) // 64 KB .. 2 MB: the top end overflows the LLC
			spec := stream.PhaseSpec{
				Name: "p", Pairs: pairs, MemBytes: fp,
				ComputeTime: sim.Time(float64(testMem().TaskTime(fp, 1)) / (0.1 + 3*rng.Float64())),
			}
			if scatter {
				spec.ScatterBytes = fp / float64(1+rng.Intn(4))
			}
			specs = append(specs, spec)
		}
		prog := stream.Build("random", specs...)

		n := c.Machine.HardwareThreads()
		model := core.NewModel(n)
		var th core.Throttler
		switch rng.Intn(3) {
		case 0:
			th = core.Fixed{K: 1 + rng.Intn(n)}
		case 1:
			th = core.NewDynamic(model, 1+rng.Intn(8))
		default:
			th = core.NewOnlineExhaustive(model, 1+rng.Intn(8), 0.10)
		}

		res, o := runAgainstReference(t, prog, c, th)
		if res.PairsCompleted != prog.TotalPairs() {
			t.Fatalf("run %d: %d of %d pairs completed", i, res.PairsCompleted, prog.TotalPairs())
		}
		if o.picks != prog.TotalTasks() {
			t.Fatalf("run %d: %d tasks dispatched, program has %d", i, o.picks, prog.TotalTasks())
		}
		picks += o.picks
		idles += o.idles
		if len(res.MeanTm) > 1 {
			moved++
		}
	}
	if idles == 0 || moved == 0 {
		t.Errorf("weak coverage: %d dispatches, %d left a worker idle, %d runs saw the MTL move", picks, idles, moved)
	}
}

// scatterSynth is the synthetic kernel with a write-back half the
// gather's size: every pair is a gather, a compute and a scatter.
func scatterSynth(ratio float64, pairs int) *stream.Program {
	return stream.Build("synth+scatter", stream.PhaseSpec{
		Name: "main", Pairs: pairs, MemBytes: footprint,
		ComputeTime: sim.Time(float64(tm1()) / ratio), ScatterBytes: footprint / 2,
	})
}

// TestRunAllocationsIndependentOfPairCount pins the kernel's
// allocation profile: a run allocates its result and, on a runner that
// has not seen a phase this long, a larger slab — so sixteen times the
// pairs may cost a few slice regrowths, never a per-pair allocation.
// (With a taskRun, a closure and an actor per task, 1024 pairs cost
// some eleven per pair more than 64.)
func TestRunAllocationsIndependentOfPairCount(t *testing.T) {
	model := core.NewModel(4)
	policies := map[string]func() core.Throttler{
		"fixed":   func() core.Throttler { return core.Fixed{K: 2} },
		"dynamic": func() core.Throttler { return core.NewDynamic(model, 8) },
	}
	for name, mk := range policies {
		allocs := func(pairs int) float64 {
			prog := scatterSynth(0.5, pairs)
			c := cfg()
			c.NoiseSigma = 0.003
			return testing.AllocsPerRun(5, func() {
				if res := Run(prog, c, mk()); res.PairsCompleted != pairs {
					t.Fatalf("%d of %d pairs completed", res.PairsCompleted, pairs)
				}
			})
		}
		small, large := allocs(64), allocs(1024)
		t.Logf("%s: %.0f allocations at 64 pairs, %.0f at 1024", name, small, large)
		if large-small > 64 {
			t.Errorf("%s: 1024 pairs cost %.0f more allocations than 64 (%.0f vs %.0f), want <= 64",
				name, large-small, large, small)
		}
	}
}

// TestRecycledRunnerMatchesParentResults runs the fixed case set the
// way Run's pool does in the worst case: one runner per machine shape
// serves every case of that shape back to back, in the file's order
// and then reversed, so each run starts on whatever a different
// program, policy, seed and trace setting left behind. Every result
// must still be the one a runner built for the case produced at the
// parent commit.
func TestRecycledRunnerMatchesParentResults(t *testing.T) {
	want := parentResults(t)
	cases := kernelCases()
	byShape := make(map[machine.Config]*runner)
	reused := 0
	check := func(c kernelCase) {
		cf := c.config()
		r := byShape[cf.Machine]
		if r == nil {
			r = newRunner(cf)
			byShape[cf.Machine] = r
		} else {
			reused++
		}
		if res := r.run(c.program(), cf, c.throttler()); !sameAsParent(t, res, want[c.name]) {
			res.Timeline = nil
			t.Errorf("%s on a recycled runner: result differs from the parent commit's\n got %+v\nwant %+v",
				c.name, res, want[c.name].Result)
		}
	}
	for _, c := range cases {
		check(c)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		check(cases[i])
	}
	if reused < len(cases) {
		t.Errorf("only %d of %d runs reused a runner", reused, 2*len(cases))
	}
}

// TestRunConcurrentRecycling has several goroutines draw runners from
// the shared pool at once, each working through the fixed cases from a
// different starting point, so runners migrate between goroutines and
// shapes; every result must be the parent commit's. Part of `make race`.
func TestRunConcurrentRecycling(t *testing.T) {
	want := parentResults(t)
	cases := kernelCases()
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cases {
				c := cases[(i+g*len(cases)/workers)%len(cases)]
				if res := Run(c.program(), c.config(), c.throttler()); !sameAsParent(t, res, want[c.name]) {
					t.Errorf("goroutine %d, %s: result differs from the parent commit's", g, c.name)
				}
			}
		}(g)
	}
	wg.Wait()
}
