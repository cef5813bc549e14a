package simsched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"memthrottle/internal/contend"
	"memthrottle/internal/machine"
	"memthrottle/internal/sim"
)

// testdata/fluid_parent.json holds what contend.Pool and machine.Core
// did at 0e3357c for seeded random schedules of Start/StartFunc —
// fractional weights, joins mid-transfer, callbacks that start new
// work, completions that coincide inside the due-set tolerance, a Reset
// with work in flight and a rerun: the completion order and the float64
// bits of every completion instant, every ActiveWeight/BusyTime read
// and the lifetime counters. The fluid arithmetic there is b964a2f's,
// the commit before the two became wrappers over one processor-sharing
// server (sim.Shared), which an earlier form of this script pinned; the
// script lost its cancels and handle reads when the servers stopped
// handing out job handles. It was captured the way kernel_parent.json
// was, this file copied to 0e3357c, then
//
//	go test ./internal/simsched -run TestFluidMatchesParent -capture
//
// and is compared byte for byte. Re-capture only for an intended change
// of the fluid models' arithmetic.
const fluidParentPath = "testdata/fluid_parent.json"

const (
	opStart     = iota // start with a closure callback
	opStartFunc        // pre-bound start; the callback chains depth more
	opRead             // read the server's gauges
)

// fluidOp is one scripted call at a virtual instant. Scripts are drawn
// before the run, so they do not depend on the code under test.
type fluidOp struct {
	at     sim.Time
	kind   int
	id     int     // names the transfer in the log; chained work is id+1, id+2, ...
	unit   int     // core index (machine scripts)
	amount float64 // bytes, or solo seconds
	weight float64
	depth  int
}

// fluidScript draws n scripted instants. Roughly one in eight is a
// burst of five starts at the same instant: three of one size (exact
// ties), one a part in 1e15 larger (inside the due-set tolerance of
// 1e-12 until the last thousandth of the transfer, so it completes in
// the same event) and one a few parts in 1e12 larger (outside it, so it
// completes in an event of its own a hair later).
func fluidScript(rng *rand.Rand, n int, meanGap sim.Time, lo, hi float64, units int) []fluidOp {
	var ops []fluidOp
	at := sim.Time(0)
	weight := func() float64 {
		if rng.Intn(3) == 0 {
			return 1 - rng.Float64()*0.95 // (0.05, 1]
		}
		return 1
	}
	for i := 0; i < n; i++ {
		at += sim.Time(rng.ExpFloat64()) * meanGap
		op := fluidOp{at: at, id: 10 * len(ops), unit: rng.Intn(units), amount: lo + rng.Float64()*(hi-lo), weight: weight()}
		switch r := rng.Intn(16); {
		case r < 6:
			op.kind = opStart
		case r < 10:
			op.kind, op.depth = opStartFunc, rng.Intn(4)
		case r < 12:
			for j, scale := range []float64{1, 1, 1 + 1e-15, 1, 1 + 4e-12} {
				b := op
				b.id, b.amount = 10*len(ops), op.amount*scale
				b.kind = opStart
				if j%2 == 1 {
					b.kind = opStartFunc
				}
				ops = append(ops, b)
			}
			continue
		default:
			op.kind = opRead
		}
		ops = append(ops, op)
	}
	return ops
}

type fluidLog []string

func (l *fluidLog) addf(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

func bitsOf(x float64) string { return strconv.FormatUint(math.Float64bits(x), 16) }

// fluidLink is the per-transfer state of a pre-bound start: the
// callback logs the completion and, depth permitting, starts the next
// link — alternately through the pre-bound and the closure entry
// point.
type fluidLink struct {
	id, unit, depth int
	amount, weight  float64
}

func (k *fluidLink) next() *fluidLink {
	return &fluidLink{id: k.id + 1, unit: k.unit, depth: k.depth - 1, amount: k.amount * 0.75, weight: k.weight}
}

// schedulePool queues a script against a pool.
func schedulePool(l *fluidLog, eng *sim.Engine, p *contend.Pool, ops []fluidOp) {
	var chain func(any)
	chain = func(arg any) {
		k := arg.(*fluidLink)
		l.addf("d %d %s", k.id, bitsOf(float64(eng.Now())))
		if k.depth == 0 {
			return
		}
		n := k.next()
		if n.depth%2 == 0 {
			p.StartFunc(n.amount, n.weight, chain, n)
		} else {
			p.Start(n.amount, n.weight, func() { chain(n) })
		}
	}
	run := func(arg any) {
		op := arg.(*fluidOp)
		switch op.kind {
		case opStart:
			p.Start(op.amount, op.weight, func() { l.addf("d %d %s", op.id, bitsOf(float64(eng.Now()))) })
		case opStartFunc:
			p.StartFunc(op.amount, op.weight, chain, &fluidLink{id: op.id, depth: op.depth, amount: op.amount, weight: op.weight})
		case opRead:
			l.addf("r w %s n %d", bitsOf(p.ActiveWeight()), p.Count())
		}
	}
	for i := range ops {
		eng.AtFunc(ops[i].at, run, &ops[i])
	}
}

func poolGauges(l *fluidLog, what string, eng *sim.Engine, p *contend.Pool) {
	l.addf("%s now %s started %d completed %d n %d w %s", what, bitsOf(float64(eng.Now())), p.Started(), p.Completed(), p.Count(), bitsOf(p.ActiveWeight()))
}

// scheduleMachine queues a script against a machine's cores.
func scheduleMachine(l *fluidLog, eng *sim.Engine, m *machine.Machine, ops []fluidOp) {
	var chain func(any)
	chain = func(arg any) {
		k := arg.(*fluidLink)
		l.addf("d %d %s", k.id, bitsOf(float64(eng.Now())))
		if k.depth == 0 {
			return
		}
		n := k.next()
		if n.depth%2 == 0 {
			m.Core(n.unit).StartComputeFunc(sim.Time(n.amount), chain, n)
		} else {
			m.Core(n.unit).StartCompute(sim.Time(n.amount), func() { chain(n) })
		}
	}
	run := func(arg any) {
		op := arg.(*fluidOp)
		c := m.Core(op.unit)
		switch op.kind {
		case opStart:
			c.StartCompute(sim.Time(op.amount), func() { l.addf("d %d %s", op.id, bitsOf(float64(eng.Now()))) })
		case opStartFunc:
			c.StartComputeFunc(sim.Time(op.amount), chain, &fluidLink{id: op.id, unit: op.unit, depth: op.depth, amount: op.amount})
		case opRead:
			l.addf("r core %d busy %s n %d", op.unit, bitsOf(float64(c.BusyTime())), c.ActiveCompute())
		}
	}
	for i := range ops {
		eng.AtFunc(ops[i].at, run, &ops[i])
	}
}

func machineGauges(l *fluidLog, what string, eng *sim.Engine, m *machine.Machine) {
	l.addf("%s now %s", what, bitsOf(float64(eng.Now())))
	for _, c := range m.Cores() {
		l.addf("core %d busy %s n %d", c.ID(), bitsOf(float64(c.BusyTime())), c.ActiveCompute())
	}
}

// fluidCases runs every seed through both models: script A interrupted
// with work in flight, a Reset, script B to the end, a second Reset and
// script A again to the end (the rerun).
func fluidCases() map[string]fluidLog {
	out := make(map[string]fluidLog)
	episode := func(eng *sim.Engine, a, b []fluidOp, schedule func([]fluidOp), gauges func(string), reset func(rerun bool)) {
		schedule(a)
		eng.RunUntil(a[len(a)*2/3].at)
		gauges("cut")
		eng.Reset()
		reset(false)
		gauges("reset")
		schedule(b)
		eng.Run()
		gauges("end")
		eng.Reset()
		reset(true)
		schedule(a)
		eng.Run()
		gauges("rerun")
	}
	fast := contend.Params{TmlPerByte: 1e-9, TqlPerByte: 0.4e-9}
	slow := contend.Params{TmlPerByte: 2.25e-9, TqlPerByte: 1.0e-9 / 3}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 40

		var l fluidLog
		eng := sim.NewWheel()
		p := contend.NewPool(eng, fast)
		episode(eng,
			fluidScript(rng, n, 900*sim.Microsecond, 64<<10, 1<<20, 1),
			fluidScript(rng, n, 2500*sim.Microsecond, 64<<10, 1<<20, 1),
			func(ops []fluidOp) { schedulePool(&l, eng, p, ops) },
			func(what string) { poolGauges(&l, what, eng, p) },
			func(rerun bool) {
				if rerun {
					p.Reset(fast)
				} else {
					p.Reset(slow)
				}
			})
		out[fmt.Sprintf("pool-%d", seed)] = l

		var lm fluidLog
		eng = sim.NewWheel()
		m := machine.New(eng, machine.Config{Cores: 2, SMTWays: 4})
		episode(eng,
			fluidScript(rng, n, 120*sim.Microsecond, 10e-6, 400e-6, 2),
			fluidScript(rng, n, 90*sim.Microsecond, 10e-6, 400e-6, 2),
			func(ops []fluidOp) { scheduleMachine(&lm, eng, m, ops) },
			func(what string) { machineGauges(&lm, what, eng, m) },
			func(bool) { m.Reset() })
		out[fmt.Sprintf("machine-%d", seed)] = lm
	}
	return out
}

// TestFluidMatchesParent pins both fluid models, bit for bit, to the
// separate implementations they had at the parent commit.
func TestFluidMatchesParent(t *testing.T) {
	cases := fluidCases()
	got, err := json.MarshalIndent(cases, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if *capture {
		if err := os.WriteFile(fluidParentPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fluidParentPath)
	if err != nil {
		t.Fatalf("missing parent capture (see -capture): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var parent map[string]fluidLog
	if err := json.Unmarshal(want, &parent); err != nil {
		t.Fatal(err)
	}
	for name, l := range cases {
		w := parent[name]
		for i := range l {
			if i >= len(w) || l[i] != w[i] {
				t.Errorf("%s: entry %d is %q, the parent commit's is %q", name, i, l[i], append(w, "(none)")[min(i, len(w))])
				break
			}
		}
		if len(l) < len(w) {
			t.Errorf("%s: %d entries, the parent commit logged %d", name, len(l), len(w))
		}
	}
	t.Error("fluid_parent.json differs from what the code under test produces")
}
