package simsched

import (
	"math"
	"testing"
	"testing/quick"

	"memthrottle/internal/contend"
	"memthrottle/internal/core"
	"memthrottle/internal/machine"
	"memthrottle/internal/sim"
	"memthrottle/internal/stream"
)

// randomProgram decodes fuzz bytes into a small multi-phase program.
func randomProgram(phaseSeeds []uint16) *stream.Program {
	var specs []stream.PhaseSpec
	for i, s := range phaseSeeds {
		if i >= 4 {
			break
		}
		pairs := int(s%13) + 1
		ratioStep := float64(s%37)/10 + 0.05 // 0.05 .. 3.75
		footprint := float64(64<<10) * (1 + float64(s%7))
		tm1 := footprint * (1e-9 + 0.4e-9)
		specs = append(specs, stream.PhaseSpec{
			Name:        "p",
			Pairs:       pairs,
			MemBytes:    footprint,
			ComputeTime: sim.Time(tm1 / ratioStep),
		})
		if s%5 == 0 {
			specs[len(specs)-1].ScatterBytes = footprint / 2
		}
	}
	if len(specs) == 0 {
		return nil
	}
	return stream.Build("random", specs...)
}

// Property: every random program completes under every policy, with
// exact task conservation and non-negative idle accounting.
func TestRandomProgramsCompleteProperty(t *testing.T) {
	prop := func(phaseSeeds []uint16, policyRaw uint8, seed int64) bool {
		prog := randomProgram(phaseSeeds)
		if prog == nil {
			return true
		}
		c := cfg()
		c.NoiseSigma = 0.01
		c.Seed = seed
		var th core.Throttler
		switch policyRaw % 4 {
		case 0:
			th = core.Fixed{K: 4}
		case 1:
			th = core.Fixed{K: int(policyRaw)%4 + 1}
		case 2:
			th = core.NewDynamic(core.NewModel(4), int(policyRaw)%6+1)
		default:
			th = core.NewOnlineExhaustive(core.NewModel(4), int(policyRaw)%6+1, 0.10)
		}
		res := Run(prog, c, th)
		if res.PairsCompleted != prog.TotalPairs() {
			return false
		}
		if len(res.PhaseTimes) != len(prog.Phases) {
			return false
		}
		if res.IdleTime < -1e-9 || res.TotalTime <= 0 {
			return false
		}
		total := float64(res.BusyTime + res.IdleTime)
		want := float64(res.TotalTime) * 4
		return math.Abs(total-want) < 1e-6*want+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the MTL constraint holds for every fixed limit on random
// programs (memory-task overlap never exceeds the limit).
func TestRandomProgramsRespectMTLProperty(t *testing.T) {
	prop := func(phaseSeeds []uint16, kRaw uint8, seed int64) bool {
		prog := randomProgram(phaseSeeds)
		if prog == nil {
			return true
		}
		k := int(kRaw)%4 + 1
		c := cfg()
		c.Seed = seed
		c.NoiseSigma = 0.01
		c.RecordTrace = true
		res := Run(prog, c, core.Fixed{K: k})
		return res.Timeline.MaxMemoryOverlap() <= k
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: total memory bytes moved are conserved — the pool sees
// exactly the program's gather+scatter bytes (scaled by noise) as
// actor starts, reflected in pair counts.
func TestRandomProgramsPhaseBarrierProperty(t *testing.T) {
	// Phase barrier: the i-th phase's time must be positive and the
	// sum of phase times must equal the total run time.
	prop := func(phaseSeeds []uint16, seed int64) bool {
		prog := randomProgram(phaseSeeds)
		if prog == nil {
			return true
		}
		c := cfg()
		c.Seed = seed
		res := Run(prog, c, core.Fixed{K: 2})
		var sum sim.Time
		for _, pt := range res.PhaseTimes {
			if pt <= 0 {
				return false
			}
			sum += pt
		}
		return math.Abs(float64(sum-res.TotalTime)) < 1e-9*float64(res.TotalTime)+1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property (§IV-A): with fixed-duration tasks, a one-phase run's
// makespan under MTL=k is the model's prediction core.Model.ExecTime
// give or take one pair's fill or drain.
//
// The shapes draw n cores (SMT off), k in [1, n], t in [n, 64] pairs,
// Tm and Tc, and half of them sit exactly on Tm/Tc = k/(n-k), where
// the model's two regimes meet. TqlPerByte = 0 keeps a memory task at Tm
// whatever the concurrency, an LLC too large to miss keeps a compute at
// Tc, and no noise or monitor cost is charged.
//
// ExecTime is the steady state's rate times t. A finite run adds what
// its two ends cost, the pipeline's fill and drain:
//
//   - Memory-bound (Tm/Tc > k/(n-k)): a core that finishes a compute
//     finds every slot taken, so the k slots never idle while gathers
//     remain. The gathers run in ceil(t/k) back-to-back rounds of Tm
//     and one compute follows the last: TotalTime = ceil(t/k)*Tm + Tc,
//     which is ExecTime = Tm*t/k plus Tc plus a rounding under Tm.
//   - All busy (Tm/Tc <= k/(n-k), or k >= n): once every core has
//     started no core waits for a slot, so by work conservation
//     TotalTime >= ExecTime = (Tm+Tc)*t/n. The cores start staggered,
//     k per Tm, the last after floor((n-1)/k)*Tm, which the regime's
//     condition keeps under Tc + Tm; the last pairs go to the cores
//     that free first, so the run ends late by that stagger, not by a
//     whole extra round.
//
// Either way |TotalTime - ExecTime(Tm, Tc, k, t)| <= Tm + Tc, one
// pair. On the boundary Tm/Tc = k/(n-k) the two ExecTimes agree.
func TestExecTimeModelProperty(t *testing.T) {
	prop := func(nRaw, kRaw, tRaw uint8, memRaw uint16, ratioRaw uint16, boundary bool) bool {
		n := int(nRaw)%7 + 2
		k := int(kRaw)%n + 1
		pairs := n + int(tRaw)%(65-n)
		tm := sim.Time(float64(64<<10+int(memRaw)) * 1e-9) // 65-131 us
		tc := tm * sim.Time(0.05+float64(ratioRaw%400)/100)
		if boundary && k < n {
			tc = tm * sim.Time(n-k) / sim.Time(k)
		}
		return execTimeWithin(t, n, k, pairs, tm, tc)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
	// The boundary on its own, for every (n, k < n) at three pair counts.
	for n := 2; n <= 8; n++ {
		for k := 1; k < n; k++ {
			for _, pairs := range []int{n, 2*n + 1, 64} {
				tm := 100 * sim.Microsecond
				execTimeWithin(t, n, k, pairs, tm, tm*sim.Time(n-k)/sim.Time(k))
			}
		}
	}
}

// execTimeWithin runs one phase of pairs on n cores under Fixed{K: k}
// and reports whether the makespan lies within Tm + Tc of the model,
// logging the shape as a test error when it does not.
func execTimeWithin(t *testing.T, n, k, pairs int, tm, tc sim.Time) bool {
	t.Helper()
	const tml = 1e-9
	prog := stream.Build("exec", stream.PhaseSpec{
		Name:        "p",
		Pairs:       pairs,
		MemBytes:    float64(tm) / tml,
		ComputeTime: tc,
	})
	c := Config{
		Machine:  machine.Config{Cores: n, SMTWays: 1},
		Mem:      contend.Params{TmlPerByte: tml},
		LLCBytes: 1 << 40,
		Seed:     1,
	}
	got := Run(prog, c, core.Fixed{K: k}).TotalTime
	want := core.NewModel(n).ExecTime(tm, tc, k, pairs)
	if d := math.Abs(float64(got - want)); d > float64(tm+tc)*(1+1e-9) {
		t.Errorf("n=%d k=%d t=%d Tm=%v Tc=%v: makespan %v, model %v, off by %.3g pairs (bound 1)",
			n, k, pairs, tm, tc, got, want, d/float64(tm+tc))
		return false
	}
	return true
}
