package experiments

import (
	"fmt"

	"memthrottle/internal/core"
	"memthrottle/internal/parallel"
	"memthrottle/internal/simsched"
	"memthrottle/internal/stats"
	"memthrottle/internal/workload"
)

// The R2 experiment is the adversarial-traffic analogue of R1's
// corrupted-sample study: instead of polluting the controller's
// measurements, a hostile traffic class attacks the scheduler itself.
// A victim stream (class 0) serves steady synthetic pairs while an
// attacker stream (class 1) runs one of the adversarial generators
// from internal/workload:
//
//   - flood: every attack job carries a gather footprint several times
//     the victim's with a token compute tail, so admitted attack jobs
//     pin memory slots and starve victim admissions. An
//     aggregate-only controller can only throttle everyone.
//   - phase-flip: the attacker alternates memory-heavy and
//     compute-heavy shapes at the detector's window frequency, so a
//     naive phase detector re-triggers selection every window and the
//     controller probes forever.
//
// Per (policy, attack) cell the table reports the victim's p99
// sojourn, victim goodput, victim drop rate, the time until the
// policy first demoted (blacklisted) a class — time-to-contain — and
// the number of limit decisions the controller made (the thrash
// metric). Everything runs on the deterministic mixed-stream
// simulator (simsched.MixRun), so the table is golden-pinned and
// byte-identical across -j fan-outs, like every other experiment.

const (
	mixReps       = 3
	mixVictimJobs = 3000
	mixAttackJobs = 1500
	mixQueue      = 128
	mixHog        = 8.0 // flood gather footprint multiplier
)

// MixCell is one (policy, attack) measurement.
type MixCell struct {
	Policy string
	Attack string

	VictimP99  float64 // ns, pooled across reps
	VictimGood float64 // victim completions/s, mean across reps
	VictimDrop float64 // victim dropped/arrived, pooled
	Contained  float64 // ms to first demotion, first rep; 0 = never
	Decisions  int     // limit decisions, first rep
}

// RobustnessR2 measures victim service quality per policy under each
// adversarial workload.
func RobustnessR2(e Env) (Table, error) {
	cfg := e.Cfg()
	n := cfg.Machine.HardwareThreads()
	model := core.NewModel(n)
	gather, compute := serveWorkload(e)

	// One saturated run anchors the offered loads to the conventional
	// capacity, exactly as S1 anchors its load grid.
	cap0 := serveCapacity(e, n)
	if cap0 <= 0 {
		return Table{}, fmt.Errorf("experiments: serve capacity calibration collapsed (%g)", cap0)
	}
	victimRate := 0.7 * cap0
	attackRate := 0.6 * cap0

	type policy struct {
		name string
		mk   func() core.Throttler
	}
	policies := []policy{
		{"conventional", func() core.Throttler { return core.Fixed{K: n} }},
		{"D-MTL", func() core.Throttler { return core.NewDynamic(model, e.W) }},
		{"hyst D-MTL", func() core.Throttler { return core.NewDynamicOpts(model, e.W, core.DynamicOptions{Hysteresis: 2}) }},
		{"stdev-clamp", func() core.Throttler {
			return core.NewPolicyThrottler(core.NewStdevClamp(n, 2), e.W, n)
		}},
		{"blacklist+D-MTL", func() core.Throttler {
			return core.NewPolicyThrottler(
				core.NewBlacklist(core.NewDynamic(model, e.W), core.BlacklistOptions{}), e.W, n)
		}},
	}

	type attack struct {
		name string
		mk   func(seed int64) simsched.Stream
	}
	attacks := []attack{
		{"none", nil},
		{"flood", func(seed int64) simsched.Stream {
			return simsched.Stream{
				Class:    1,
				Arrivals: workload.NewPoisson(attackRate, seed),
				Shapes:   workload.NewFlood(gather, mixHog, compute/4),
				Jobs:     mixAttackJobs,
			}
		}},
		{"phase-flip", func(seed int64) simsched.Stream {
			mem := workload.JobShape{Gather: 4 * gather, Compute: compute / 4}
			comp := workload.JobShape{Gather: gather / 8, Compute: 4 * compute}
			return simsched.Stream{
				Class:    1,
				Arrivals: workload.NewPoisson(attackRate, seed),
				Shapes:   workload.NewPhaseFlip(mem, comp, e.W),
				Jobs:     mixAttackJobs,
			}
		}},
	}

	type cellKey struct{ pol, atk int }
	var grid []cellKey
	for p := range policies {
		for a := range attacks {
			grid = append(grid, cellKey{p, a})
		}
	}
	cells := parallel.Map(e.jobs(), len(grid), func(i int) MixCell {
		key := grid[i]
		c := MixCell{Policy: policies[key.pol].name, Attack: attacks[key.atk].name}
		var victim stats.LatencyHist
		var good float64
		var arrived, dropped int
		for rep := 0; rep < mixReps; rep++ {
			rcfg := cfg
			rcfg.Seed = int64(1000*i + rep + 1)
			streams := []simsched.Stream{{
				Class:    0,
				Arrivals: workload.NewPoisson(victimRate, int64(7000*i+rep+1)),
				Shapes:   workload.NewSteady(gather, compute),
				Jobs:     mixVictimJobs,
			}}
			if attacks[key.atk].mk != nil {
				streams = append(streams, attacks[key.atk].mk(int64(9000*i+rep+1)))
			}
			res := simsched.MixRun(rcfg, simsched.MixSpec{
				Streams: streams,
				Queue:   mixQueue,
			}, policies[key.pol].mk())
			v := res.ByClass[0]
			victim.Merge(&v.Sojourn)
			arrived += v.Arrived
			dropped += v.Dropped
			if res.Makespan > 0 {
				good += float64(v.Completed) / float64(res.Makespan)
			}
			if rep == 0 {
				c.Contained = float64(res.ContainedAt) * 1e3 // sim seconds -> ms
				c.Decisions = len(res.MTLDecisions)
			}
		}
		c.VictimP99 = float64(victim.P99())
		c.VictimGood = good / mixReps
		c.VictimDrop = float64(dropped) / float64(arrived)
		return c
	})

	t := Table{
		ID: "R2",
		Title: "Attack robustness: victim p99, goodput and time-to-contain per policy " +
			"under adversarial traffic (flood, phase-flip)",
		Columns: []string{"policy", "attack", "victim p99 (ms)", "victim goodput/s",
			"victim drop", "contained (ms)", "decisions"},
	}
	for _, c := range cells {
		contained := "-"
		if c.Contained > 0 {
			contained = f3(c.Contained)
		}
		t.AddRow(c.Policy, c.Attack, f3(c.VictimP99/1e6), f2(c.VictimGood),
			pct(c.VictimDrop), contained, fmt.Sprintf("%d", c.Decisions))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("victim: steady synthetic pairs at %.2fx conventional capacity (%.2f jobs/s); queue bound %d shared",
			0.7, victimRate, mixQueue),
		fmt.Sprintf("flood: %gx victim gather footprint at %.2fx capacity; phase-flip: alternates mem/compute shapes every W=%d jobs",
			mixHog, 0.6, e.W),
		fmt.Sprintf("%d reps x %d victim + %d attack jobs per cell, seeded arrivals and noise; victim histograms merged across reps", mixReps, mixVictimJobs, mixAttackJobs),
		"contained: virtual time until the policy first demoted a class (blacklist policies only)",
		"decisions: limit changes the controller published (detector-thrash metric)")
	return t, nil
}
