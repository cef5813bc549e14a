package experiments

import (
	"fmt"

	"memthrottle/internal/core"
	"memthrottle/internal/machine"
	"memthrottle/internal/mem"
	"memthrottle/internal/parallel"
	"memthrottle/internal/workload"
)

// Power7Scale runs the paper's stated future work (§VIII): the
// mechanism on a machine with substantially more hardware threads than
// the i7 — a POWER7-like 8-core, 4-way-SMT (32 thread) configuration
// on the 2-channel memory system. There are no paper numbers to match;
// the experiment demonstrates that the binary-search selection stays
// cheap (log2 32 + 2 probes) while the offline sweep grows linearly.
func Power7Scale(e Env) Table {
	t := Table{
		ID:    "P1",
		Title: "POWER7-style scaling: 8 cores x 4-way SMT (32 threads), 2 channels",
		Columns: []string{"workload", "dynamic speedup", "dynamic D-MTL",
			"probe windows", "best sampled static", "static MTL"},
	}
	cfg := e.Cfg2(false)
	cfg.Machine = machine.Config{Cores: 8, SMTWays: 4}
	model := Model(cfg)
	n := cfg.Machine.HardwareThreads()

	// Sampled static candidates: a full 32-way offline sweep is the
	// cost this mechanism exists to avoid.
	candidates := []int{1, 2, 4, 8, 16, 24, n}

	progs := realWorkloads(e.Lib())
	rows := parallel.Map(e.jobs(), len(progs), func(i int) []string {
		prog := progs[i]
		w := bestW(prog, e.W)
		base, _ := e.Baseline(prog, cfg)
		// The sampled static probes are one parallel batch through the
		// memo; k = n is the conventional baseline.
		probes := parallel.Map(e.jobs(), len(candidates), func(j int) float64 {
			tt, _ := e.Static(prog, cfg, candidates[j])
			return tt
		})
		bestK, bestT := 0, 0.0
		for j, k := range candidates {
			if tt := probes[j]; bestK == 0 || tt < bestT {
				bestK, bestT = k, tt
			}
		}
		dynT, rep := e.runTrimmed(prog, cfg, func() core.Throttler { return core.NewDynamic(model, w) })
		return []string{prog.Name, f3(base / dynT), mtlHistory(rep),
			fmt.Sprintf("%d", rep.TotalProbes), f3(base / bestT), fmt.Sprintf("%d", bestK)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"future work from §VIII; no paper reference numbers exist",
		fmt.Sprintf("binary search bounds selection to ~%d probes vs %d for a full sweep", 2+bitsOf(n), n))
	return t
}

func bitsOf(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// ControllerAblation contrasts memory-controller scheduling policies in
// the request-level DRAM model: strict FCFS (HitStreakCap=1) against
// FR-FCFS-style hit-first batching at increasing streak caps. It shows
// how controller reordering shapes the (Tml, Tql) law the throttling
// mechanism builds on — without hit batching, inter-stream row
// conflicts inflate the contention ratio far beyond what the paper's
// machine exhibits.
func ControllerAblation(e Env) Table {
	t := Table{
		ID:      "A3",
		Title:   "DRAM scheduling ablation: emergent contention law vs hit-streak cap",
		Columns: []string{"policy", "Tm1 (us)", "Tm4 (us)", "Tm4/Tm1", "fit R2"},
	}
	caps := []int{1, 4, 16}
	type capResult struct {
		cal mem.Calibration
		err error
	}
	results := parallel.Map(e.jobs(), len(caps), func(i int) capResult {
		cfg := mem.DDR3_1066()
		cfg.HitStreakCap = caps[i]
		cal, err := mem.CalibrateCached(cfg, 4, 6, workload.Footprint)
		return capResult{cal, err}
	})
	for i, cap := range caps {
		if results[i].err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("cap %d failed: %v", cap, results[i].err))
			continue
		}
		cal := results[i].cal
		name := fmt.Sprintf("FR-FCFS cap=%d", cap)
		if cap == 1 {
			name = "FCFS (cap=1)"
		}
		t.AddRow(name, f2(cal.Tm[0].Micros()), f2(cal.Tm[3].Micros()),
			f2(float64(cal.Tm[3])/float64(cal.Tm[0])), f3(cal.R2))
	}
	t.Notes = append(t.Notes,
		"the paper's platform (Nehalem + DDR3) behaves like the batched rows; Tm4/Tm1 ~1.6-1.8")
	return t
}
