package experiments

import "memthrottle/internal/workload"

// Spec names one runnable experiment. Run reports an error instead of
// panicking when its parameters are malformed, so CLI callers can
// surface bad flag values cleanly.
type Spec struct {
	ID   string
	Desc string
	Run  func(Env) (Table, error)
}

// tbl adapts an experiment with no failure modes to the fallible Run
// signature.
func tbl(run func(Env) Table) func(Env) (Table, error) {
	return func(e Env) (Table, error) { return run(e), nil }
}

// Catalog lists every regenerable artifact, in paper order. Fig. 13's
// three footprints use a coarser default step than the paper's 0.01
// (each figure 0.1 s instead of 1 s; the whole catalog a few seconds
// at the paper's 20 runs a point); cmd/mtlbench exposes the step as a
// flag.
func Catalog() []Spec {
	fig13 := func(footprint float64) func(Env) (Table, error) {
		return func(e Env) (Table, error) {
			return Fig13(e, footprint, 0.1, 4.0, 0.1, 64)
		}
	}
	return []Spec{
		{"C1", "DRAM contention calibration (grounds the fluid model)", tbl(CalibrationC1)},
		{"T2", "Table II: workload memory-to-compute ratios", tbl(Table2)},
		{"T3", "Table III: SIFT per-function ratios", tbl(Table3)},
		{"F13a", "Fig. 13(a): synthetic sweep, 0.5 MB footprint", fig13(512 << 10)},
		{"F13b", "Fig. 13(b): synthetic sweep, 1 MB footprint", fig13(1 << 20)},
		{"F13c", "Fig. 13(c): synthetic sweep, 2 MB footprint (LLC overflow)", fig13(2 << 20)},
		{"F14", "Fig. 14: realistic workloads, three policies", tbl(Fig14)},
		{"F15", "Fig. 15: monitor window (W) sensitivity", tbl(Fig15)},
		{"F16", "Fig. 16: SIFT per-function adaptation", tbl(Fig16)},
		{"F17", "Fig. 17: streamcluster input sets", tbl(Fig17)},
		{"F18", "Fig. 18: 2-DIMM scaling without and with SMT", tbl(Fig18)},
		{"X1", "§VI-B monitoring overhead contrast", tbl(OverheadX1)},
		{"X2", "§VI-A analytical model error statistics", ModelErrorX2},
		{"A1", "Ablation: IdleBound phase detection vs naive ratio trigger", tbl(AblationPhaseDetect)},
		{"A2", "Ablation: binary-search vs linear MTL probing", tbl(AblationSearch)},
		{"A3", "Ablation: DRAM hit-first scheduling vs FCFS (contention law)", tbl(ControllerAblation)},
		{"N1", "Sensitivity: throttling gains vs per-task noise (convoy dissolution)", tbl(NoiseSensitivity)},
		{"R1", "Robustness: controller decisions under injected measurement corruption", RobustnessR1},
		{"P1", "§VIII future work: POWER7-style 32-thread scaling", tbl(Power7Scale)},
		{"D1", "Sharded memory domains: per-domain MTL sweep over 1/2/4 domains", DomainScaling},
		{"D1H", "Host runtime: per-domain park/idle/peak counters over 1/2/4 domains (not golden)", HostDomainCounters},
		{"S1", "Open-loop serving: goodput, drops and latency percentiles vs offered load", ServeS1},
		{"R2", "Attack robustness: victim p99/goodput/time-to-contain under flood and phase-flip attackers", RobustnessR2},
	}
}

// h1 is reachable by ID only. bench/'s sim_sweep fails any `-all`
// table without an expected digest except D1H, and H1 is wall-clock
// like D1H; the next PR allowed to edit bench/ exempts it and moves
// this line into Catalog.
var h1 = Spec{"H1", "Host runtime vs the §IV-A model from each run's own Tm/Tc, Run and Serve (not golden, not in -all)", HostModelH1}

// Find returns the spec with the given ID, or false.
func Find(id string) (Spec, bool) {
	for _, s := range append(Catalog(), h1) {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// SyntheticPeak is a tiny convenience used by examples: the measured
// best-case synthetic speedup near the Fig. 13 sweet spot.
func SyntheticPeak(e Env) (float64, error) {
	pts, err := Fig13Sweep(e, workload.Footprint, 0.30, 0.40, 0.05, 64)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, p := range pts {
		if p.Measured > best {
			best = p.Measured
		}
	}
	return best, nil
}
