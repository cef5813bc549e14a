package experiments

import (
	"fmt"

	"memthrottle/internal/core"
	"memthrottle/internal/parallel"
)

// NoiseSensitivity (N1) quantifies a reproduction finding: the
// memory contention the mechanism exploits lives in the *convoys* that
// equal-sized task pairs form at MTL=n — all cores gathering at once,
// then all computing. Per-task duration jitter makes the convoys
// drift apart, which lowers the effective memory concurrency of the
// unthrottled baseline and with it every speedup in the paper. The
// paper's noise-controlled machine (§V: services disabled, 20-run
// trimming, µs timers) sits at the low-jitter end of this sweep; a
// noisy shared box would sit at the high end and see far smaller
// gains.
func NoiseSensitivity(e Env) Table {
	t := Table{
		ID:    "N1",
		Title: "Sensitivity of throttling gains to per-task noise (SC_d128)",
		Columns: []string{"noise sigma", "offline speedup", "offline MTL",
			"dynamic speedup", "baseline Tm@MTL4 / Tm1"},
	}
	prog := e.Lib().Streamcluster(128)
	sigmas := []float64{0, 0.003, 0.01, 0.03}
	rows := parallel.Map(e.jobs(), len(sigmas), func(i int) []string {
		sigma := sigmas[i]
		cfg := e.Cfg()
		cfg.NoiseSigma = sigma
		model := Model(cfg)
		offK, offS := e.OfflineBest(prog, cfg)
		dynS, _ := e.Speedup(prog, cfg, func() core.Throttler { return core.NewDynamic(model, e.W) })

		// Observed contention of the unthrottled baseline: how much
		// the convoys actually inflate memory-task time. Both runs
		// are points OfflineBest already measured: memo hits.
		_, rep := e.Baseline(prog, cfg)
		_, rep1 := e.Static(prog, cfg, 1)
		ratio := float64(rep.MeanTm[4]) / float64(rep1.MeanTm[1])

		return []string{fmt.Sprintf("%.3f", sigma), f3(offS), fmt.Sprintf("%d", offK),
			f3(dynS), f2(ratio)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"equal-task convoys keep the unthrottled baseline at high memory concurrency; jitter dissolves them",
		"the paper's platform is noise-controlled (§V); this sweep bounds how results degrade off it")
	return t
}
