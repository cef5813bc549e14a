package experiments

import (
	"fmt"

	"memthrottle/internal/contend"
	"memthrottle/internal/core"
	"memthrottle/internal/mem"
	"memthrottle/internal/parallel"
	"memthrottle/internal/simsched"
	"memthrottle/internal/stats"
	"memthrottle/internal/workload"
)

// DomainPoint is one (domain count, ratio) cell of the sharded-memory
// sweep: the Fig. 13 methodology re-run on a machine whose DRAM is
// split into independent domains, the simulated generalisation of the
// paper's 2-DIMM platform (§V).
type DomainPoint struct {
	Domains  int
	Ratio    float64 // target Tm1/Tc
	SMTL     int     // best static per-domain MTL measured
	Measured float64 // speedup of S-MTL over the conventional schedule
	Model    float64 // analytical-model prediction from the same runs
	RelErr   float64 // |model-measured|/measured
	ConvTime float64 // conventional (MTL = n) trimmed total time, seconds
}

// domainRatios is the default Tm1/Tc grid for the domain sweep: a
// compute-bound, two mid, and a memory-bound point — enough to trace
// the Fig. 13 speedup shape per domain count without a full 0.1-step
// sweep at every count.
var domainRatios = []float64{0.3, 0.7, 1.1, 1.5}

// DomainSweep runs the Fig13-style static-MTL sweep for each domain
// count. Domain d of a D-domain machine runs a replica of the base
// DIMM with decorrelated jitter (mem.Replicate) and its own fitted
// contention law; pairs are homed round-robin, and the MTL applies per
// domain. Speedups are measured against the conventional schedule on
// the same domain count, so each point isolates what throttling buys
// on that topology. The model prediction feeds the per-run measured
// Tm/Tc into the Fig. 13 closed form with one generalisation: under a
// per-domain limit k on D domains the machine sustains up to k*D
// concurrent memory tasks, so the model's concurrency argument is
// min(k*D, n) while Tm stays the measured per-task time — contention
// enters the model only through Tm, so the form itself carries over
// to sharded memory; the sweep checks how well that holds.
//
// The (count, ratio) grid is embarrassingly parallel and assembled in
// grid order, so the output is independent of the worker budget.
func DomainSweep(e Env, counts []int, ratios []float64, pairs int) ([]DomainPoint, error) {
	if len(counts) == 0 || len(ratios) == 0 || pairs < 1 {
		return nil, fmt.Errorf("experiments: empty domain sweep (%v, %v, %d pairs)", counts, ratios, pairs)
	}
	maxD := 0
	for _, d := range counts {
		if d < 1 || d > simsched.MaxMemDomains {
			return nil, fmt.Errorf("experiments: domain count %d, want within [1, %d]", d, simsched.MaxMemDomains)
		}
		if d > maxD {
			maxD = d
		}
	}

	// Per-domain calibrations. Domain 0 is the base DIMM itself, so its
	// calibration is served from the process-wide cache NewEnv filled;
	// the replicas differ only in jitter seed and cost one sweep each,
	// once per process.
	cals, err := mem.Replicate(e.DRAM1, maxD).Calibrate(8, 6, workload.Footprint)
	if err != nil {
		return nil, fmt.Errorf("experiments: domain sweep: %w", err)
	}
	params := make([]contend.Params, maxD)
	for d, cal := range cals {
		params[d] = contend.FromCalibration(cal)
	}

	lib := e.Lib()
	base := e.Cfg()
	n := base.Machine.HardwareThreads()
	model := Model(base)

	type cell struct {
		domains int
		ratio   float64
	}
	var grid []cell
	for _, d := range counts {
		for _, ratio := range ratios {
			grid = append(grid, cell{d, ratio})
		}
	}
	pts := parallel.Map(e.jobs(), len(grid), func(i int) DomainPoint {
		c := grid[i]
		cfg := base
		if c.domains > 1 {
			cfg.Machine.MemDomains = c.domains
			for d := 0; d < c.domains; d++ {
				cfg.DomainMem[d] = params[d]
			}
		}
		prog := lib.Synthetic(c.ratio, workload.Footprint, pairs)

		times := make([]float64, n+1)
		tm := make([]float64, n+1)
		var tcObs float64
		for k := 1; k <= n; k++ {
			t, rep := e.Static(prog, cfg, k)
			times[k] = t
			tm[k] = float64(rep.MeanTm[k])
			tcObs = float64(rep.MeanTc)
		}
		p := DomainPoint{Domains: c.domains, Ratio: c.ratio, ConvTime: times[n]}
		for k := 1; k <= n; k++ {
			if s := stats.Speedup(times[n], times[k]); p.SMTL == 0 || s > p.Measured {
				p.SMTL, p.Measured = k, s
			}
		}
		keff := p.SMTL * c.domains
		if keff > n {
			keff = n
		}
		p.Model = model.Speedup(core.Time(tm[n]), core.Time(tm[p.SMTL]), core.Time(tcObs), keff)
		p.RelErr = stats.RelErr(p.Model, p.Measured)
		return p
	})
	return pts, nil
}

// DomainScalingCounts renders the sweep for the given domain counts.
func DomainScalingCounts(e Env, counts []int) (Table, error) {
	pts, err := DomainSweep(e, counts, domainRatios, 64)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    "D1",
		Title: "Sharded memory domains: per-domain MTL sweep (Fig. 13 methodology per domain count)",
		Columns: []string{"domains", "Tm1/Tc", "S-MTL", "measured speedup", "model speedup",
			"rel err", "conv time (ms)"},
	}
	peak := map[int]float64{}
	conv := map[[2]float64]float64{} // (domains, ratio) -> conventional time
	var errs []float64
	for _, p := range pts {
		t.AddRow(fmt.Sprintf("%d", p.Domains), f2(p.Ratio), fmt.Sprintf("%d", p.SMTL),
			f3(p.Measured), f3(p.Model), pct(p.RelErr), f3(p.ConvTime*1e3))
		if p.Measured > peak[p.Domains] {
			peak[p.Domains] = p.Measured
		}
		conv[[2]float64{float64(p.Domains), p.Ratio}] = p.ConvTime
		errs = append(errs, p.RelErr)
	}
	for _, d := range counts {
		t.Notes = append(t.Notes, fmt.Sprintf("%d domain(s): peak measured speedup %.3fx", d, peak[d]))
	}
	// Cross-count contrast: how much the conventional schedule itself
	// gains from sharding at the most memory-bound ratio (independent
	// contention relief, before any throttling).
	if len(counts) > 1 {
		hi := domainRatios[len(domainRatios)-1]
		base := conv[[2]float64{float64(counts[0]), hi}]
		for _, d := range counts[1:] {
			if c := conv[[2]float64{float64(d), hi}]; base > 0 && c > 0 {
				t.Notes = append(t.Notes, fmt.Sprintf(
					"conventional time at Tm1/Tc=%.1f: %d domain(s) run %.3fx faster than %d",
					hi, d, base/c, counts[0]))
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean |model-measured| error %s (model sees contention only through Tm)", pct(stats.Mean(errs))))
	return t, nil
}

// DomainScaling is the catalog entry: 1, 2 and 4 memory domains.
func DomainScaling(e Env) (Table, error) {
	return DomainScalingCounts(e, []int{1, 2, 4})
}
