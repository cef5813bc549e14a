package experiments

import (
	"fmt"

	"memthrottle/internal/core"
	"memthrottle/internal/parallel"
	"memthrottle/internal/simsched"
	"memthrottle/internal/stats"
	"memthrottle/internal/stream"
)

// AdaptiveStats reports what an adaptive sweep spent against what the
// exhaustive sweep would have.
type AdaptiveStats struct {
	GridPoints      int // ratios on the full fine grid
	Evaluated       int // ratios actually simulated
	Probes          int // (ratio, MTL) cells simulated
	ExhaustiveCells int // cells the exhaustive sweep simulates: grid * n
}

// Savings reports the fraction of exhaustive (ratio, MTL) cells the
// adaptive sweep skipped.
func (s AdaptiveStats) Savings() float64 {
	if s.ExhaustiveCells == 0 {
		return 0
	}
	return 1 - float64(s.Probes)/float64(s.ExhaustiveCells)
}

// Fig13SweepAdaptive is the coarse-to-fine variant of Fig13Sweep. It
// walks the same fine ratio grid the exhaustive sweep would use, but
// simulates only every coarse-th ratio, then refines the intervals
// where the best static MTL changes between coarse neighbours — the
// regions around the NoIdle/Idle crossovers where Fig. 13's curve has
// its structure. At every evaluated ratio, instead of measuring all n
// MTL values, it runs the paper's own D-MTL selection (binary search
// for MTL_NoIdle, probe of MTL_NoIdle-1, model comparison — §IV-C), so
// each point costs O(log n) trimmed runs.
//
// The points it returns lie exactly on the exhaustive grid and every
// simulated cell is bit-identical to the exhaustive sweep's value for
// that cell (same seeds, same methodology); what the adaptive mode
// trades away is coverage: ratios inside flat intervals are skipped,
// speedups at unprobed MTLs are reported as zero, and S-MTL is the
// model-guided D-MTL choice rather than the measured argmax. Golden
// artifacts therefore always use the exhaustive sweep; this mode is
// the opt-in fast preview (mtlbench -adaptive).
func Fig13SweepAdaptive(e Env, footprint float64, lo, hi, step float64, pairs, coarse int) ([]Fig13Point, AdaptiveStats, error) {
	if step <= 0 || lo <= 0 || hi < lo {
		return nil, AdaptiveStats{}, fmt.Errorf("experiments: bad sweep [%g, %g] step %g", lo, hi, step)
	}
	if coarse < 2 {
		return nil, AdaptiveStats{}, fmt.Errorf("experiments: adaptive coarse factor = %d, want >= 2", coarse)
	}
	lib := e.Lib()
	cfg := e.Cfg()
	model := Model(cfg)

	// The full fine grid, accumulated exactly as Fig13Sweep does, so
	// every evaluated ratio coincides with an exhaustive grid point.
	var ratios []float64
	for ratio := lo; ratio <= hi+1e-9; ratio += step {
		ratios = append(ratios, ratio)
	}

	probes := make([]int, len(ratios))
	evalAt := func(i int) Fig13Point {
		prog := lib.Synthetic(ratios[i], footprint, pairs)
		p, cells := fig13PointSelect(e, prog, cfg, model, ratios[i])
		probes[i] = cells
		return p
	}

	// Coarse pass: every coarse-th grid index plus the endpoint.
	var coarseIdx []int
	for i := 0; i < len(ratios); i += coarse {
		coarseIdx = append(coarseIdx, i)
	}
	if last := len(ratios) - 1; coarseIdx[len(coarseIdx)-1] != last {
		coarseIdx = append(coarseIdx, last)
	}
	pts := make(map[int]Fig13Point, len(ratios))
	for j, p := range parallel.Map(e.jobs(), len(coarseIdx), func(j int) Fig13Point {
		return evalAt(coarseIdx[j])
	}) {
		pts[coarseIdx[j]] = p
	}

	// Refinement pass: fill every interval whose endpoints disagree on
	// the best MTL. The interior points are independent, so the whole
	// refinement is one parallel batch assembled by grid index.
	var fine []int
	for j := 0; j+1 < len(coarseIdx); j++ {
		a, b := coarseIdx[j], coarseIdx[j+1]
		if pts[a].SMTL == pts[b].SMTL {
			continue
		}
		for i := a + 1; i < b; i++ {
			fine = append(fine, i)
		}
	}
	for j, p := range parallel.Map(e.jobs(), len(fine), func(j int) Fig13Point {
		return evalAt(fine[j])
	}) {
		pts[fine[j]] = p
	}

	out := make([]Fig13Point, 0, len(pts))
	st := AdaptiveStats{
		GridPoints:      len(ratios),
		Evaluated:       len(pts),
		ExhaustiveCells: len(ratios) * cfg.Machine.HardwareThreads(),
	}
	for i := range ratios {
		if p, ok := pts[i]; ok {
			out = append(out, p)
			st.Probes += probes[i]
		}
	}
	return out, st, nil
}

// fig13PointSelect evaluates one ratio through the D-MTL selector,
// returning the point and the number of trimmed runs it cost.
func fig13PointSelect(e Env, prog *stream.Program, cfg simsched.Config, model core.Model, ratio float64) (Fig13Point, int) {
	n := cfg.Machine.HardwareThreads()
	sel := core.NewSelector(model)
	times := make(map[int]float64, n)
	miss := make(map[int]float64, n)
	tm := make(map[int]float64, n)
	var tcObs float64
	for {
		k, done := sel.NextProbe()
		if done {
			break
		}
		t, rep := e.Static(prog, cfg, k)
		times[k] = t
		tm[k] = float64(rep.MeanTm[k])
		tcObs = float64(rep.MeanTc)
		miss[k] = rep.CacheMissFraction
		sel.Record(k, core.Measurement{Tm: core.Time(rep.MeanTm[k]), Tc: core.Time(rep.MeanTc)})
	}
	dmtl, _ := sel.Decision()

	p := Fig13Point{Ratio: ratio, SMTL: dmtl, SpeedupByMTL: make([]float64, n)}
	for k, t := range times {
		p.SpeedupByMTL[k-1] = stats.Speedup(times[n], t)
	}
	p.Measured = p.SpeedupByMTL[dmtl-1]
	p.MissFraction = miss[dmtl]
	p.Model = model.Speedup(core.Time(tm[n]), core.Time(tm[dmtl]), core.Time(tcObs), dmtl)
	p.MeasuredError = stats.RelErr(p.Model, p.Measured)
	return p, sel.Probes()
}

// Fig13Adaptive renders an adaptive sweep as a table in the Fig13
// layout, with the simulation savings recorded in the notes.
func Fig13Adaptive(e Env, footprint float64, lo, hi, step float64, pairs, coarse int) (Table, error) {
	pts, st, err := Fig13SweepAdaptive(e, footprint, lo, hi, step, pairs, coarse)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    fmt.Sprintf("F13(%.1fMB,adaptive)", footprint/(1<<20)),
		Title: "Synthetic workload sweep, coarse-to-fine D-MTL refinement",
		Columns: []string{"Tm1/Tc", "D-MTL", "measured speedup", "model speedup",
			"rel err", "miss frac"},
	}
	var maxS float64
	for _, p := range pts {
		t.AddRow(f2(p.Ratio), fmt.Sprintf("%d", p.SMTL), f3(p.Measured), f3(p.Model),
			pct(p.MeasuredError), pct(p.MissFraction))
		if p.Measured > maxS {
			maxS = p.Measured
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("peak measured speedup %.3fx", maxS),
		fmt.Sprintf("evaluated %d of %d grid ratios, %d of %d (ratio, MTL) cells (%.0f%% saved)",
			st.Evaluated, st.GridPoints, st.Probes, st.ExhaustiveCells, 100*st.Savings()),
		"adaptive preview: excluded from golden artifacts (see EXPERIMENTS.md)")
	return t, nil
}
