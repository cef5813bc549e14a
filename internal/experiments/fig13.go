package experiments

import (
	"fmt"

	"memthrottle/internal/core"
	"memthrottle/internal/parallel"
	"memthrottle/internal/stats"
)

// Fig13Point is one x-position of the Fig. 13 sweep.
type Fig13Point struct {
	Ratio         float64   // target Tm1/Tc
	SMTL          int       // best static MTL measured
	Measured      float64   // speedup of S-MTL over MTL=n (measured)
	Model         float64   // speedup predicted by the analytical model
	MissFraction  float64   // compute-task LLC miss fraction at S-MTL
	SpeedupByMTL  []float64 // speedup at MTL=i+1
	MeasuredError float64   // |model-measured|/measured
}

// Fig13Sweep runs the synthetic micro-benchmark sweep of Fig. 13 for
// one memory-task footprint: ratios in [lo, hi] with the given step,
// reporting for each the best static MTL (S-MTL), its measured speedup
// over the conventional schedule, and the analytical model's
// prediction from the same runs' Tm/Tc measurements.
//
// The sweep's (ratio, MTL, seed) grid is embarrassingly parallel: each
// ratio point fans out across the environment's worker budget and the
// points are assembled in ratio order, so the output is identical to
// the serial sweep.
//
// A malformed sweep range is a caller error reported as such — this is
// library surface reached from CLI flags, so it must not panic.
func Fig13Sweep(e Env, footprint float64, lo, hi, step float64, pairs int) ([]Fig13Point, error) {
	if step <= 0 || lo <= 0 || hi < lo {
		return nil, fmt.Errorf("experiments: bad sweep [%g, %g] step %g", lo, hi, step)
	}
	lib := e.Lib()
	cfg := e.Cfg()
	model := Model(cfg)
	n := cfg.Machine.HardwareThreads()

	// The ratio schedule accumulates exactly as the serial loop did,
	// so float rounding cannot shift any grid point.
	var ratios []float64
	for ratio := lo; ratio <= hi+1e-9; ratio += step {
		ratios = append(ratios, ratio)
	}

	pts := parallel.Map(e.jobs(), len(ratios), func(i int) Fig13Point {
		ratio := ratios[i]
		prog := lib.Synthetic(ratio, footprint, pairs)

		times := make([]float64, n+1)
		tm := make([]float64, n+1)
		var tcObs float64
		missByK := make([]float64, n+1)
		for k := 1; k <= n; k++ {
			t, rep := e.Static(prog, cfg, k)
			times[k] = t
			tm[k] = float64(rep.MeanTm[k])
			tcObs = float64(rep.MeanTc)
			missByK[k] = rep.CacheMissFraction
		}

		p := Fig13Point{Ratio: ratio, SpeedupByMTL: make([]float64, n)}
		for k := 1; k <= n; k++ {
			s := stats.Speedup(times[n], times[k])
			p.SpeedupByMTL[k-1] = s
			if p.SMTL == 0 || s > p.Measured {
				p.SMTL, p.Measured = k, s
			}
		}
		p.MissFraction = missByK[p.SMTL]
		p.Model = model.Speedup(core.Time(tm[n]), core.Time(tm[p.SMTL]), core.Time(tcObs), p.SMTL)
		p.MeasuredError = stats.RelErr(p.Model, p.Measured)
		return p
	})
	return pts, nil
}

// Fig13 renders a sweep as a table. Footprints of 0.5, 1 and 2 MB
// correspond to Fig. 13(a), (b) and (c).
func Fig13(e Env, footprint float64, lo, hi, step float64, pairs int) (Table, error) {
	pts, err := Fig13Sweep(e, footprint, lo, hi, step, pairs)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:    fmt.Sprintf("F13(%.1fMB)", footprint/(1<<20)),
		Title: "Synthetic workload speedup sweep: measured vs analytical model",
		Columns: []string{"Tm1/Tc", "S-MTL", "measured speedup", "model speedup",
			"rel err", "miss frac"},
	}
	var maxS float64
	var errs []float64
	for _, p := range pts {
		t.AddRow(f2(p.Ratio), fmt.Sprintf("%d", p.SMTL), f3(p.Measured), f3(p.Model),
			pct(p.MeasuredError), pct(p.MissFraction))
		if p.Measured > maxS {
			maxS = p.Measured
		}
		errs = append(errs, p.MeasuredError)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("peak measured speedup %.3fx (paper: up to ~1.21x)", maxS),
		fmt.Sprintf("mean |model-measured| error %s", pct(stats.Mean(errs))))
	return t, nil
}

// ModelErrorX2 summarises the corroboration of the analytical model
// (§VI-A): error statistics of model vs measured speedup across the
// Fig. 13(a) sweep.
func ModelErrorX2(e Env) (Table, error) {
	pts, err := Fig13Sweep(e, 512<<10, 0.1, 4.0, 0.1, 64)
	if err != nil {
		return Table{}, err
	}
	var errs []float64
	for _, p := range pts {
		errs = append(errs, p.MeasuredError)
	}
	maxE := 0.0
	for _, x := range errs {
		if x > maxE {
			maxE = x
		}
	}
	t := Table{
		ID:      "X2",
		Title:   "Analytical model corroboration (0.5 MB sweep)",
		Columns: []string{"points", "mean rel err", "median rel err", "max rel err"},
	}
	t.AddRow(fmt.Sprintf("%d", len(errs)), pct(stats.Mean(errs)),
		pct(stats.Median(errs)), pct(maxE))
	t.Notes = append(t.Notes, "paper: 'the speedup estimated by the analytical model matches well'")
	return t, nil
}
