package main

import (
	"fmt"
	"os"
	"sort"
)

// exactLayer names the per-layer metrics that are simulated results or
// counts of simulated work: they must repeat bit for bit, and a change
// that is meant only to make the simulator faster must not move them.
var exactLayer = map[string]bool{
	"mem.dram.row_hit_rate":           true,
	"mem.dram.bus_util":               true,
	"mem.calibrate.tml_ps_per_byte":   true,
	"mem.calibrate.tql_ps_per_byte":   true,
	"core.dynamic.probes":             true,
	"experiments.sim_runs":            true,
	"experiments.cal_runs":            true,
	"experiments.model_err_pct":       true,
	"experiments.dyn_gmean_speedup_x": true,
}

// verdict judges one metric of report B against the same metric of
// report A (the base):
//
//	unresolved  in either report the quieter half of the samples spreads
//	            by more than the bound (summary.spread), so the two
//	            values cannot be told apart at that bound
//	regressed   B's median is worse than A's by more than the bound
//	moved       an exact metric differs at all
//	ok          otherwise
//	-           no bound to judge by (per-layer timings)
//
// worse is B's worsening as a share of A's median (negative: better).
func verdict(a, b metricReport) (v string, worse float64) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if a.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case a.Exact:
		if a.Value != b.Value {
			return "moved", worse
		}
		return "ok", worse
	case a.Bound == 0:
		return "-", worse
	case a.spread() > a.Bound || b.spread() > a.Bound:
		return "unresolved", worse
	case worse > a.Bound:
		return "regressed", worse
	}
	return "ok", worse
}

// compareFiles prints report B against report A and returns the
// process exit code: 1 if any metric regressed or an exact one moved.
func compareFiles(pathA, pathB string) int {
	var a, b report
	for _, f := range []struct {
		path string
		into *report
	}{{pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if a.Profile.NProc != b.Profile.NProc || a.Profile.GOMAXPROCS != b.Profile.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "bench: reports are from different machine profiles (%d CPUs/GOMAXPROCS %d vs %d/%d); not comparable\n",
			a.Profile.NProc, a.Profile.GOMAXPROCS, b.Profile.NProc, b.Profile.GOMAXPROCS)
		return 2
	}
	bad := 0
	section := func(name string, wa, wb workloadReport) {
		fmt.Printf("== %s (base %s)\n", name, pathA)
		names := make([]string, 0, len(wa.Metrics))
		for n := range wa.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ma, mb := wa.Metrics[n], wb.Metrics[n]
			if mb.N == 0 {
				fmt.Printf("  %-44s missing from %s\n", n, pathB)
				bad++
				continue
			}
			v, worse := verdict(ma, mb)
			if v == "regressed" || v == "moved" {
				bad++
			}
			fmt.Printf("  %-44s A %.6g [%.6g, %.6g, %.6g]  B %.6g [%.6g, %.6g, %.6g] %s  B/A %.4f  worse by %+.1f%% of A  %s\n",
				n, ma.Value, ma.Q1, ma.Median, ma.Q3, mb.Value, mb.Q1, mb.Median, mb.Q3, ma.Unit, mb.Value/ma.Value, 100*worse, v)
		}
		if wb.Failed > 0 || !wb.Correct {
			fmt.Printf("  %s: %d of %d operations failed in %s\n", name, wb.Failed, wb.Attempted, pathB)
			bad++
		}
	}
	for _, w := range workloads {
		wa, okA := a.Workloads[w.name]
		wb, okB := b.Workloads[w.name]
		if okA && okB {
			section(w.name, wa, wb)
		}
	}
	if a.Layers != nil && b.Layers != nil {
		section("layers", *a.Layers, *b.Layers)
	}
	if bad > 0 {
		fmt.Printf("bench: %d metric(s) regressed, moved or missing\n", bad)
		return 1
	}
	fmt.Println("bench: no metric regressed")
	return 0
}
