package experiments

import (
	"fmt"

	"memthrottle/host"
)

// HostDomainCounters (D1H) is the host-runtime twin of the simulated
// D1 sweep: it runs the live goroutine runtime sharded into 1, 2 and 4
// memory domains and exports the per-domain dispatch counters the
// runtime collects — park events, parked time and peak admitted
// concurrency. These are the observables the ROADMAP's Gast et al.
// idle-time validation reads: the simulated scheduler can only be
// checked against mean-field idle predictions once the real dispatch
// layer reports how often and how long workers actually sat parked.
//
// Unlike D1 the numbers here are wall-clock measurements of live
// goroutines, so they vary run to run (and with the machine's core
// count); D1H is deliberately not golden-pinned. The structural
// invariants that do hold every run — one row per domain, pairs split
// by the round-robin home rule, peak admitted concurrency bounded by
// the per-domain MTL — are pinned by the host package's own tests.
func HostDomainCounters(Env) (Table, error) {
	const (
		pairs     = 96
		footprint = 64 << 10
		workers   = 16
		mtl       = 2
	)
	arrays, err := host.NewArraySet(pairs, footprint)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:      "D1H",
		Title:   "Host runtime: per-domain dispatch counters (parks, idle, peak admitted)",
		Columns: []string{"domains", "dom", "pairs", "parks", "idle (ms)", "peak active"},
	}
	for _, domains := range []int{1, 2, 4} {
		rt, err := host.New(host.Config{Workers: workers, Policy: host.Static, MTL: mtl, Domains: domains})
		if err != nil {
			return Table{}, err
		}
		ps, err := arrays.Pairs(2)
		if err != nil {
			rt.Close()
			return Table{}, err
		}
		st, err := rt.Run(ps)
		rt.Close()
		if err != nil {
			return Table{}, err
		}
		for d, ds := range st.Domains {
			t.AddRow(fmt.Sprintf("%d", domains), fmt.Sprintf("%d", d),
				fmt.Sprintf("%d", ds.Pairs), fmt.Sprintf("%d", ds.Parks),
				f3(ds.Idle.Seconds()*1e3), fmt.Sprintf("%d", ds.PeakActive))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("live goroutine runtime: %d workers, static per-domain MTL %d, %d pairs of %d KiB", workers, mtl, pairs, footprint>>10),
		"wall-clock dispatch activity — counters vary run to run and are not golden-pinned",
		"parks and idle are charged to the parking worker's home domain")
	return t, nil
}
