package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"memthrottle/host"
	"memthrottle/internal/core"
	"memthrottle/internal/stats"
)

// HostModelH1 (H1) is X2 on real goroutines: the measured throughput of
// the host runtime against the paper's §IV-A prediction,
// min(k/Tm, n/(Tm+Tc)) pairs per second for n workers under MTL k,
// computed from the same run's own mean task times — so what the ratio
// reads is the schedule (do the workers overlap the way the model
// assumes?), not the memory system. Each configuration runs the same
// pairs closed-loop through Run and through Serve, Submit and Drain;
// configurations wider than the machine are left out, (2, 1) — the
// paper's regime at its smallest — always runs.
//
// Like D1H these are wall-clock measurements of live goroutines: not
// golden, and until the benchmark harness exempts the table as it does
// D1H, not part of Catalog either (Find knows it).
func HostModelH1(Env) (Table, error) {
	const (
		pairs     = 64
		footprint = 1 << 20
		passes    = 4
		runs      = 5 // measured per cell, after one warm-up; the cell is the median run
	)
	arrays, err := host.NewArraySet(pairs, footprint)
	if err != nil {
		return Table{}, err
	}
	plain, err := arrays.Pairs(passes)
	if err != nil {
		return Table{}, err
	}
	var clk stageClock
	ps := clk.wrap(plain)
	// A process's first ~100 ms run these bodies up to 2x slower than its
	// steady state, whatever path they take, and the first cells would
	// read that as their own Tm: ten unthrottled runs first.
	warm, err := host.New(host.Config{Workers: 2, Policy: host.Conventional})
	if err != nil {
		return Table{}, err
	}
	_, _, _, err = clk.measure(pairs, 9, func() error { _, err := warm.Run(ps); return err })
	warm.Close()
	if err != nil {
		return Table{}, err
	}

	t := Table{
		ID:    "H1",
		Title: "Host runtime vs the §IV-A model, from each run's own task times",
		Columns: []string{"workers", "MTL", "path", "pairs/s", "model pairs/s", "measured/model",
			"Tm (us)", "Tc (us)", "model bound"},
	}
	widest := 2
	for _, c := range [][2]int{{2, 1}, {4, 1}, {4, 2}} {
		workers, mtl := c[0], c[1]
		if workers > max(runtime.NumCPU(), 2) {
			continue
		}
		widest = max(widest, workers)
		rt, err := host.New(host.Config{Workers: workers, Policy: host.Static, MTL: mtl})
		if err != nil {
			return Table{}, err
		}
		var lambda time.Duration
		paths := []struct {
			name string
			once func() error
		}{
			{"Run", func() error {
				st, err := rt.Run(ps)
				lambda = st.WakeLatency
				return err
			}},
			{"Serve", func() error { return serveAll(rt, ps) }},
		}
		for _, p := range paths {
			rate, tm, tc, err := clk.measure(pairs, runs, p.once)
			if err != nil {
				rt.Close()
				return Table{}, fmt.Errorf("H1 %s workers=%d MTL=%d: %w", p.name, workers, mtl, err)
			}
			m := core.NewModel(workers)
			model := pairs / float64(m.ExecTime(core.Time(tm), core.Time(tc), mtl, pairs))
			bound := "cores"
			if m.CoresIdle(core.Time(tm), core.Time(tc), mtl) {
				bound = "memory"
			}
			t.AddRow(fmt.Sprint(workers), fmt.Sprint(mtl), p.name, fmt.Sprintf("%.0f", rate),
				fmt.Sprintf("%.0f", model), f2(rate/model), fmt.Sprintf("%.1f", tm*1e6), fmt.Sprintf("%.1f", tc*1e6), bound)
		}
		rt.Close()
		t.Notes = append(t.Notes, fmt.Sprintf("workers=%d MTL=%d: wake latency λ %.1f us at the end of the last Run", workers, mtl, float64(lambda.Nanoseconds())/1e3))
	}

	// Where the paper's controller settles on the same pairs, against the
	// smallest MTL the model says keeps every worker busy.
	rt, err := host.New(host.Config{Workers: widest, Policy: host.Dynamic})
	if err != nil {
		return Table{}, err
	}
	defer rt.Close()
	final := 0
	rate, tm, tc, err := clk.measure(pairs, runs, func() error {
		st, err := rt.Run(ps)
		final = st.FinalMTL
		return err
	})
	if err != nil {
		return Table{}, fmt.Errorf("H1 dynamic: %w", err)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Dynamic, %d workers, same pairs: settled on MTL %d at %.0f pairs/s; IdleBound from its own Tm %.1f us, Tc %.1f us is %d",
			widest, final, rate, tm*1e6, tc*1e6, core.NewModel(widest).IdleBound(core.Time(tm), core.Time(tc))),
		fmt.Sprintf("%d pairs of %d KiB, gather = one sequential store pass, compute = %d summing passes; each cell the median of %d runs after a warm-up", pairs, footprint>>10, passes, runs),
		"wall-clock measurements of live goroutines on this machine — not golden-pinned")
	return t, nil
}

// stageClock times task bodies from inside, so both paths report their
// own Tm and Tc (ServeStats carries no task means).
type stageClock struct {
	tmNs, tcNs atomic.Int64
}

func timed(into *atomic.Int64, body func()) func() {
	return func() {
		t0 := time.Now()
		body()
		into.Add(int64(time.Since(t0)))
	}
}

func (c *stageClock) wrap(ps []host.Pair) []host.Pair {
	out := make([]host.Pair, len(ps))
	for i, p := range ps {
		out[i] = host.Pair{Memory: timed(&c.tmNs, p.Memory), Compute: timed(&c.tcNs, p.Compute)}
	}
	return out
}

// measure calls once runs+1 times, drops the first, and returns the
// median call's pairs per second with the mean task times (seconds)
// over the measured calls.
func (c *stageClock) measure(pairs, runs int, once func() error) (rate, tm, tc float64, err error) {
	var rates []float64
	for i := 0; i <= runs; i++ {
		if i == 1 {
			c.tmNs.Store(0)
			c.tcNs.Store(0)
		}
		t0 := time.Now()
		if err := once(); err != nil {
			return 0, 0, 0, err
		}
		if i > 0 {
			rates = append(rates, float64(pairs)/time.Since(t0).Seconds())
		}
	}
	tasks := float64(pairs * runs)
	return stats.Median(rates), float64(c.tmNs.Load()) / 1e9 / tasks, float64(c.tcNs.Load()) / 1e9 / tasks, nil
}

// serveAll is one closed loop through the serving path: open a session,
// submit every pair, drain.
func serveAll(rt *host.Runtime, ps []host.Pair) error {
	srv, err := rt.Serve(host.ServeConfig{Queue: len(ps), Shed: host.ShedBlock})
	if err != nil {
		return err
	}
	for _, p := range ps {
		if err := srv.Submit(p); err != nil {
			_, _ = srv.Drain(context.Background()) // the Submit error is the one to report
			return err
		}
	}
	st, err := srv.Drain(context.Background())
	if err == nil && st.Completed != int64(len(ps)) {
		err = fmt.Errorf("completed %d of %d jobs", st.Completed, len(ps))
	}
	return err
}
