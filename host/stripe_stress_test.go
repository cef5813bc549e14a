package host

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"memthrottle/internal/core"
)

// These stress tests pin the conservation law of the striped hot-path
// counters: every per-worker shard write must be visible in the merged
// totals — nothing lost, nothing double-counted — even while workers
// churn, take across domains, and the controller twiddles the MTL
// between windows. They run under `make race` (the race target runs
// ./host/... wholesale), which is where a mis-synchronized shard merge
// would actually be caught.

// twiddlePolicy alternates the aggregate limit between lo and hi at
// every window boundary, so the gates' limit lines churn under the
// admission CASes while the shards accumulate.
type twiddlePolicy struct {
	lo, hi  int
	windows int
}

func (p *twiddlePolicy) Name() string { return "test-twiddle" }
func (p *twiddlePolicy) Observe(core.WindowStats) core.Decision {
	p.windows++
	limit := p.lo
	if p.windows%2 == 0 {
		limit = p.hi
	}
	return core.Decision{Limit: limit, Monitoring: true}
}

// TestStressDomainCountersMerge drives a batch workload with scatters
// and a class mix through a class-aware controller and checks the
// per-domain pair counts and the timing means merged from the worker
// shards.
func TestStressDomainCountersMerge(t *testing.T) {
	const (
		workers = 64
		domains = 4
		pairsN  = 2000
	)
	pol := &twiddlePolicy{lo: 2, hi: workers}
	rt, err := New(Config{
		Workers:   workers,
		Domains:   domains,
		Throttler: core.NewPolicyThrottler(pol, 16, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var pairs []Pair
	for i := 0; i < pairsN; i++ {
		p := Pair{Class: i % 2, Memory: func() {}, Compute: func() {}}
		if i%3 == 0 {
			p.Scatter = func() {}
		}
		pairs = append(pairs, p)
	}
	st, err := rt.Run(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompletedPairs != pairsN {
		t.Fatalf("completed %d of %d pairs", st.CompletedPairs, pairsN)
	}

	gotPairs := 0
	for d, ds := range st.Domains {
		gotPairs += ds.Pairs
		if ds.Parks < 0 || ds.Idle < 0 {
			t.Errorf("domain %d: negative merged counter: %+v", d, ds)
		}
	}
	if gotPairs != pairsN {
		t.Errorf("sum of Domains[].Pairs = %d, want %d", gotPairs, pairsN)
	}
	if st.MeanTm <= 0 || st.MeanTc < 0 {
		t.Errorf("worker-shard timing merge: MeanTm = %v, MeanTc = %v", st.MeanTm, st.MeanTc)
	}
	if pol.windows == 0 {
		t.Error("policy observed no windows — the MTL never twiddled")
	}
}

// TestStressServeRetryConservation checks the serving path's retry
// counters under concurrent submitters and drain: ServeStats.Retries
// and Recovered each equal the transient failures the tasks counted
// themselves (every failing task fails once, then succeeds).
func TestStressServeRetryConservation(t *testing.T) {
	const (
		workers    = 32
		domains    = 2
		submitters = 8
		perSub     = 250
	)
	pol := &twiddlePolicy{lo: 2, hi: workers}
	rt, err := New(Config{
		Workers:   workers,
		Domains:   domains,
		Throttler: core.NewPolicyThrottler(pol, 16, 4),
		Retry:     RetryPolicy{MaxAttempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	srv, err := rt.Serve(ServeConfig{Queue: 256, Shed: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				p := Pair{Memory: func() {}, Compute: func() {}}
				if i%5 == seed%5 {
					// One transient failure, then success.
					var failed atomic.Bool
					p.Memory = nil
					p.MemoryErr = func() error {
						if failed.CompareAndSwap(false, true) {
							failures.Add(1)
							return errors.New("transient")
						}
						return nil
					}
				}
				if i%4 == 0 {
					p.Scatter = func() {}
				}
				if err := srv.Submit(p); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	st, err := srv.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(submitters * perSub); st.Completed != want {
		t.Fatalf("completed %d of %d jobs", st.Completed, want)
	}

	n := failures.Load()
	if n == 0 {
		t.Fatal("no task failed — the transient failures never exercised the retry path")
	}
	if st.Retries != n || st.Recovered != n {
		t.Errorf("Retries = %d, Recovered = %d, want %d each (failures the tasks counted)", st.Retries, st.Recovered, n)
	}
}
