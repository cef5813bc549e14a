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

// TestStressStripedCountersConserve drives a batch workload with
// scatters and a class mix through a signal-batching controller and
// checks the shard-merged totals against per-job ground truth counted
// inside the tasks themselves.
func TestStressStripedCountersConserve(t *testing.T) {
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
	if rt.sig == nil {
		t.Fatal("PolicyThrottler supports SignalBatching but the runtime allocated no signal shards")
	}

	// Ground truth: per-class memory-task executions (gathers plus
	// scatters), counted by the tasks. With no failures every execution
	// is exactly one gate admission, i.e. one noteIssue.
	var memRuns [2]int64
	var pairs []Pair
	for i := 0; i < pairsN; i++ {
		class := i % 2
		p := Pair{
			Class:   class,
			Memory:  func() { atomic.AddInt64(&memRuns[class], 1) },
			Compute: func() {},
		}
		if i%3 == 0 {
			p.Scatter = func() { atomic.AddInt64(&memRuns[class], 1) }
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

	for class := 0; class < 2; class++ {
		issues, retries := rt.SignalTotals(class)
		if want := atomic.LoadInt64(&memRuns[class]); issues != want {
			t.Errorf("class %d: shard-merged issues = %d, want %d (ground-truth memory-task runs)", class, issues, want)
		}
		if retries != 0 {
			t.Errorf("class %d: shard-merged retries = %d, want 0 (no task ever failed)", class, retries)
		}
	}

	// Domain-side conservation of the merged per-worker shards.
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

// TestStressServeSignalConservation checks the serving path's shard
// invariants under concurrent submitters, retries and drain: the
// shard-merged issue total equals the admitted-job count (one issue
// signal per gate admission, emitted by the executing worker), and the
// shard-merged retry total equals the session's retry counter.
func TestStressServeSignalConservation(t *testing.T) {
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
	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perSub; i++ {
				p := Pair{Memory: func() {}, Compute: func() {}}
				if i%5 == seed%5 {
					// One transient failure: exercises the retry shard.
					var failed atomic.Bool
					p.Memory = nil
					p.MemoryErr = func() error {
						if failed.CompareAndSwap(false, true) {
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

	issues, retries := rt.SignalTotals(0)
	if issues != st.AdmittedJobs {
		t.Errorf("shard-merged issues = %d, want %d (one per gate admission)", issues, st.AdmittedJobs)
	}
	if retries != st.Retries {
		t.Errorf("shard-merged retries = %d, want %d (ServeStats.Retries)", retries, st.Retries)
	}
	if st.Retries == 0 {
		t.Error("no retries happened — the transient failures never exercised the retry shard")
	}
}
