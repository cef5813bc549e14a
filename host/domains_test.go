package host

import (
	"sync/atomic"
	"testing"
)

// domainTrackedPairs builds n pairs whose memory tasks maintain one
// live counter and high-water mark per home domain (home = pair index
// % domains), so tests can observe the actual per-domain peak memory
// concurrency independently of Stats.
func domainTrackedPairs(n, domains, work int) (pairs []Pair, peaks []int64) {
	live := make([]int64, domains)
	peaks = make([]int64, domains)
	pairs = make([]Pair, n)
	for i := range pairs {
		d := i % domains
		pairs[i] = Pair{
			Memory: func() {
				cur := atomic.AddInt64(&live[d], 1)
				for {
					old := atomic.LoadInt64(&peaks[d])
					if cur <= old || atomic.CompareAndSwapInt64(&peaks[d], old, cur) {
						break
					}
				}
				busy(work)
				atomic.AddInt64(&live[d], -1)
			},
			Compute: func() { busy(work / 2) },
		}
	}
	return pairs, peaks
}

// TestDomainConfigValidation exercises the domain knobs' error paths.
func TestDomainConfigValidation(t *testing.T) {
	if _, err := New(Config{Workers: 4, Policy: Static, MTL: 2, Domains: -1}); err == nil {
		t.Fatal("negative Domains accepted")
	}
}

// TestDomainStatsAccounting checks the per-domain Stats slice: one
// entry per domain, pairs split by the default home rule, and the
// global peak bounded by MTL x Domains.
func TestDomainStatsAccounting(t *testing.T) {
	const (
		domains = 4
		mtl     = 2
		pairs   = 42 // deliberately not a multiple of domains
	)
	rt, err := New(Config{Workers: 16, Policy: Static, MTL: mtl, Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ps, _ := domainTrackedPairs(pairs, domains, 200)
	st, err := rt.Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Domains) != domains {
		t.Fatalf("len(Stats.Domains) = %d, want %d", len(st.Domains), domains)
	}
	sumPairs := 0
	for d, ds := range st.Domains {
		want := pairs / domains
		if d < pairs%domains {
			want++
		}
		if ds.Pairs != want {
			t.Errorf("domain %d: Pairs = %d, want %d", d, ds.Pairs, want)
		}
		if ds.PeakActive > mtl {
			t.Errorf("domain %d: PeakActive = %d, MTL is %d", d, ds.PeakActive, mtl)
		}
		sumPairs += ds.Pairs
	}
	if sumPairs != pairs {
		t.Errorf("sum of Domains[].Pairs = %d, want %d", sumPairs, pairs)
	}
	if st.CompletedPairs != pairs {
		t.Errorf("completed %d of %d pairs", st.CompletedPairs, pairs)
	}
	if st.MaxConcurrentM > mtl*domains {
		t.Errorf("MaxConcurrentM = %d, cap is MTL x Domains = %d", st.MaxConcurrentM, mtl*domains)
	}
}

// TestStressDomainGateInvariant is the sharded analogue of
// TestStressStaticMTLInvariant: with 128 workers, 4 domains and a
// per-domain MTL of 2, no domain's observed memory concurrency may
// ever exceed 2 — a worker takes from every domain's lists, but an
// admission must still charge the job's home domain. Run with -race.
func TestStressDomainGateInvariant(t *testing.T) {
	const (
		workers = 128
		domains = 4
		mtl     = 2
		pairs   = 400
	)
	rt, err := New(Config{Workers: workers, Policy: Static, MTL: mtl, Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		ps, peaks := domainTrackedPairs(pairs, domains, 500)
		st, err := rt.Run(ps)
		if err != nil {
			t.Fatal(err)
		}
		for d := range peaks {
			if got := atomic.LoadInt64(&peaks[d]); got > mtl {
				t.Fatalf("round %d: domain %d observed %d concurrent memory tasks, per-domain MTL is %d",
					round, d, got, mtl)
			}
			if st.Domains[d].PeakActive > mtl {
				t.Fatalf("round %d: domain %d PeakActive = %d, per-domain MTL is %d",
					round, d, st.Domains[d].PeakActive, mtl)
			}
		}
		if st.CompletedPairs != pairs {
			t.Fatalf("round %d: completed %d of %d pairs", round, st.CompletedPairs, pairs)
		}
	}
}

// TestStressCrossDomainNoLossNoDup runs a pool narrower than the domain
// count: two workers over 4 domains, so no worker is homed at domains
// 2 and 3 and every one of their pairs is a remote take. Every task
// must run exactly once: a lost job hangs the phase (test timeout), a
// duplicated one trips the per-pair execution counters.
func TestStressCrossDomainNoLossNoDup(t *testing.T) {
	const (
		workers = 2
		domains = 4
		pairs   = 300
	)
	rt, err := New(Config{Workers: workers, Policy: Static, MTL: 2, Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	memRuns := make([]int32, pairs)
	compRuns := make([]int32, pairs)
	ps := make([]Pair, pairs)
	for i := range ps {
		ps[i] = Pair{
			Memory:  func() { atomic.AddInt32(&memRuns[i], 1); busy(300) },
			Compute: func() { atomic.AddInt32(&compRuns[i], 1); busy(100) },
		}
	}
	st, err := rt.Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pairs; i++ {
		if n := atomic.LoadInt32(&memRuns[i]); n != 1 {
			t.Fatalf("pair %d memory task ran %d times", i, n)
		}
		if n := atomic.LoadInt32(&compRuns[i]); n != 1 {
			t.Fatalf("pair %d compute task ran %d times", i, n)
		}
	}
	if st.CompletedPairs != pairs {
		t.Fatalf("completed %d of %d pairs", st.CompletedPairs, pairs)
	}
	for d := 0; d < domains; d++ {
		if st.Domains[d].Pairs != pairs/domains {
			t.Fatalf("domain %d homed %d pairs, want %d", d, st.Domains[d].Pairs, pairs/domains)
		}
	}
}

// TestStressMixedDomainPhases256 drives 256 workers over back-to-back
// phases of wildly different sizes on a 4-domain runtime, mixing the
// static and default home rules, so parked workers from a wide phase
// meet the next tiny phase's seeding. Completion of every phase is the
// assertion; -race checks the ordering claims.
func TestStressMixedDomainPhases256(t *testing.T) {
	rt, err := New(Config{Workers: 256, Policy: Static, MTL: 2, Domains: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sizes := []int{200, 1, 3, 64, 1, 128, 2, 1, 5, 32}
	if testing.Short() {
		sizes = sizes[:5]
	}
	for round, n := range sizes {
		ps, peaks := domainTrackedPairs(n, 4, 200)
		st, err := rt.Run(ps)
		if err != nil {
			t.Fatalf("round %d (n=%d): %v", round, n, err)
		}
		if st.CompletedPairs != n {
			t.Fatalf("round %d: completed %d of %d pairs", round, st.CompletedPairs, n)
		}
		for d := range peaks {
			if got := atomic.LoadInt64(&peaks[d]); got > 2 {
				t.Fatalf("round %d: domain %d observed %d concurrent memory tasks, per-domain MTL is 2",
					round, d, got)
			}
		}
	}
}

// TestStressDynamicWithDomains runs the adaptive controller on a
// sharded runtime: the decided limit applies per domain, so the
// observed global concurrency must stay within maxDecided x Domains
// and each domain within maxDecided.
func TestStressDynamicWithDomains(t *testing.T) {
	const (
		workers = 96
		domains = 2
		pairs   = 300
	)
	rt, err := New(Config{Workers: workers, Policy: Dynamic, W: 8, Domains: domains})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ps, peaks := domainTrackedPairs(pairs, domains, 500)
	st, err := rt.Run(ps)
	if err != nil {
		t.Fatal(err)
	}
	maxDecided := workers
	for _, d := range st.MTLDecisions {
		if d > maxDecided {
			maxDecided = d
		}
	}
	for d := range peaks {
		if got := atomic.LoadInt64(&peaks[d]); got > int64(maxDecided) {
			t.Fatalf("domain %d observed %d concurrent memory tasks, largest decided limit is %d",
				d, got, maxDecided)
		}
	}
	if st.MaxConcurrentM > maxDecided*domains {
		t.Fatalf("MaxConcurrentM = %d, cap is limit x Domains = %d", st.MaxConcurrentM, maxDecided*domains)
	}
	if st.CompletedPairs != pairs {
		t.Fatalf("completed %d of %d pairs", st.CompletedPairs, pairs)
	}
}

// TestJobListCrossClassIndependence checks a domain's claim that its
// two lists never share a lock: a goroutine holding the scatter list's
// mutex (via a slow synthetic drain) must not delay gather puts/takes.
// We approximate this structurally: concurrent scatter and gather
// traffic over one domainState stays linearizable (every job taken
// exactly once, counts drain to zero).
func TestJobListCrossClassIndependence(t *testing.T) {
	var ds domainState
	const n = 2000
	jobs := make([]pairRec, 2*n)
	for i := range jobs {
		jobs[i].seq = int64(i)
	}
	done := make(chan map[int64]int, 2)
	drain := func(l *recList) {
		seen := map[int64]int{}
		for len(seen) < n {
			if j := l.take(); j != nil {
				seen[j.seq]++
			}
		}
		done <- seen
	}
	go drain(&ds.scat)
	go drain(&ds.gath)
	for i := 0; i < n; i++ {
		ds.scat.put(&jobs[2*i])
		ds.gath.put(&jobs[2*i+1])
	}
	for k := 0; k < 2; k++ {
		seen := <-done
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("job %d taken %d times", id, c)
			}
		}
	}
	if ds.scat.n.Load() != 0 || ds.gath.n.Load() != 0 {
		t.Fatalf("residual counts scat=%d gath=%d", ds.scat.n.Load(), ds.gath.n.Load())
	}
}
