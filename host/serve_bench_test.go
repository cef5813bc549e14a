package host

import (
	"context"
	"runtime"
	"testing"
)

// benchServe measures sustained serving throughput: parallel
// submitters firehose small jobs through a running server (ShedBlock,
// so the bounded queue applies backpressure instead of shedding) and
// the drain is inside the timed region, so the jobs/sec metric covers
// every submitted job end to end. Task bodies match benchThroughput
// (2 KiB arrays, one compute pass): the serving machinery — the
// ingress ring, the gate CAS a worker makes as it takes each job, and a
// wakeup only when a Submit finds the gate with room or the wake rule
// pays — dominates, not memory bandwidth.
func benchServe(b *testing.B, workers, domains int) {
	rt, err := New(Config{Workers: workers, Policy: Static, MTL: 2, W: 8, Domains: domains})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	srv, err := rt.Serve(ServeConfig{Queue: 1024, Shed: ShedBlock})
	if err != nil {
		b.Fatal(err)
	}
	// Per-submitter array sets: submitters resubmit their own pairs, so
	// no two in-flight jobs share an array.
	sets := make(chan []Pair, runtime.GOMAXPROCS(0))
	for i := 0; i < cap(sets); i++ {
		a, err := NewArraySet(8, 2*1024)
		if err != nil {
			b.Fatal(err)
		}
		pairs, err := a.Pairs(1)
		if err != nil {
			b.Fatal(err)
		}
		sets <- pairs
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pairs := <-sets
		defer func() { sets <- pairs }()
		for i := 0; pb.Next(); i++ {
			if err := srv.Submit(pairs[i%len(pairs)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	st, err := srv.Drain(context.Background())
	elapsed := b.Elapsed()
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if st.Completed != int64(b.N) || st.Failed != 0 {
		b.Fatalf("completed %d failed %d of %d submitted", st.Completed, st.Failed, b.N)
	}
	b.ReportMetric(float64(st.Completed)/elapsed.Seconds(), "jobs/s")
}

// The worker counts the scaling claim is pinned against; domains
// mirror benchThroughput.
func BenchmarkHostServe64(b *testing.B)  { benchServe(b, 64, 2) }
func BenchmarkHostServe128(b *testing.B) { benchServe(b, 128, 4) }
func BenchmarkHostServe256(b *testing.B) { benchServe(b, 256, 4) }

// BenchmarkGateAdmitPerJob isolates the gate's admission cost,
// independent of core count: 32 one-slot claims, then 32 one-slot
// releases, as the disciplines make them. It reports per-slot cost.
func BenchmarkGateAdmitPerJob(b *testing.B) {
	var g gate
	g.limit.Store(32)
	b.ResetTimer()
	for i := 0; i < b.N; i += 32 {
		for k := 0; k < 32; k++ {
			if !g.tryAcquire() {
				b.Fatal("gate full")
			}
		}
		for k := 0; k < 32; k++ {
			g.release()
		}
	}
}
