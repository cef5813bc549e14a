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
// (2 KiB arrays, one compute pass): the serving machinery — ingress
// ring, batched admission, wakeups — dominates, not memory bandwidth.
//
// The batch parameter is the only difference between the
// BenchmarkHostServe* and BenchmarkHostServePerJob* families:
// AdmitBatch=1 degenerates the pump to one gate CAS and one wakeup
// lock per job, which is the contention the batched path amortises at
// high worker counts.
func benchServe(b *testing.B, workers, domains, batch int) {
	rt, err := New(Config{Workers: workers, Policy: Static, MTL: 2, W: 8, Domains: domains})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	srv, err := rt.Serve(ServeConfig{Queue: 1024, Shed: ShedBlock, AdmitBatch: batch})
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

// Batched admission (default AdmitBatch) at the worker counts the
// scaling claim is pinned against; domains mirror benchThroughput.
func BenchmarkHostServe64(b *testing.B)  { benchServe(b, 64, 2, 32) }
func BenchmarkHostServe128(b *testing.B) { benchServe(b, 128, 4, 32) }
func BenchmarkHostServe256(b *testing.B) { benchServe(b, 256, 4, 32) }

// Per-job admission: the pre-batching baseline the amortisation gain
// is measured against.
func BenchmarkHostServePerJob64(b *testing.B)  { benchServe(b, 64, 2, 1) }
func BenchmarkHostServePerJob128(b *testing.B) { benchServe(b, 128, 4, 1) }
func BenchmarkHostServePerJob256(b *testing.B) { benchServe(b, 256, 4, 1) }

// The gate-level admission microbenchmarks isolate the CAS
// amortisation the pump is built on, independent of core count: the
// batched variant admits 32 slots with one tryAcquireN CAS (plus one
// peak update), the per-job variant pays one CAS per slot. Both report
// per-slot cost, so the delta is the pure admission-machinery saving —
// the end-to-end BenchmarkHostServe* families only separate from
// *PerJob* under real multi-core contention.
func BenchmarkGateAdmitBatched(b *testing.B) {
	var g gate
	g.limit.Store(32)
	b.ResetTimer()
	for i := 0; i < b.N; i += 32 {
		n := g.tryAcquireN(32)
		g.releaseN(n)
	}
}

func BenchmarkGateAdmitPerJob(b *testing.B) {
	var g gate
	g.limit.Store(32)
	b.ResetTimer()
	for i := 0; i < b.N; i += 32 {
		for k := 0; k < 32; k++ {
			if g.tryAcquireN(1) == 0 {
				b.Fatal("gate full")
			}
		}
		g.releaseN(32)
	}
}
