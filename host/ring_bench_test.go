package host

import (
	"sync/atomic"
	"testing"
)

// BenchmarkMpmcRingContended pins the padded per-slot layout under the
// traffic pattern the serving path generates: many producers and
// consumers hammering one ring concurrently. Each parallel worker
// alternates push and pop so the ring stays near half-full and both
// ticket words and slot sequences churn. With unpadded slots (seq +
// job packed 4 to a line) adjacent handoffs false-share; the one-slot-
// per-line layout keeps each handoff's coherence traffic to its own
// line, and this benchmark is the pin that a future "save some memory"
// repack has to beat.
func BenchmarkMpmcRingContended(b *testing.B) {
	r := newMPMCRing(1024)
	blocks := make([]pairRec, 512)
	for i := range blocks {
		if !r.push(&blocks[i]) {
			b.Fatal("seed push failed")
		}
	}
	var balance atomic.Int64 // net pops held by workers, for the final audit
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var held *pairRec
		for pb.Next() {
			if held == nil {
				if held = r.pop(); held != nil {
					balance.Add(1)
				}
			} else {
				if r.push(held) {
					held = nil
					balance.Add(-1)
				}
			}
		}
		if held != nil {
			for !r.push(held) {
			}
			balance.Add(-1)
		}
	})
	b.StopTimer()
	if got := r.length() + int(balance.Load()); got != len(blocks) {
		b.Fatalf("ring audit: %d blocks accounted, want %d", got, len(blocks))
	}
}
