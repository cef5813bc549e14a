package host

import (
	"math/rand"
	"testing"
	"time"
)

// TestRetryDelayShape pins the backoff: retry n waits BaseDelay·2^(n−1),
// capped at 50 ms, jittered down by at most 20%.
func TestRetryDelayShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, base := range []time.Duration{time.Microsecond, time.Millisecond, 7 * time.Millisecond, retryMaxDelay} {
		p := RetryPolicy{MaxAttempts: 20, BaseDelay: base}
		for n := 1; n <= 16; n++ {
			d := min(base<<(n-1), retryMaxDelay)
			lo := time.Duration(0.8 * float64(d))
			for i := 0; i < 50; i++ {
				if got := p.delay(n, rng); got < lo || got > d {
					t.Fatalf("base %v, retry %d: delay %v, want within [%v, %v]", base, n, got, lo, d)
				}
			}
		}
	}
	// The default base is 1 ms.
	if p := (RetryPolicy{MaxAttempts: 2}).withDefaults(); p.BaseDelay != time.Millisecond {
		t.Errorf("default BaseDelay = %v, want 1ms", p.BaseDelay)
	}
}
