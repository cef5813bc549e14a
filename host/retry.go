package host

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// RetryPolicy bounds per-task retry for pairs whose task returns an
// error or panics: a failed task is re-executed up to MaxAttempts
// total times, sleeping a backoff between attempts that doubles from
// BaseDelay up to a 50 ms cap and is jittered down by up to 20%, which
// decorrelates retry storms. The zero value disables retry.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions allowed per task
	// (first run included). 0 and 1 both mean no retry.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry, at most the
	// 50 ms cap. Default: 1ms when MaxAttempts > 1.
	BaseDelay time.Duration
	// Seed seeds the jitter RNG so failure runs replay identically.
	Seed int64
}

// The backoff's shape: retry n waits BaseDelay·retryGrowth^(n-1),
// capped at retryMaxDelay, times a factor drawn uniformly from
// [1-retryJitter, 1].
const (
	retryMaxDelay = 50 * time.Millisecond
	retryGrowth   = 2
	retryJitter   = 0.2
)

// enabled reports whether the policy retries at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// withDefaults fills zero fields of an enabled policy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.enabled() && p.BaseDelay == 0 {
		p.BaseDelay = time.Millisecond
	}
	return p
}

// validate reports a policy error.
func (p RetryPolicy) validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("host: Retry.MaxAttempts = %d, want >= 0", p.MaxAttempts)
	}
	if p.BaseDelay < 0 {
		return fmt.Errorf("host: Retry.BaseDelay = %v, want >= 0", p.BaseDelay)
	}
	if p.enabled() && p.BaseDelay > retryMaxDelay {
		return fmt.Errorf("host: Retry.BaseDelay %v exceeds the %v cap", p.BaseDelay, retryMaxDelay)
	}
	return nil
}

// delay computes the backoff before retry number retry (1-based),
// assuming the policy has its defaults filled.
func (p RetryPolicy) delay(retry int, rng *rand.Rand) time.Duration {
	d := float64(p.BaseDelay) * math.Pow(retryGrowth, float64(retry-1))
	d = min(d, float64(retryMaxDelay))
	return time.Duration(d * (1 - retryJitter*rng.Float64()))
}
