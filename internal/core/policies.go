package core

import (
	"fmt"
	"math"
)

// Compile-time checks: the legacy controllers and the new plugins all
// satisfy the Policy contract.
var (
	_ Policy = Fixed{}
	_ Policy = (*Dynamic)(nil)
	_ Policy = (*OnlineExhaustive)(nil)
	_ Policy = (*StdevClamp)(nil)
	_ Policy = (*Blacklist)(nil)

	_ Throttler    = (*PolicyThrottler)(nil)
	_ ClassLimiter = (*PolicyThrottler)(nil)
	_ Observer     = (*PolicyThrottler)(nil)

	_ Degrader = (*PolicyThrottler)(nil)
	_ Degrader = (*Dynamic)(nil)
	_ Degrader = (*OnlineExhaustive)(nil)
)

// StdevClamp is an anomaly-triggered clamp in the style of the
// Ramulator throttler's STDEV trigger: it keeps running statistics of
// the per-window mean memory-task time, and when a window lands more
// than Sigma standard deviations above the mean it halves the
// aggregate limit (a burst of memory pressure is under way). Calm
// windows recover the limit one slot at a time back to the unclamped
// ceiling. Triggered windows are excluded from the running statistics
// so a sustained attack cannot drag the baseline up and re-normalize
// itself.
type StdevClamp struct {
	n     int     // unclamped aggregate limit (machine threads)
	sigma float64 // trigger threshold in standard deviations
	floor int     // lowest limit a clamp may reach

	cur    int
	warmup int // windows before the trigger arms
	count  int
	mean   float64
	m2     float64

	// Triggers counts clamp activations for reports.
	Triggers int
}

// NewStdevClamp builds the clamp for an n-thread machine. sigma <= 0
// selects 2.0; floor is clamped into [1, n].
func NewStdevClamp(n int, sigma float64) *StdevClamp {
	if n < 1 {
		panic(fmt.Sprintf("core: NewStdevClamp with n = %d", n))
	}
	if sigma <= 0 {
		sigma = 2.0
	}
	return &StdevClamp{n: n, sigma: sigma, floor: 1, cur: n, warmup: 8}
}

// Name implements Policy.
func (c *StdevClamp) Name() string { return fmt.Sprintf("stdev-clamp(%.1f)", c.sigma) }

// Observe implements Policy.
func (c *StdevClamp) Observe(w WindowStats) Decision {
	x := float64(w.Tm)
	if !math.IsInf(x, 0) && !math.IsNaN(x) && x > 0 {
		if c.count >= c.warmup {
			sd := math.Sqrt(c.m2 / float64(c.count))
			if sd > 0 && x > c.mean+c.sigma*sd {
				// Anomalous window: clamp and keep it out of the stats.
				c.Triggers++
				c.cur /= 2
				if c.cur < c.floor {
					c.cur = c.floor
				}
				return Decision{Limit: c.cur, Monitoring: true}
			}
		}
		c.count++
		d := x - c.mean
		c.mean += d / float64(c.count)
		c.m2 += d * (x - c.mean)
	}
	if c.cur < c.n {
		c.cur++
	}
	return Decision{Limit: c.cur, Monitoring: true}
}

// Blacklist layers a rotating counting-window hog detector over an
// inner aggregate-limit policy (AttackThrottler-style): per-class
// memory-time scores accumulate into 3 rotating counters, the oldest of
// which is cleared every 4 windows, so the judged score always spans
// roughly 8 windows of history and stale behaviour ages out. A class
// whose share of the active counter's total score exceeds 0.60, and
// whose mean per-pair memory time exceeds twice the rest of the
// traffic's, is demoted — fully serialized via the decision's blacklist
// bit — and released once its share decays below half the trigger, the
// hysteresis that keeps a hog from flapping in and out of demotion at
// the boundary.
type Blacklist struct {
	inner Policy

	counters [blRot]blCounter
	head     int // counter cleared most recently
	windows  int
	mask     uint64

	// Demotions counts blacklist activations; DemotedAt records each
	// class's first demotion instant (window End), the containment
	// timestamp the robustness experiment reports.
	Demotions int
	DemotedAt [MaxClasses]Time
	demoted   [MaxClasses]bool
}

// The detector's constants: rotating counters, windows between
// rotations, the demotion share trigger, and the per-pair dominance
// factor that keeps legitimate majority traffic (high share, average
// pairs) from being mistaken for a bandwidth hog.
const (
	blRot    = 3
	blPeriod = 4
	blRatio  = 0.60
	blHog    = 2.0
)

// blCounter is one rotating counting window: per-class memory-time
// score and completed-pair counts.
type blCounter struct {
	score [MaxClasses]float64
	pairs [MaxClasses]float64
}

// BlacklistOptions has no fields: the detector runs at its constants.
// The type stays for NewBlacklist's callers.
type BlacklistOptions struct{}

// NewBlacklist wraps inner with the hog detector. inner supplies the
// aggregate limit each window (it may be nil, leaving the aggregate
// limit untouched).
func NewBlacklist(inner Policy, _ BlacklistOptions) *Blacklist {
	return &Blacklist{inner: inner}
}

// Name implements Policy.
func (b *Blacklist) Name() string {
	if b.inner == nil {
		return "blacklist"
	}
	return "blacklist+" + b.inner.Name()
}

// Blacklisted reports whether class is currently demoted.
func (b *Blacklist) Blacklisted(class int) bool {
	return class >= 0 && class < MaxClasses && b.mask&(1<<uint(class)) != 0
}

// Observe implements Policy.
func (b *Blacklist) Observe(w WindowStats) Decision {
	b.windows++
	if b.windows%blPeriod == 0 {
		b.head = (b.head + 1) % blRot
		b.counters[b.head] = blCounter{}
	}
	// Score this window's classes into every counter: memory time is
	// the bandwidth-hog signal, stalls weigh in so a wedging attacker
	// that never completes still accumulates score.
	for c := range w.Classes {
		cs := &w.Classes[c]
		score := float64(cs.TmSum) + float64(w.Tm)*float64(cs.Stalls)
		for i := range b.counters {
			b.counters[i].score[c] += score
			b.counters[i].pairs[c] += float64(cs.Pairs + cs.Stalls)
		}
	}
	// Judge against the oldest counter — the one with the longest
	// accumulated history, cleared furthest in the past. Demotion
	// requires all three hog signatures at once:
	//
	//   - share: the class carries more than blRatio of the counter's
	//     total memory-time score — it dominates the bandwidth;
	//   - per-pair dominance: its mean memory time per pair exceeds
	//     blHog times the rest of the traffic's mean — each of its jobs
	//     individually hogs, so legitimate majority traffic (high
	//     share, average jobs) is never demoted; and
	//   - a victim exists: some other class completed pairs in the
	//     judged history — 100% of single-tenant traffic is just the
	//     only tenant.
	//
	// Release needs only the share to decay below half the trigger, so
	// a demoted class whose ingress is being shed ages out of the
	// rotating counters and gets readmitted once the rest of the
	// traffic has reclaimed the bandwidth.
	active := &b.counters[(b.head+1)%blRot]
	total, totalPairs := 0.0, 0.0
	for c := 0; c < MaxClasses; c++ {
		total += active.score[c]
		totalPairs += active.pairs[c]
	}
	if total > 0 {
		for c := 0; c < MaxClasses; c++ {
			share := active.score[c] / total
			bit := uint64(1) << uint(c)
			if b.mask&bit == 0 {
				restPairs := totalPairs - active.pairs[c]
				if share > blRatio && active.pairs[c] > 0 && restPairs > 0 {
					classMean := active.score[c] / active.pairs[c]
					restMean := (total - active.score[c]) / restPairs
					if classMean > blHog*restMean {
						b.mask |= bit
						b.Demotions++
						if !b.demoted[c] {
							b.demoted[c] = true
							b.DemotedAt[c] = w.End
						}
					}
				}
			} else if share < blRatio/2 {
				b.mask &^= bit
			}
		}
	}

	var d Decision
	if b.inner != nil {
		d = b.inner.Observe(w)
	}
	d.Blacklist = b.mask
	d.Monitoring = true
	return d
}
