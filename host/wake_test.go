package host

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// admissionPools are the two disciplines' pools over one domain under
// Workers 2, MTL 1, with nothing queued and no worker spawned: a Run
// phase (stopped only once remain tasks have finished) and a live Serve
// session, drained when the test ends.
func admissionPools(t *testing.T, remain int64) []struct {
	name string
	p    *pool
} {
	t.Helper()
	newRT := func() *Runtime {
		r, err := New(Config{Workers: 2, Policy: Static, MTL: 1})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := newRT()
	ph := &phase{}
	ph.setup(r, ph, "pair", nil)
	ph.remain.Store(remain)
	srv, err := newRT().Serve(ServeConfig{Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if _, err := srv.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	})
	return []struct {
		name string
		p    *pool
	}{{"run", &ph.pool}, {"serve", &srv.pool}}
}

// queueGathers puts gathers where each discipline's ingress puts them:
// Run's seeded gath list, Serve's pend ring.
func queueGathers(p *pool, recs ...*pairRec) {
	ds := &p.doms[0]
	for _, j := range recs {
		ds.readyMem.Add(1)
		if ds.pend == nil {
			ds.gath.put(j)
		} else if !ds.pend.push(j) {
			panic("pend full")
		}
	}
}

// TestPhaseReadyCountsOnlyAdmissibleWork pins pool.ready under both
// disciplines: a domain whose gate is full offers nothing take could
// return, however many gathers it has queued — Run's in gath, Serve's
// in the pending ring. Before the wake rule ready() read readyMem
// alone, so a gate-blocked worker's pre-park spin ended on its first
// poll and it paid a blocking park every time.
func TestPhaseReadyCountsOnlyAdmissibleWork(t *testing.T) {
	for _, c := range admissionPools(t, 4) {
		t.Run(c.name, func(t *testing.T) {
			p, r := c.p, c.p.rt
			queueGathers(p, &pairRec{}, &pairRec{})
			if !p.ready() {
				t.Fatal("ready() = false with two gathers queued and the gate empty")
			}
			if !r.claimSlot(0) {
				t.Fatal("claimSlot refused on an empty gate")
			}
			if n := p.doms[0].readyMem.Load(); n == 0 || p.ready() {
				t.Errorf("ready() = %v with readyMem = %d and the gate full, want false: take would find nothing", p.ready(), n)
			}
			if got := p.admissible(); got != 0 {
				t.Errorf("admissible() = %d with the gate full, want 0", got)
			}
			if j, _ := p.q.take(&worker{lat: new(latShard)}); j != nil {
				t.Errorf("take returned a record behind a full gate")
			}
			r.releaseSlot(0)
			if !p.ready() {
				t.Error("ready() = false after the slot came back")
			}
			if got := p.admissible(); got != 1 {
				t.Errorf("admissible() = %d with two gathers and one free slot, want 1", got)
			}
		})
	}
}

// TestPhaseTakeKeepsScattersWithTheirWorkers pins the one take order
// under both disciplines: a worker that queued a scatter tries the
// scatter list first, any other worker tries the gathers first — under
// Serve a class-capped gather set aside in gath ahead of the pending
// ring — and a scatter goes to whoever asks once no gather is left. A
// scatter run by another worker reads its compute's data from the other
// core's cache.
func TestPhaseTakeKeepsScattersWithTheirWorkers(t *testing.T) {
	for _, c := range admissionPools(t, 6) {
		t.Run(c.name, func(t *testing.T) {
			p, r := c.p, c.p.rt
			ds := &p.doms[0]
			first, second, scatter := &pairRec{}, &pairRec{}, &pairRec{stage: stageScat}
			if ds.pend == nil {
				queueGathers(p, first, second)
			} else {
				// first was set aside class-capped by an earlier take.
				ds.readyMem.Add(1)
				ds.gath.put(first)
				queueGathers(p, second)
			}
			ds.readyMem.Add(1)
			ds.scat.put(scatter)

			owner := &worker{scatQueued: true, lat: new(latShard)}
			other := &worker{lat: new(latShard)}
			for _, s := range []struct {
				name string
				w    *worker
				want *pairRec
			}{
				{"other worker", other, first},
				{"scatter's worker", owner, scatter},
				{"scatter's worker after its scatter", owner, second},
			} {
				if j, _ := p.q.take(s.w); j != s.want {
					t.Fatalf("%s took record %p, want %p", s.name, j, s.want)
				}
				r.releaseSlot(0)
			}
			if owner.scatQueued {
				t.Error("scatQueued still set after its worker took a scatter")
			}
			ds.readyMem.Add(1)
			ds.scat.put(scatter)
			if j, _ := p.q.take(other); j != scatter {
				t.Fatalf("with no gather left another worker took %p, want the scatter %p", j, scatter)
			}
			r.releaseSlot(0)
		})
	}
}

// TestRunOverlapsGatherWithCompute is §IV-A's assumption as a
// structural test: with two workers under MTL 1 and bodies far longer
// than any wake latency, some pair's gather must run while another
// pair's compute does. Bodies stamp their own intervals; busy-waiting
// longer than asked is always safe. Before the wake rule the second
// worker parked once and one worker ran every stage back to back, so no
// two intervals ever overlapped.
func TestRunOverlapsGatherWithCompute(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps to overlap anything")
	}
	const n = 16
	type span struct{ start, end time.Time }
	var mu sync.Mutex
	gathers, computes := make([]span, n), make([]span, n)
	body := func(into []span, i int) func() {
		return func() {
			s := span{start: time.Now()}
			for time.Since(s.start) < time.Millisecond {
			}
			s.end = time.Now()
			mu.Lock()
			into[i] = s
			mu.Unlock()
		}
	}
	pairs := make([]Pair, n)
	for i := range pairs {
		pairs[i] = Pair{Memory: body(gathers, i), Compute: body(computes, i)}
	}
	rt, err := New(Config{Workers: 2, Policy: Static, MTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := rt.Run(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxConcurrentM != 1 {
		t.Errorf("MaxConcurrentM = %d, want 1", st.MaxConcurrentM)
	}
	// A woken worker folds its wake into λ as it resumes. The park that
	// ends a run is woken by the shutdown, often after Run has read λ,
	// so only a run with a second blocking park woke a worker inside it.
	// (Under a CPU hog, one run in ten parks once, both workers finding
	// their next record ready until the end; half of those read λ = 0.
	// Every run that parked twice read λ > 0.)
	if parks := st.Domains[0].Parks; parks >= 2 && st.WakeLatency <= 0 {
		t.Errorf("WakeLatency = %v after a run with %d blocking parks, one of them woken inside the run", st.WakeLatency, parks)
	}
	overlaps := 0
	for j, g := range gathers {
		for i, c := range computes {
			if i != j && g.start.Before(c.end) && c.start.Before(g.end) {
				overlaps++
			}
		}
	}
	if overlaps == 0 {
		d := st.Domains[0]
		t.Errorf("no gather overlapped another pair's compute in %v: one worker ran every stage (WakeLatency %v, %d blocking parks, Idle %v)",
			st.Elapsed, st.WakeLatency, d.Parks, d.Idle)
	}
}

// TestRunCheapBodiesWakeNobody is the other row: empty bodies are
// over before a sleeper could arrive, so the rule must not wake one.
// Read from a count, not a time: blocking parks per Run stay at the
// order they had before the rule (median 0-1 at one, two and four Ps;
// the median, because the gate's raced-away nudge has rare storms of
// its own). 4096 pairs, because a 128-pair Run ends before a woken
// sleeper can park again and its count cannot tell two rules apart;
// over 4096 a rule that wakes on every dispatch parks 200-300 times a
// Run wherever there is a second P.
func TestRunCheapBodiesWakeNobody(t *testing.T) {
	const workers, runs = 8, 21
	pairs := make([]Pair, 4096)
	for i := range pairs {
		pairs[i] = Pair{Memory: func() {}, Compute: func() {}}
	}
	rt, err := New(Config{Workers: workers, Policy: Static, MTL: 2})
	if err != nil {
		t.Fatal(err)
	}
	parks := make([]int, runs)
	for i := range parks {
		st, err := rt.Run(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range st.Domains {
			parks[i] += d.Parks
		}
	}
	sort.Ints(parks)
	if med := parks[runs/2]; med > 2*workers {
		t.Errorf("median blocking parks per Run = %d (all: %v), want <= %d", med, parks, 2*workers)
	}
}
