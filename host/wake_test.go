package host

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestPhaseReadyCountsOnlyAdmissibleWork pins discipline.ready for the
// batch discipline: a domain whose gate is full offers nothing take
// could return, however many gathers it has queued. Before the wake
// rule ready() read readyMem alone, so a gate-blocked worker's pre-park
// spin ended on its first poll and it paid a blocking park every time.
func TestPhaseReadyCountsOnlyAdmissibleWork(t *testing.T) {
	r, err := New(Config{Workers: 2, Policy: Static, MTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]pairRec, 2)
	ph := &phase{recs: recs, nd: 1, doms: make([]domainState, 1)}
	ph.setup(r, ph, &r.lot, "pair", nil)
	ph.remain.Store(4)
	ph.doms[0].gath.seed([]*pairRec{&recs[0], &recs[1]})
	ph.doms[0].readyMem.Store(2)

	if !ph.ready() {
		t.Fatal("ready() = false with two gathers queued and the gate empty")
	}
	if !r.claimSlot(0) {
		t.Fatal("claimSlot refused on an empty gate")
	}
	if n := ph.doms[0].readyMem.Load(); n == 0 || ph.ready() {
		t.Errorf("ready() = %v with readyMem = %d and the gate full, want false: take would find nothing", ph.ready(), n)
	}
	if got := ph.admissible(); got != 0 {
		t.Errorf("admissible() = %d with the gate full, want 0", got)
	}
	r.releaseSlot(0)
	if !ph.ready() {
		t.Error("ready() = false after the slot came back")
	}
	if got := ph.admissible(); got != 1 {
		t.Errorf("admissible() = %d with two gathers and one free slot, want 1", got)
	}
}

// TestPhaseTakeKeepsScattersWithTheirWorkers pins the batch take order:
// a worker that queued a scatter tries the scatter list first, any other
// worker tries the gathers first, and a scatter goes to whoever asks once
// no gather is left. A scatter run by another worker reads its compute's
// data from the other core's cache.
func TestPhaseTakeKeepsScattersWithTheirWorkers(t *testing.T) {
	r, err := New(Config{Workers: 2, Policy: Static, MTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]pairRec, 3)
	gather1, gather2, scatter := &recs[0], &recs[1], &recs[2]
	scatter.stage = stageScat
	ph := &phase{recs: recs, nd: 1, doms: make([]domainState, 1)}
	ph.setup(r, ph, &r.lot, "pair", nil)
	ph.remain.Store(6)
	ds := &ph.doms[0]
	ds.gath.seed([]*pairRec{gather1, gather2})
	ds.scat.put(scatter)
	ds.readyMem.Store(3)

	owner, other := &worker{scatQueued: true}, &worker{}
	for _, c := range []struct {
		name string
		w    *worker
		want *pairRec
	}{
		{"other worker", other, gather1},
		{"scatter's worker", owner, scatter},
		{"scatter's worker after its scatter", owner, gather2},
	} {
		if j := ph.take(c.w); j != c.want {
			t.Fatalf("%s took record %p, want %p", c.name, j, c.want)
		}
		r.releaseSlot(0)
	}
	if owner.scatQueued {
		t.Error("scatQueued still set after its worker took a scatter")
	}
	ds.readyMem.Add(1)
	ds.scat.put(scatter)
	if j := ph.take(other); j != scatter {
		t.Fatalf("with no gather left another worker took %p, want the scatter %p", j, scatter)
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
	if st.WakeLatency <= 0 {
		t.Errorf("WakeLatency = %v after a run whose second worker had to be woken", st.WakeLatency)
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
		t.Errorf("no gather overlapped another pair's compute in %v: one worker ran every stage", st.Elapsed)
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
