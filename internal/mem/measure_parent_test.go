package mem

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"memthrottle/internal/sim"
	"memthrottle/internal/stats"
)

// -capture rewrites testdata/measure_parent.json from the code under
// test. The committed file was captured at the parent commit of the
// event-queue rewrite (two-level 64 ns wheel, division-based locate)
// by copying this file there and running
//
//	go test ./internal/mem -run TestMeasureMatchesParent -capture
//
// so it pins the DRAM model's output to its predecessor, not to
// itself. Re-capture only for an intended change of simulated output.
var capture = flag.Bool("capture", false, "rewrite testdata/measure_parent.json from the current code")

const measureParentPath = "testdata/measure_parent.json"

// measured is one measurement in a shape that round-trips exactly: the
// mean task time as its float64 bit pattern, and the DRAM counters.
type measured struct {
	TmBits    uint64 `json:"tm_bits"`
	Requests  uint64 `json:"requests"`
	RowHits   uint64 `json:"row_hits"`
	RowMiss   uint64 `json:"row_miss"`
	Refreshes uint64 `json:"refreshes"`
}

func measuredOf(durations []float64, sys *System) measured {
	st := sys.Stats()
	return measured{
		TmBits:   math.Float64bits(stats.Mean(durations)),
		Requests: st.Requests, RowHits: st.RowHits, RowMiss: st.RowMiss, Refreshes: st.Refreshes,
	}
}

// measureCases are the three configurations the benchmark fits, plus
// the corners those fits never reach: with front-end jitter or think
// time (or both) at zero the streams run in lockstep and hundreds of
// events share an instant, so sequence numbers alone decide the order;
// and a geometry with no power of two in it takes locate's division
// path.
func measureCases() map[string]Config {
	base := DDR3_1066()
	noJitter, noThink, lockstep, odd := base, base, base, base
	noJitter.FrontJitter = 0
	noThink.ThinkTime = 0
	lockstep.FrontJitter, lockstep.ThinkTime = 0, 0
	odd.Channels, odd.BanksPerRank, odd.RowBytes = 3, 6, 96*odd.LineBytes
	return map[string]Config{
		"base": base, "ch2": base.WithChannels(2), "refresh": base.WithRefresh(),
		"nojitter": noJitter, "nothink": noThink, "lockstep": lockstep, "odd": odd,
	}
}

const (
	measureMaxK      = 8
	measureTasks     = 3
	measureFootprint = 64 << 10
)

// TestMeasureMatchesParent pins every measurement to what the parent
// commit produced — on a fresh engine and system, the way
// MeasureTaskTime runs, and on one reused pair (Engine.Reset +
// System.Reset) walked up through k and back down.
func TestMeasureMatchesParent(t *testing.T) {
	fresh := func(cfg Config, k int) measured {
		eng := sim.NewWheel()
		sys := NewSystem(eng, cfg)
		return measuredOf(measureStreams(eng, sys, k, measureTasks, measureFootprint), sys)
	}
	if *capture {
		got := make(map[string]measured)
		for name, cfg := range measureCases() {
			for k := 1; k <= measureMaxK; k++ {
				got[fmt.Sprintf("%s/k=%d", name, k)] = fresh(cfg, k)
			}
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(measureParentPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(measureParentPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := parentMeasurements(t)
	cases := measureCases()
	if len(want) != len(cases)*measureMaxK {
		t.Fatalf("parent file holds %d measurements, the test makes %d: re-capture at the parent commit", len(want), len(cases)*measureMaxK)
	}
	for name, cfg := range cases {
		eng := sim.NewWheel()
		sys := NewSystem(eng, cfg)
		warm := func(k int) measured {
			eng.Reset()
			sys.Reset()
			return measuredOf(measureStreams(eng, sys, k, measureTasks, measureFootprint), sys)
		}
		check := func(how string, k int, got measured) {
			if w := want[fmt.Sprintf("%s/k=%d", name, k)]; got != w {
				t.Errorf("%s k=%d (%s): got %+v, parent %+v", name, k, how, got, w)
			}
		}
		for k := 1; k <= measureMaxK; k++ {
			check("fresh", k, fresh(cfg, k))
			check("reset, rising", k, warm(k))
		}
		for k := measureMaxK; k >= 1; k-- {
			check("reset, falling", k, warm(k))
		}
	}
}

// parentMeasurements reads testdata/measure_parent.json.
func parentMeasurements(t *testing.T) map[string]measured {
	t.Helper()
	data, err := os.ReadFile(measureParentPath)
	if err != nil {
		t.Fatalf("missing parent measurements (see -capture): %v", err)
	}
	var want map[string]measured
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestReleasesOnlyForWaiters steps a measurement by hand and counts
// its events. A line costs an arrival, a completion and (all but the
// last MaxOutstanding of a task) a think-time pump; the parent also
// fired a bank release per line, so it ran at 4 events a line less
// those pumps (49 104 for the 12 288 lines here). A release is now
// queued only for a request that waits on the bank, so the count must
// fall well below that while the mean task time keeps the parent's
// bits.
func TestReleasesOnlyForWaiters(t *testing.T) {
	const k = 4
	want := parentMeasurements(t)
	eng := sim.New()
	sys := NewSystem(eng, DDR3_1066())
	var durations []float64
	startStreams(eng, sys, k, measureTasks, measureFootprint, &durations)
	events := 0
	for eng.Step() {
		events++
	}
	if got, w := measuredOf(durations, sys), want[fmt.Sprintf("base/k=%d", k)]; got != w {
		t.Fatalf("stepped by hand: got %+v, parent %+v", got, w)
	}
	lines := int(sys.Stats().Requests)
	tasks := k * measureTasks
	parent := 4*lines - sys.Config().MaxOutstanding*tasks
	wakes := events - (parent - lines)
	t.Logf("%d events for %d lines (%.3f a line; parent %d), %d releases", events, lines, float64(events)/float64(lines), parent, wakes)
	if events >= 4*lines || wakes > lines/2 {
		t.Errorf("%d events, %d of them releases, for %d lines: want fewer than 4 a line and releases for at most half the lines", events, wakes, lines)
	}
}
