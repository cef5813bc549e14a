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
// MeasureTaskTime runs, and on a Calibrator's reused pair (Engine.Reset
// + System.Reset) walked up through k and back down.
func TestMeasureMatchesParent(t *testing.T) {
	fresh := func(cfg Config, k int) measured {
		eng := sim.NewWheel()
		sys := NewSystem(eng, cfg)
		return measuredOf(measureStreams(eng, sys, k, measureTasks, measureFootprint, nil), sys)
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
	data, err := os.ReadFile(measureParentPath)
	if err != nil {
		t.Fatalf("missing parent measurements (see -capture): %v", err)
	}
	var want map[string]measured
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	cases := measureCases()
	if len(want) != len(cases)*measureMaxK {
		t.Fatalf("parent file holds %d measurements, the test makes %d: re-capture at the parent commit", len(want), len(cases)*measureMaxK)
	}
	for name, cfg := range cases {
		c, err := NewCalibrator(cfg, measureTasks, measureFootprint)
		if err != nil {
			t.Fatal(err)
		}
		warm := func(k int) measured {
			if _, err := c.Measure(k); err != nil {
				t.Fatal(err)
			}
			return measuredOf(c.durations, c.sys)
		}
		check := func(how string, k int, got measured) {
			if w := want[fmt.Sprintf("%s/k=%d", name, k)]; got != w {
				t.Errorf("%s k=%d (%s): got %+v, parent %+v", name, k, how, got, w)
			}
		}
		for k := 1; k <= measureMaxK; k++ {
			check("fresh", k, fresh(cfg, k))
			check("calibrator, rising", k, warm(k))
		}
		for k := measureMaxK; k >= 1; k-- {
			check("calibrator, falling", k, warm(k))
		}
	}
}
