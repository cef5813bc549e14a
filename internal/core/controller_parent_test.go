package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
)

// -capture rewrites testdata/controller_parent.json from the code under
// test. The committed file was captured at 9e54812, the commit before
// Dynamic and OnlineExhaustive gave their guard, window and limit to
// the one driver (PolicyThrottler), by copying this file there and
// running
//
//	go test ./internal/core -run TestControllersMatchParent -capture
//
// so it pins the merged front end to the three it replaced, not to
// itself. The plugin cases (stdev, blacklist) run clean streams only:
// at 9e54812 their path had no sample guard, and what they do with
// corrupted input is an intended change (TestPolicyThrottlerGuards).
// Re-capture only for an intended change of a controller's decisions.
var capture = flag.Bool("capture", false, "rewrite testdata/controller_parent.json from the current code")

const controllerParentPath = "testdata/controller_parent.json"

// pairSource yields pair i of a stream given the limit in force.
type pairSource func(i, mtl int) PairSample

// lawStream is the clean contention law: memory time grows linearly
// with the limit in force, compute time is fixed.
func lawStream(tml, tql, tc Time) pairSource {
	var now Time
	return func(_, k int) PairSample {
		tm := tml + Time(k)*tql
		now += tm + tc
		return PairSample{Tm: tm, Tc: tc, Now: now}
	}
}

// phaseStream is the stream bench/layers_sim.go times Dynamic on: the
// law with a compute-time phase change every 4096 pairs.
func phaseStream() pairSource {
	var now Time
	return func(i, k int) PairSample {
		now += 8 * pus
		tc := 6 * pus
		if i&4096 != 0 {
			tc = pus
		}
		return PairSample{Tm: pus + Time(k)*400, Tc: tc, Now: now}
	}
}

// corruptStream corrupts src as experiment R1 does: a NaN Tm with
// probability nanRate, else a 40x Tm spike with probability spikeRate.
func corruptStream(src pairSource, spikeRate, nanRate float64, seed int64) pairSource {
	rng := rand.New(rand.NewSource(seed))
	return func(i, k int) PairSample {
		s := src(i, k)
		switch u := rng.Float64(); {
		case u < nanRate:
			s.Tm = Time(math.NaN())
		case u < nanRate+spikeRate:
			s.Tm *= 40
		}
		return s
	}
}

// floodStream is two tenants: class 0 runs law pairs; from pair 256 on
// three pairs in four belong to class 1, whose memory tasks are 12x
// longer.
func floodStream() pairSource {
	var now Time
	return func(i, k int) PairSample {
		s := PairSample{Tm: pus + Time(k)*250, Tc: 4 * pus}
		if i >= 256 && i%4 != 0 {
			s.Tm *= 12
			s.Class = 1
		}
		now += s.Tm + s.Tc
		s.Now = now
		return s
	}
}

// ctlEvent is one change of what a controller publishes: the pairs
// fed before the change was seen (-1 at construction), MTL(),
// Monitoring() as 0/1, and a mask with bit c set while class c is
// demoted (plugin cases). An array, to keep the capture small.
type ctlEvent [4]int

// ctlTrace is everything a case pins.
type ctlTrace struct {
	Events      []ctlEvent
	History     []int
	Selections  int
	TotalProbes int
	Health      *Health  `json:",omitempty"` // legacy controllers only
	Episode     []string `json:",omitempty"` // the fallback episode's snapshots
}

// ctlCase is one (controller, stream) point.
type ctlCase struct {
	name  string
	pairs int
	th    Throttler
	src   pairSource
	// report reads the controller's own counters into the trace.
	report func(*ctlTrace)
	// episode, for the fallback case, runs after the stream.
	episode func(*ctlTrace)
}

func snapshot(th Throttler, pair int) ctlEvent {
	e := ctlEvent{pair, th.MTL(), 0, 0}
	if th.Monitoring() {
		e[2] = 1
	}
	if cl, ok := th.(*PolicyThrottler); ok {
		for c := 0; c < MaxClasses; c++ {
			if cl.Blacklisted(c) {
				e[3] |= 1 << c
			}
		}
	}
	return e
}

// feed drives n pairs of src into th from pair index from, appending
// an event at every change of the published state.
func feed(tr *ctlTrace, th Throttler, src pairSource, from, n int) {
	last := snapshot(th, 0)
	for i := from; i < from+n; i++ {
		th.OnPair(src(i, th.MTL()))
		if e := snapshot(th, i+1); e[1] != last[1] || e[2] != last[2] || e[3] != last[3] {
			tr.Events = append(tr.Events, e)
			last = e
		}
	}
}

func (c ctlCase) run() ctlTrace {
	tr := ctlTrace{Events: []ctlEvent{snapshot(c.th, -1)}}
	feed(&tr, c.th, c.src, 0, c.pairs)
	if c.episode != nil {
		c.episode(&tr)
	}
	c.report(&tr)
	return tr
}

func controllerCases() []ctlCase {
	type stream struct {
		name  string
		pairs int
		clean bool
		mk    func() pairSource
	}
	memLaw := func() pairSource { return lawStream(2*pus, 500, 3*pus) }
	streams := []stream{
		{"law-compute", 600, true, func() pairSource { return lawStream(800, 100, 10*pus) }},
		{"law-memory", 600, true, memLaw},
		{"phase4096", 20000, true, phaseStream},
		{"flood", 4096, true, floodStream},
		{"spike5", 4000, false, func() pairSource { return corruptStream(memLaw(), 0.05, 0, 1001) }},
		{"spike20", 4000, false, func() pairSource { return corruptStream(memLaw(), 0.20, 0, 1002) }},
		{"spike20-nan2", 4000, false, func() pairSource { return corruptStream(phaseStream(), 0.20, 0.02, 1003) }},
	}
	dyn := func(d *Dynamic) (Throttler, func(*ctlTrace)) {
		return d, func(tr *ctlTrace) {
			h := d.Health()
			tr.History, tr.Selections, tr.TotalProbes, tr.Health = d.History, d.Selections, d.TotalProbes, &h
		}
	}
	plug := func(p *PolicyThrottler) (Throttler, func(*ctlTrace)) {
		return p, func(tr *ctlTrace) { tr.History = p.History }
	}
	controllers := []struct {
		name   string
		legacy bool
		mk     func() (Throttler, func(*ctlTrace))
	}{
		{"dynamic-n8-w16", true, func() (Throttler, func(*ctlTrace)) { return dyn(NewDynamic(NewModel(8), 16)) }},
		{"dynamic-n4-w4", true, func() (Throttler, func(*ctlTrace)) { return dyn(NewDynamic(NewModel(4), 4)) }},
		{"linear-n8-w16", true, func() (Throttler, func(*ctlTrace)) {
			return dyn(NewDynamicOpts(NewModel(8), 16, DynamicOptions{LinearSearch: true}))
		}},
		{"naive-n8-w16", true, func() (Throttler, func(*ctlTrace)) {
			return dyn(NewDynamicOpts(NewModel(8), 16, DynamicOptions{NaiveRatioTrigger: 0.2}))
		}},
		{"hyst2-n8-w16", true, func() (Throttler, func(*ctlTrace)) {
			return dyn(NewDynamicOpts(NewModel(8), 16, DynamicOptions{Hysteresis: 2}))
		}},
		{"online-n8-w16", true, func() (Throttler, func(*ctlTrace)) {
			o := NewOnlineExhaustive(NewModel(8), 16, 0.10)
			return o, func(tr *ctlTrace) {
				h := o.Health()
				tr.History, tr.Selections, tr.TotalProbes, tr.Health = o.History, o.Selections, o.TotalProbes, &h
			}
		}},
		{"stdev-n8-w16", false, func() (Throttler, func(*ctlTrace)) {
			return plug(NewPolicyThrottler(NewStdevClamp(8, 2), 16, 8))
		}},
		{"blacklist-fixed8-w16", false, func() (Throttler, func(*ctlTrace)) {
			return plug(NewPolicyThrottler(NewBlacklist(Fixed{K: 8}, BlacklistOptions{}), 16, 8))
		}},
	}
	var cs []ctlCase
	for _, c := range controllers {
		for _, s := range streams {
			if !c.legacy && !s.clean {
				continue
			}
			th, report := c.mk()
			cs = append(cs, ctlCase{name: c.name + "/" + s.name, pairs: s.pairs, th: th, src: s.mk(), report: report})
		}
	}

	// The fallback episode: a settled D-MTL is forced conventional and
	// fed while degraded on the same stream.
	d := NewDynamic(NewModel(8), 16)
	th, report := dyn(d)
	src := memLaw()
	cs = append(cs, ctlCase{name: "dynamic-n8-w16/fallback-episode", pairs: 400, th: th, src: src, report: report,
		episode: func(tr *ctlTrace) {
			snap := func(step string) {
				data, _ := json.Marshal(struct {
					Step       string
					MTL        int
					Monitoring bool
					Watching   bool
					History    []int
					Selections int
					Health     Health
				}{step, d.MTL(), d.Monitoring(), d.Watching(), d.History, d.Selections, d.Health()})
				tr.Episode = append(tr.Episode, string(data))
			}
			snap("settled")
			d.ForceConventional()
			snap("forced")
			d.ForceConventional()
			snap("forced-again")
			feed(tr, d, src, 400, 100)
			snap("fed-degraded")
		}})
	return cs
}

// TestControllersMatchParent pins every controller's published limit
// sequence, monitoring flag, histories, counters and guard summary to
// what the three separate front ends produced.
func TestControllersMatchParent(t *testing.T) {
	got := make(map[string]ctlTrace)
	// One case a line, in case order: a diff of two captures reads.
	data := []byte("{\n")
	for i, c := range controllerCases() {
		got[c.name] = c.run()
		line, err := json.Marshal(got[c.name])
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			data = append(data, ",\n"...)
		}
		data = append(append(strconv.AppendQuote(data, c.name), ": "...), line...)
	}
	data = append(data, "\n}\n"...)
	if *capture {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(controllerParentPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(controllerParentPath)
	if err != nil {
		t.Fatalf("missing parent capture (see -capture): %v", err)
	}
	if bytes.Equal(data, file) {
		return
	}
	var want map[string]ctlTrace
	if err := json.Unmarshal(file, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("parent file holds %d cases, the test runs %d: re-capture at the parent commit", len(want), len(got))
	}
	for name, h := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not in the parent file", name)
		} else if !reflect.DeepEqual(h, w) {
			g, _ := json.Marshal(h)
			p, _ := json.Marshal(w)
			t.Errorf("%s: differs from the parent commit's\n got %s\nwant %s", name, g, p)
		}
	}
	if !t.Failed() {
		t.Error("same cases, different bytes: the capture's encoding changed")
	}
}
