package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"memthrottle/internal/mem"
)

// TestRunRejectsBadFlagValues: every value a user can pass that the
// simulator cannot run with comes back as an error naming the flag,
// before anything is calibrated or simulated. At b964a2f each of these
// either panicked inside a library (-w, -pairs, -ratio, -dim; -mtl 0
// as a deadlock in a worker goroutine), was refused in terms of the
// calibration's line fit (-cores 1, -smt 0) or the DRAM model
// (-channels 0), or silently ran another schedule (-mtl above n).
func TestRunRejectsBadFlagValues(t *testing.T) {
	for _, c := range []struct {
		args string
		want string // the flag the message must name
	}{
		{"-policy static -mtl 0", "-mtl 0"},
		{"-policy static -mtl 9 -cores 2", "-mtl 9"},
		{"-mtl 5", "-mtl 5"},
		{"-w 0", "-w 0"},
		{"-w -3 -policy online", "-w -3"},
		{"-pairs 0", "-pairs 0"},
		{"-ratio 0", "-ratio 0"},
		{"-ratio -1", "-ratio -1"},
		{"-ratio NaN", "-ratio NaN"},
		{"-ratio +Inf", "-ratio +Inf"},
		{"-workload sc -dim 7", "-dim 7"},
		{"-cores 1", "-cores 1 -smt 1"},
		{"-cores 0", "-cores 0"},
		{"-smt 0", "-smt 0"},
		{"-channels 0", "-channels 0"},
		{"-domains 0", "-domains 0"},
		{"-j 0", "-j 0"},
	} {
		before := mem.CalibrateRuns()
		var out bytes.Buffer
		err := run(strings.Fields(c.args), &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("mtlsim %s: error %v, want one naming %q", c.args, err, c.want)
		}
		if out.Len() != 0 || mem.CalibrateRuns() != before {
			t.Errorf("mtlsim %s: printed %q and calibrated %d times before refusing", c.args, out.String(), mem.CalibrateRuns()-before)
		}
	}
	if err := run([]string{"-policy", "fastest"}, io.Discard); err == nil || !strings.Contains(err.Error(), "fastest") {
		t.Errorf("unknown policy: error %v", err)
	}
}

// TestRunStaticOnTwoThreads is the good run: the smallest machine the
// simulator accepts, at the edge of the -mtl range.
func TestRunStaticOnTwoThreads(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.Fields("-cores 2 -policy static -mtl 2 -pairs 24 -j 1"), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"machine  : 2 cores x 1 SMT", "policy   : fixed(2)", "speedup 1.000x", "final MTL: 2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
