package simsched

import (
	"reflect"
	"testing"

	"memthrottle/internal/core"
)

// TestSimParIgnored pins the contract of the leftover SimPar field:
// setting it changes nothing. Results are identical with and without
// it on multi-domain machines, and a runner that served a SimPar run is
// recycled like any other.
func TestSimParIgnored(t *testing.T) {
	prog := synth(1.2, 60)
	for _, domains := range []int{2, 4} {
		mk := func(simPar bool) Result {
			c := domCfg(domains)
			c.SimPar = simPar
			c.NoiseSigma = 0.01
			c.RecordTrace = true
			return Run(prog, c, core.NewDynamic(core.NewModel(4), 8))
		}
		if a, b := mk(false), mk(true); !reflect.DeepEqual(a, b) {
			t.Errorf("domains=%d: SimPar changed the result\noff: %+v\non:  %+v", domains, a, b)
		}
	}

	// A pooled runner has run before (its clock is past zero); a fresh
	// one has not. The pool may drop an entry at any GC, so retry.
	c := domCfg(4)
	c.SimPar = true
	for try := 0; ; try++ {
		Run(prog, c, core.Fixed{K: 2})
		r := acquire(c)
		pooled := r.eng.Now() > 0
		release(r)
		if pooled {
			return
		}
		if try == 10 {
			t.Fatal("acquire never handed back the runner of a SimPar run")
		}
	}
}
