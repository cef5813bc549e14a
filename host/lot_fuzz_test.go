package host

import "testing"

// FuzzLotProtocol runs an arbitrary single-threaded program of the
// calls the one park/spin loop and its unparkers make — enqueue,
// cancel, token receive, unparkOne, unparkN, unparkAll, beginSpin,
// endSpin — against a sequential model of the waiter lot. One
// goroutine plays every worker and every publisher, so nothing is
// timing: each parker is idle, queued or woken in the model, and after
// every call the lot must agree exactly. What that pins: every enqueued
// parker is woken or cancelled exactly once, a token channel never
// holds more than one token (a second send would block the unparker —
// the fuzz run would hang), unparkOne/unparkN report exactly what they
// woke, most recent first, and the spinner count returns to zero.
//
// Op byte: low three bits select the call, the rest is its argument
// (parker index, n, or the spinner cap).
func FuzzLotProtocol(f *testing.F) {
	f.Add([]byte{0, 8, 16, 3, 20, 18, 10, 2})       // three park, unparkOne, unparkN(2), three receive
	f.Add([]byte{0, 1, 0, 5, 1, 0})                 // park, cancel, park, unparkAll, cancel eats the token, park
	f.Add([]byte{0, 8, 5, 0, 8, 20, 2, 10})         // woken parkers re-enqueue over a stale token
	f.Add([]byte{14, 14, 14, 7, 7, 7, 7, 6})        // spinner cap 1: second beginSpin refused
	f.Add([]byte{0, 8, 16, 24, 32, 28, 12, 5, 5})   // unparkN(3) of five, unparkN(1), unparkAll twice
	f.Add([]byte{0, 22, 8, 1, 3, 3, 9, 7, 2, 0, 1}) // spin while enqueued, woken mid-spin, cancel after
	f.Fuzz(func(t *testing.T, ops []byte) {
		const (
			idle = iota
			queued
			woken // popped by an unparker; its token sits in the channel
		)
		const nParkers = 6
		var l lot
		parkers := make([]*parker, nParkers)
		state := make([]int, nParkers)
		for i := range parkers {
			parkers[i] = &parker{token: make(chan struct{}, 1)}
		}
		var model []int // queued parker indices, oldest first
		var spin int64
		enqueues, resolved := 0, 0

		wakeTail := func(n int) int {
			if n > len(model) {
				n = len(model)
			}
			for _, i := range model[len(model)-n:] {
				state[i] = woken
			}
			model = model[:len(model)-n]
			resolved += n
			return n
		}
		check := func(step int, what string) {
			t.Helper()
			if len(l.parked) != len(model) {
				t.Fatalf("op %d (%s): lot holds %d parkers, model %d", step, what, len(l.parked), len(model))
			}
			for k, i := range model {
				if l.parked[k] != parkers[i] {
					t.Fatalf("op %d (%s): lot slot %d is not parker %d", step, what, k, i)
				}
			}
			for i, p := range parkers {
				if p.queued != (state[i] == queued) {
					t.Fatalf("op %d (%s): parker %d queued = %v in state %d", step, what, i, p.queued, state[i])
				}
				if got, want := len(p.token), b2i(state[i] == woken); int64(got) != want {
					t.Fatalf("op %d (%s): parker %d holds %d tokens in state %d", step, what, i, got, state[i])
				}
				if state[i] == woken && p.woken.IsZero() {
					t.Fatalf("op %d (%s): parker %d was sent a token without a wake stamp", step, what, i)
				}
			}
			if got := l.spinners.Load(); got != spin {
				t.Fatalf("op %d (%s): spinners = %d, model %d", step, what, got, spin)
			}
		}

		for step, b := range ops {
			arg := int(b >> 3)
			i := arg % nParkers
			what := ""
			switch b & 7 {
			case 0:
				what = "enqueue"
				if state[i] == queued {
					continue // an owner enqueues once per cycle
				}
				l.enqueue(parkers[i]) // a woken parker's stale token is dropped here
				state[i] = queued
				model = append(model, i)
				enqueues++
			case 1:
				what = "cancel"
				switch state[i] {
				case queued:
					l.cancel(parkers[i])
					for k, m := range model {
						if m == i {
							model = append(model[:k], model[k+1:]...)
							break
						}
					}
					resolved++
				case woken:
					l.cancel(parkers[i]) // an unparker got there first: eats the token
				default:
					continue
				}
				state[i] = idle
			case 2:
				what = "receive"
				if state[i] != woken {
					continue // would block: the owner is still parked
				}
				<-parkers[i].token
				state[i] = idle
			case 3:
				what = "unparkOne"
				if got, want := l.unparkOne(), wakeTail(1) == 1; got != want {
					t.Fatalf("op %d: unparkOne = %v, want %v", step, got, want)
				}
			case 4:
				what = "unparkN"
				n := arg % 5
				if got, want := l.unparkN(n), wakeTail(n); got != want {
					t.Fatalf("op %d: unparkN(%d) = %d, want %d", step, n, got, want)
				}
			case 5:
				what = "unparkAll"
				l.unparkAll()
				wakeTail(len(model))
			case 6:
				what = "beginSpin"
				max := int64(arg % 4)
				want := spin < max
				if got := l.beginSpin(max); got != want {
					t.Fatalf("op %d: beginSpin(%d) = %v with %d spinning", step, max, got, spin)
				}
				if want {
					spin++
				}
			case 7:
				what = "endSpin"
				if spin == 0 {
					continue
				}
				l.endSpin()
				spin--
			}
			check(step, what)
		}

		// Shut down the way a pool does: wake everyone, every owner
		// takes its token, every spinner leaves.
		l.unparkAll()
		wakeTail(len(model))
		for i, p := range parkers {
			if state[i] == woken {
				<-p.token
				state[i] = idle
			}
		}
		for ; spin > 0; spin-- {
			l.endSpin()
		}
		check(len(ops), "shutdown")
		if enqueues != resolved {
			t.Fatalf("%d enqueues, %d of them woken or cancelled", enqueues, resolved)
		}
	})
}
