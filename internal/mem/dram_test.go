package mem

import (
	"math"
	"math/rand"
	"testing"

	"memthrottle/internal/sim"
)

// detCfg returns the default config with all stochastic elements
// disabled, for exact-latency tests.
func detCfg() Config {
	cfg := DDR3_1066()
	cfg.FrontJitter = 0
	cfg.ThinkTime = 0
	return cfg
}

const eps = 1e-13 // float tolerance, well below 1 ps

func timeEq(a, b sim.Time) bool { return math.Abs(float64(a-b)) <= eps }

func TestConfigValidate(t *testing.T) {
	if err := DDR3_1066().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.RanksPerChannel = 0 },
		func(c *Config) { c.BanksPerRank = 0 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.RowBytes = 32 },
		func(c *Config) { c.RowBytes = 100 }, // not a multiple of 64
		func(c *Config) { c.TCAS = 0 },
		func(c *Config) { c.TBurst = -1 },
		func(c *Config) { c.TFrontEnd = -1 },
		func(c *Config) { c.FrontJitter = 1.5 },
		func(c *Config) { c.FrontJitter = -0.1 },
		func(c *Config) { c.HitStreakCap = 0 },
		func(c *Config) { c.MaxOutstanding = 0 },
		func(c *Config) { c.ThinkTime = -1 },
	}
	for i, mutate := range bad {
		c := DDR3_1066()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config passed Validate", i)
		}
	}
}

func TestBandwidth(t *testing.T) {
	cfg := DDR3_1066()
	bw := cfg.BandwidthPerChannel()
	// 64 B / 7.5 ns = 8.53 GB/s, the paper's 8.5 GB/s channel.
	if bw < 8.0e9 || bw > 9.0e9 {
		t.Errorf("bandwidth = %.2g B/s, want ~8.5e9", bw)
	}
	if got := cfg.WithChannels(2).TotalBandwidth(); math.Abs(got-2*bw) > 1 {
		t.Errorf("2-channel bandwidth = %g, want %g", got, 2*bw)
	}
}

func TestLocateDisjointAndStable(t *testing.T) {
	eng := sim.New()
	s := NewSystem(eng, DDR3_1066())
	ch1, b1, r1 := s.locate(0)
	ch2, b2, r2 := s.locate(0)
	if ch1 != ch2 || b1 != b2 || r1 != r2 {
		t.Fatal("locate is not deterministic")
	}
	// Sequential lines within one row map to the same bank and row.
	cfg := s.Config()
	_, b0, r0 := s.locate(0)
	_, bLast, rLast := s.locate(uint64(cfg.RowBytes - cfg.LineBytes))
	if b0 != bLast || r0 != rLast {
		t.Errorf("lines within a row split: bank %d/%d row %d/%d", b0, bLast, r0, rLast)
	}
	// The hashed layout must spread consecutive rows widely over the
	// bank set: 64 rows should touch most of the 16 banks.
	banks := map[int]bool{}
	for i := 0; i < 64; i++ {
		_, b, _ := s.locate(uint64(i * cfg.RowBytes))
		banks[b] = true
	}
	if len(banks) < 8 {
		t.Errorf("64 consecutive rows hit only %d banks", len(banks))
	}
}

// TestLocateShiftMatchesDivision holds the shift-and-mask path to the
// division formula it replaces, on random addresses, and checks that a
// geometry with any non-power-of-two dimension is routed to the
// division path instead.
func TestLocateShiftMatchesDivision(t *testing.T) {
	byDivision := func(cfg Config, addr uint64) (int, int, int64) {
		line := addr / uint64(cfg.LineBytes)
		rowGlobal := line / uint64(cfg.Channels) / uint64(cfg.RowBytes/cfg.LineBytes)
		nBanks := uint64(cfg.RanksPerChannel * cfg.BanksPerRank)
		return int(line % uint64(cfg.Channels)), int((rowGlobal * 0x9E3779B97F4A7C15 >> 32) % nBanks), int64(rowGlobal)
	}
	geometry := func(channels, ranks, banks, lineBytes, linesPerRow int) Config {
		cfg := DDR3_1066()
		cfg.Channels, cfg.RanksPerChannel, cfg.BanksPerRank = channels, ranks, banks
		cfg.LineBytes, cfg.RowBytes = lineBytes, lineBytes*linesPerRow
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		pow2 bool
	}{
		{"ddr3_1066", DDR3_1066(), true},
		{"2 channels", DDR3_1066().WithChannels(2), true},
		{"4ch 32 banks 128B lines", geometry(4, 4, 8, 128, 256), true},
		{"1 bank 1 line per row", geometry(1, 1, 1, 64, 1), true},
		{"3ch 12 banks 96 lines per row", geometry(3, 2, 6, 64, 96), false},
		{"3 channels only", geometry(3, 2, 8, 64, 128), false},
		{"12 banks only", geometry(1, 2, 6, 64, 128), false},
		{"96 lines per row only", geometry(1, 2, 8, 64, 96), false},
		{"48B lines only", geometry(1, 2, 8, 48, 128), false},
	} {
		s := NewSystem(sim.New(), tc.cfg)
		if s.pow2 != tc.pow2 {
			t.Errorf("%s: shift path chosen = %v, want %v", tc.name, s.pow2, tc.pow2)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 100_000; i++ {
			addr := rng.Uint64() >> uint(rng.Intn(40)) // all magnitudes, unaligned
			ch, bk, row := s.locate(addr)
			wch, wbk, wrow := byDivision(tc.cfg, addr)
			if ch != wch || bk != wbk || row != wrow {
				t.Fatalf("%s: locate(%#x) = (%d, %d, %d), division gives (%d, %d, %d)", tc.name, addr, ch, bk, row, wch, wbk, wrow)
			}
		}
	}
}

// conflictAddr returns an address in a different row of the same bank
// (and same channel) as base.
func conflictAddr(t *testing.T, s *System, base uint64) uint64 {
	t.Helper()
	cfg := s.Config()
	chB, bkB, rowB := s.locate(base)
	for i := 1; i < 4096; i++ {
		a := base + uint64(i*cfg.RowBytes*cfg.Channels)
		ch, bk, row := s.locate(a)
		if ch == chB && bk == bkB && row != rowB {
			return a
		}
	}
	t.Fatal("no conflicting row found")
	return 0
}

// otherBankAddr returns an address on the same channel, different bank.
func otherBankAddr(t *testing.T, s *System, base uint64) uint64 {
	t.Helper()
	cfg := s.Config()
	chB, bkB, _ := s.locate(base)
	for i := 1; i < 4096; i++ {
		a := base + uint64(i*cfg.RowBytes*cfg.Channels)
		ch, bk, _ := s.locate(a)
		if ch == chB && bk != bkB {
			return a
		}
	}
	t.Fatal("no other bank found")
	return 0
}

func TestLocateChannelInterleave(t *testing.T) {
	eng := sim.New()
	cfg := DDR3_1066().WithChannels(2)
	s := NewSystem(eng, cfg)
	ch0, _, _ := s.locate(0)
	ch1, _, _ := s.locate(uint64(cfg.LineBytes))
	if ch0 == ch1 {
		t.Error("adjacent lines did not interleave across channels")
	}
}

// access requests a line through AccessFn with a closure: done (may be
// nil) fires at the completion instant.
func access(s *System, addr uint64, done func()) {
	if done == nil {
		s.AccessFn(addr, nil, nil)
		return
	}
	s.AccessFn(addr, func(any) { done() }, nil)
}

func TestColdAccessLatency(t *testing.T) {
	cfg := detCfg()
	eng := sim.New()
	s := NewSystem(eng, cfg)
	var done sim.Time
	access(s, 0, func() { done = eng.Now() })
	eng.Run()
	want := cfg.TFrontEnd + cfg.TRCD + cfg.TCAS + cfg.TBurst
	if !timeEq(done, want) {
		t.Errorf("cold access completed at %v, want %v", done, want)
	}
	st := s.Stats()
	if st.Requests != 1 || st.RowMiss != 1 || st.RowHits != 0 {
		t.Errorf("stats = %+v, want 1 request, 1 miss", st)
	}
}

func TestRowHitLatency(t *testing.T) {
	cfg := detCfg()
	eng := sim.New()
	s := NewSystem(eng, cfg)
	var first, second sim.Time
	access(s, 0, func() { first = eng.Now() })
	access(s, 64, func() { second = eng.Now() }) // same row
	eng.Run()
	// The second request arrives with the first in service; it is a
	// row hit served when the bank frees (dataReady of the first),
	// then queues behind the first burst on the bus.
	firstWant := cfg.TFrontEnd + cfg.TRCD + cfg.TCAS + cfg.TBurst
	if !timeEq(first, firstWant) {
		t.Errorf("first access at %v, want %v", first, firstWant)
	}
	if second <= first {
		t.Errorf("row hit completed at %v, not after first %v", second, first)
	}
	if d := second - first; d > cfg.TCAS+cfg.TBurst+eps {
		t.Errorf("row hit took %v after first, want <= tCAS+tBurst", d)
	}
	st := s.Stats()
	if st.RowHits != 1 || st.RowMiss != 1 {
		t.Errorf("stats = %+v, want 1 hit 1 miss", st)
	}
	if st.BusBytes != uint64(2*cfg.LineBytes) {
		t.Errorf("BusBytes = %d, want %d", st.BusBytes, 2*cfg.LineBytes)
	}
}

func TestConflictLatency(t *testing.T) {
	cfg := detCfg()
	eng := sim.New()
	s := NewSystem(eng, cfg)
	addrB := conflictAddr(t, s, 0)
	var first, second sim.Time
	access(s, 0, func() { first = eng.Now() })
	access(s, addrB, func() { second = eng.Now() })
	eng.Run()
	// The conflicting request waits for the first activate to finish
	// (bank busy until the burst completes), then pays the full
	// precharge + activate + CAS penalty.
	wantFirst := cfg.TFrontEnd + cfg.TRCD + cfg.TCAS + cfg.TBurst
	wantSecond := wantFirst + cfg.TRP + cfg.TRCD + cfg.TCAS + cfg.TBurst
	if !timeEq(first, wantFirst) {
		t.Errorf("first completed at %v, want %v", first, wantFirst)
	}
	if !timeEq(second, wantSecond) {
		t.Errorf("conflict completed at %v, want %v", second, wantSecond)
	}
}

// TestArrivalAtReleaseInstant: with no front end, a completion callback
// that issues to the same bank arrives at the very instant the bank
// frees (an activate frees the bank when its burst completes), after
// the release's position. The bank must serve it at once, as the
// release event that fired just before the completion once did.
func TestArrivalAtReleaseInstant(t *testing.T) {
	cfg := detCfg()
	cfg.TFrontEnd = 0
	eng := sim.New()
	s := NewSystem(eng, cfg)
	var first, second sim.Time
	access(s, 0, func() {
		first = eng.Now()
		access(s, 64, func() { second = eng.Now() }) // same row
	})
	eng.Run()
	if want := first + cfg.TCAS + cfg.TBurst; !timeEq(second, want) {
		t.Errorf("row hit issued at the release completed at %v, want %v", second, want)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := detCfg()

	eng := sim.New()
	s := NewSystem(eng, cfg)
	var hitDone sim.Time
	access(s, 0, nil)
	access(s, 64, func() { hitDone = eng.Now() })
	eng.Run()

	eng2 := sim.New()
	s2 := NewSystem(eng2, cfg)
	var confDone sim.Time
	access(s2, 0, nil)
	access(s2, conflictAddr(t, s2, 0), func() { confDone = eng2.Now() })
	eng2.Run()

	if hitDone >= confDone {
		t.Errorf("row hit (%v) not faster than conflict (%v)", hitDone, confDone)
	}
}

func TestBusSerialisation(t *testing.T) {
	// Two simultaneous accesses to different banks on one channel
	// must serialise on the data bus: completions >= tBurst apart.
	cfg := detCfg()
	eng := sim.New()
	s := NewSystem(eng, cfg)
	var a, b sim.Time
	access(s, 0, func() { a = eng.Now() })
	access(s, otherBankAddr(t, s, 0), func() { b = eng.Now() })
	eng.Run()
	if d := b - a; d < cfg.TBurst-eps {
		t.Errorf("bus overlap: completions %v apart, want >= %v", d, cfg.TBurst)
	}
}

func TestFRFCFSHitFirst(t *testing.T) {
	// Queue order at a bank: [hitA(row0), conflictB(row1), hitC(row0)].
	// FR-FCFS must serve C before B even though B is older.
	cfg := detCfg()
	eng := sim.New()
	s := NewSystem(eng, cfg)
	rowConflict := conflictAddr(t, s, 0)
	var order []string
	access(s, 0, func() { order = append(order, "A") })
	access(s, rowConflict, func() { order = append(order, "B") })
	access(s, 64, func() { order = append(order, "C") }) // row 0 again
	eng.Run()
	if len(order) != 3 || order[0] != "A" || order[1] != "C" || order[2] != "B" {
		t.Errorf("service order = %v, want [A C B]", order)
	}
}

func TestFRFCFSStreakCapPreventsStarvation(t *testing.T) {
	// With a continuous supply of row hits, an older conflicting
	// request must still be served within HitStreakCap services.
	cfg := detCfg()
	cfg.HitStreakCap = 2
	eng := sim.New()
	s := NewSystem(eng, cfg)
	rowConflict := conflictAddr(t, s, 0)
	var conflictAt sim.Time
	var hitsBefore int
	access(s, 0, nil) // opens row 0
	access(s, rowConflict, func() { conflictAt = eng.Now() })
	for i := 1; i <= 8; i++ {
		access(s, uint64(i*cfg.LineBytes), func() {
			if conflictAt == 0 {
				hitsBefore++
			}
		})
	}
	eng.Run()
	if conflictAt == 0 {
		t.Fatal("conflicting request starved")
	}
	if hitsBefore > cfg.HitStreakCap {
		t.Errorf("%d hits bypassed the conflict, cap is %d", hitsBefore, cfg.HitStreakCap)
	}
}

// TestPickMatchesScan compares pick with the FR-FCFS rule written out
// as a plain scan, over random bank states: the request chosen and the
// hit streak left behind. Queues of one request — which pick answers
// without scanning — come up as hits and as non-hits, with the streak
// at, below and above the cap.
func TestPickMatchesScan(t *testing.T) {
	cfg := detCfg()
	s := NewSystem(sim.New(), cfg)
	scan := func(bk *bank) (seq uint64, streak int) {
		oldest, hit := -1, -1
		for i := 0; i < bk.queue.Len(); i++ {
			r := bk.queue.at(i)
			if oldest < 0 || r.seq < bk.queue.at(oldest).seq {
				oldest = i
			}
			if r.row == bk.openRow && (hit < 0 || r.seq < bk.queue.at(hit).seq) {
				hit = i
			}
		}
		switch {
		case hit < 0 || hit == oldest:
			return bk.queue.at(oldest).seq, 0
		case bk.streak < cfg.HitStreakCap:
			return bk.queue.at(hit).seq, bk.streak + 1
		default:
			return bk.queue.at(oldest).seq, 0
		}
	}
	rng := rand.New(rand.NewSource(1))
	lone := map[bool]int{}
	for trial := 0; trial < 20_000; trial++ {
		bk := &bank{openRow: int64(rng.Intn(3)) - 1, streak: rng.Intn(cfg.HitStreakCap + 2)}
		n := 1 + rng.Intn(5)
		for _, seq := range rng.Perm(n) {
			bk.queue.push(&request{seq: uint64(seq), row: int64(rng.Intn(2))})
		}
		if n == 1 {
			lone[bk.queue.at(0).row == bk.openRow]++
		}
		wantSeq, wantStreak := scan(bk)
		got := s.pick(bk)
		if got.seq != wantSeq || bk.streak != wantStreak || bk.queue.Len() != n-1 {
			t.Fatalf("trial %d (n=%d): picked seq %d, streak %d, %d left; scan says seq %d, streak %d, %d left",
				trial, n, got.seq, bk.streak, bk.queue.Len(), wantSeq, wantStreak, n-1)
		}
	}
	if lone[true] == 0 || lone[false] == 0 {
		t.Fatalf("one-request queues: %d hits, %d non-hits; want both", lone[true], lone[false])
	}
}

// TestDRAMAccessSteadyStateZeroAlloc pins the pooled request path:
// once the request pool, event free list and bank rings are warm, an
// AccessFn batch plus its full simulation drains at 0 allocs/op.
func TestDRAMAccessSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.New()
	s := NewSystem(eng, DDR3_1066())
	var addr uint64
	var completed int
	doneFn := func(any) { completed++ }
	batch := func() {
		for i := 0; i < 512; i++ {
			s.AccessFn(addr, doneFn, nil)
			addr += 64
		}
		eng.Run()
	}
	batch() // warm every pool to the batch's high-water mark
	batch()
	if avg := testing.AllocsPerRun(50, batch); avg != 0 {
		t.Fatalf("steady-state AccessFn batch allocates %.2f allocs/op, want 0", avg)
	}
	if completed == 0 {
		t.Fatal("completion callbacks never fired")
	}
}

// TestStreamSteadyStateZeroAlloc pins the pre-bound stream pump: after
// one warm-up stream, running another full stream on the same system
// performs no steady-state allocations beyond its own Stream header.
func TestStreamSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.New()
	s := NewSystem(eng, DDR3_1066())
	var base uint64
	run := func() {
		s.StartStream(base, 256, nil)
		base += 256 * 64
		eng.Run()
	}
	run()
	run()
	// One allocation is the *Stream itself (per stream, not per line).
	if avg := testing.AllocsPerRun(50, run); avg > 1 {
		t.Fatalf("steady-state stream run allocates %.2f allocs/op, want <= 1 (the Stream header)", avg)
	}
}

// TestReqRing exercises the ring buffer through wrap-around, interior
// swap-removal and regrowth.
func TestReqRing(t *testing.T) {
	var r reqRing
	mk := func(seq uint64) *request { return &request{seq: seq} }
	// Fill past the initial capacity to force one regrow.
	for i := 0; i < 12; i++ {
		r.push(mk(uint64(i)))
	}
	if r.Len() != 12 {
		t.Fatalf("Len = %d, want 12", r.Len())
	}
	// Pop heads to move the ring's head pointer, then refill to wrap.
	for i := 0; i < 5; i++ {
		if got := r.at(0).seq; got != uint64(i) {
			t.Fatalf("head seq = %d, want %d", got, i)
		}
		r.removeAt(0)
	}
	for i := 12; i < 16; i++ {
		r.push(mk(uint64(i)))
	}
	// The ring now holds seqs 5..15 in some order; interior removal
	// must preserve the remaining set.
	want := map[uint64]bool{}
	for i := 5; i < 16; i++ {
		want[uint64(i)] = true
	}
	for victim := 0; r.Len() > 0; victim++ {
		idx := victim % r.Len()
		seq := r.at(idx).seq
		if !want[seq] {
			t.Fatalf("unexpected or duplicate seq %d", seq)
		}
		delete(want, seq)
		r.removeAt(idx)
	}
	if len(want) != 0 {
		t.Fatalf("requests lost by ring removal: %v", want)
	}
}

func TestStreamCompletes(t *testing.T) {
	cfg := DDR3_1066()
	eng := sim.New()
	s := NewSystem(eng, cfg)
	var finished sim.Time
	const lines = 100
	s.StartStream(0, lines, func(f sim.Time) { finished = f })
	eng.Run()
	if finished <= 0 {
		t.Fatal("stream never finished")
	}
	if got := s.Stats().Requests; got != lines {
		t.Fatalf("requests = %d, want %d", got, lines)
	}
	// Lower bound: the bus alone needs lines*tBurst.
	if minT := sim.Time(lines) * cfg.TBurst; finished < minT {
		t.Errorf("stream finished at %v, below bus-bound floor %v", finished, minT)
	}
}

func TestStreamPanicsOnZeroLines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0-line stream")
		}
	}()
	eng := sim.New()
	s := NewSystem(eng, DDR3_1066())
	s.StartStream(0, 0, nil)
}

func TestStreamMorePipeliningIsFaster(t *testing.T) {
	run := func(mlp int) sim.Time {
		cfg := detCfg()
		cfg.MaxOutstanding = mlp
		eng := sim.New()
		s := NewSystem(eng, cfg)
		var end sim.Time
		s.StartStream(0, 256, func(f sim.Time) { end = f })
		eng.Run()
		return end
	}
	serial, pipelined := run(1), run(8)
	if pipelined >= serial {
		t.Errorf("MLP=8 stream (%v) not faster than MLP=1 (%v)", pipelined, serial)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() sim.Time {
		cfg := DDR3_1066()
		eng := sim.New()
		s := NewSystem(eng, cfg)
		var end sim.Time
		for w := 0; w < 3; w++ {
			s.StartStream(uint64(w*1<<20), 512, func(f sim.Time) {
				if f > end {
					end = f
				}
			})
		}
		eng.Run()
		return end
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different results: %v vs %v", a, b)
	}
}

func TestRefreshValidation(t *testing.T) {
	cfg := DDR3_1066().WithRefresh()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.TRFC = bad.TREFI // refresh may not swallow the whole interval
	if bad.Validate() == nil {
		t.Error("TRFC >= TREFI accepted")
	}
	bad2 := cfg
	bad2.TREFI = -1
	if bad2.Validate() == nil {
		t.Error("negative TREFI accepted")
	}
}

func TestRefreshStallsAndClosesRows(t *testing.T) {
	cfg := detCfg().WithRefresh()
	eng := sim.New()
	s := NewSystem(eng, cfg)
	access(s, 0, nil) // opens row 0 long before the first refresh
	eng.Run()

	// Issue a same-row access that arrives mid-refresh: it must stall
	// to the end of the window and pay a full activation (the refresh
	// closed the row), despite looking like a row hit at issue time.
	var second sim.Time
	issueAt := cfg.TREFI + cfg.TRFC/2 - cfg.TFrontEnd
	eng.AtFunc(issueAt, func(any) {
		access(s, 64, func() { second = eng.Now() })
	}, nil)
	eng.Run()
	refreshEnd := cfg.TREFI + cfg.TRFC
	want := refreshEnd + cfg.TRCD + cfg.TCAS + cfg.TBurst
	if !timeEq(second, want) {
		t.Errorf("mid-refresh access completed at %v, want %v", second, want)
	}
	if s.Stats().Refreshes == 0 {
		t.Error("refresh epoch not recorded")
	}
}

func TestRefreshSlowsStreams(t *testing.T) {
	run := func(cfg Config) sim.Time {
		eng := sim.New()
		s := NewSystem(eng, cfg)
		var end sim.Time
		s.StartStream(0, 4096, func(f sim.Time) { end = f })
		eng.Run()
		return end
	}
	base := run(detCfg())
	refreshed := run(detCfg().WithRefresh())
	if refreshed <= base {
		t.Errorf("refresh did not slow the stream: %v vs %v", refreshed, base)
	}
	// tRFC/tREFI ~= 2%: the slowdown must stay modest.
	if float64(refreshed)/float64(base) > 1.08 {
		t.Errorf("refresh slowdown %.3f implausibly large", float64(refreshed)/float64(base))
	}
}

func TestRowHitRateAndUtilization(t *testing.T) {
	cfg := detCfg()
	eng := sim.New()
	s := NewSystem(eng, cfg)
	if s.RowHitRate() != 0 || s.BusUtilization() != 0 {
		t.Error("fresh system reports nonzero metrics")
	}
	s.StartStream(0, 1024, nil)
	eng.Run()
	// A sequential stream is almost all row hits.
	if hr := s.RowHitRate(); hr < 0.95 {
		t.Errorf("sequential stream row-hit rate %.3f, want >= 0.95", hr)
	}
	if u := s.BusUtilization(); u <= 0 || u > 1 {
		t.Errorf("bus utilization %.3f out of range", u)
	}
}

func TestContentionSlowsTasks(t *testing.T) {
	// The core premise: mean task time grows with the number of
	// concurrent streams.
	cfg := DDR3_1066()
	var prev sim.Time
	for k := 1; k <= 4; k++ {
		tm, err := MeasureTaskTime(cfg, k, 4, 512*1024)
		if err != nil {
			t.Fatal(err)
		}
		if k > 1 && tm <= prev {
			t.Errorf("Tm_%d = %v not greater than Tm_%d = %v", k, tm, k-1, prev)
		}
		prev = tm
	}
}

func TestMeasureTaskTimeErrors(t *testing.T) {
	cfg := DDR3_1066()
	if _, err := MeasureTaskTime(cfg, 0, 4, 1024); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := MeasureTaskTime(cfg, 1, 1, 1024); err == nil {
		t.Error("tasksPerStream=1 accepted")
	}
	if _, err := MeasureTaskTime(cfg, 1, 4, 1); err == nil {
		t.Error("sub-line footprint accepted")
	}
	bad := cfg
	bad.Channels = 0
	if _, err := MeasureTaskTime(bad, 1, 4, 1024); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCalibrationLinearLaw(t *testing.T) {
	// The emergent contention law must be close to linear in k —
	// this is the empirical basis for the paper's analytical model.
	cal, err := Calibrate(DDR3_1066(), 4, 6, 512*1024)
	if err != nil {
		t.Fatal(err)
	}
	if cal.R2 < 0.90 {
		t.Errorf("contention law fit R2 = %.3f, want >= 0.90 (Tm=%v)", cal.R2, cal.Tm)
	}
	if cal.Tml <= 0 || cal.Tql <= 0 {
		t.Errorf("fit Tml = %v, Tql = %v, want both positive", cal.Tml, cal.Tql)
	}
	// Fitted prediction should track measurements reasonably.
	for k := 1; k <= 4; k++ {
		got := float64(cal.TmK(k))
		want := float64(cal.Tm[k-1])
		if rel := math.Abs(got-want) / want; rel > 0.25 {
			t.Errorf("TmK(%d) = %v vs measured %v (rel err %.1f%%)", k, cal.TmK(k), cal.Tm[k-1], 100*rel)
		}
	}
}

func TestCalibrationContentionRatioShape(t *testing.T) {
	// Tm_4/Tm_1 on the paper's machine implies a ratio well above 1
	// but far below the pure bandwidth bound of 4x — the regime where
	// throttling pays off. Assert we land in a plausible band.
	cal, err := Calibrate(DDR3_1066(), 4, 6, 512*1024)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(cal.Tm[3]) / float64(cal.Tm[0])
	if ratio < 1.3 || ratio > 2.6 {
		t.Errorf("Tm4/Tm1 = %.2f, want within [1.3, 2.6]", ratio)
	}
}

func TestCalibrationMoreChannelsLessContention(t *testing.T) {
	one, err := Calibrate(DDR3_1066(), 4, 6, 512*1024)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Calibrate(DDR3_1066().WithChannels(2), 4, 6, 512*1024)
	if err != nil {
		t.Fatal(err)
	}
	if two.Tql >= one.Tql {
		t.Errorf("2-channel Tql = %v not below 1-channel %v", two.Tql, one.Tql)
	}
	r1 := float64(one.Tm[3]) / float64(one.Tm[0])
	r2 := float64(two.Tm[3]) / float64(two.Tm[0])
	if r2 >= r1 {
		t.Errorf("2-channel contention ratio %.2f not below 1-channel %.2f", r2, r1)
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(DDR3_1066(), 1, 4, 1024); err == nil {
		t.Error("maxK=1 accepted")
	}
}

func TestPerByteScaling(t *testing.T) {
	cal, err := Calibrate(DDR3_1066(), 4, 6, 512*1024)
	if err != nil {
		t.Fatal(err)
	}
	tml, tql := cal.PerByte()
	if math.Abs(tml*512*1024-float64(cal.Tml)) > 1e-15 {
		t.Error("PerByte tml does not invert to Tml")
	}
	if math.Abs(tql*512*1024-float64(cal.Tql)) > 1e-15 {
		t.Error("PerByte tql does not invert to Tql")
	}
}
