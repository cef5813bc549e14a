// Package mem implements a request-level DRAM memory-system model:
// channels, ranks, banks, open-page row buffers with FR-FCFS style
// hit-first scheduling, and a shared data bus per channel. It is the
// ground-truth substrate of the reproduction: the contention law the
// paper assumes (Tm_k = Tml + k*Tql, §IV-C) is not hard-coded anywhere
// — it emerges from concurrent request streams queueing on banks and
// buses here, and calibration (calibrate.go) fits (Tml, Tql) from
// measurements to parameterise the cheaper fluid model used in
// full-program simulations.
package mem

import (
	"fmt"
	"math/bits"
	"math/rand"

	"memthrottle/internal/sim"
)

// Config describes the memory-system geometry and timing. The defaults
// approximate the paper's platform: DDR3-1066 SDRAM, 64-bit channel,
// 8.5 GB/s per channel, one channel with two ranks (§V), 8 KB rows.
type Config struct {
	Channels        int // independent channels (1 = paper's 1-DIMM base)
	RanksPerChannel int
	BanksPerRank    int
	RowBytes        int // row-buffer (page) size per bank
	LineBytes       int // transfer granularity (cache line)

	TCAS      sim.Time // column access (row already open)
	TRCD      sim.Time // row activate
	TRP       sim.Time // precharge on a row conflict
	TBurst    sim.Time // data-bus occupancy per line transfer
	TFrontEnd sim.Time // uncontended on-chip path + controller latency per request

	// FrontJitter is the relative half-width of per-request front-end
	// latency variation (cache-hierarchy and interconnect
	// variability): each request's TFrontEnd is scaled uniformly in
	// [1-FrontJitter, 1+FrontJitter]. Without it, closed-loop streams
	// phase-lock into artificial conflict-free schedules that no real
	// machine exhibits.
	FrontJitter float64

	// HitStreakCap bounds FR-FCFS reordering: at most this many row
	// hits may bypass an older waiting request before the scheduler
	// falls back to oldest-first, preventing starvation.
	HitStreakCap int

	// MaxOutstanding is the per-stream miss-level parallelism: how
	// many line requests a single memory task keeps in flight
	// (line-fill buffers feeding _mm_prefetch in the paper's tasks).
	MaxOutstanding int

	// ThinkTime is the mean core-side gap between a line completing
	// and the stream issuing its next request: the store/index
	// instructions of the gather loop (Fig. 12). Each gap is jittered
	// uniformly in [0.5, 1.5]x by a seeded RNG.
	ThinkTime sim.Time

	// TREFI/TRFC model periodic DRAM refresh: every TREFI the whole
	// channel stalls for TRFC. TREFI = 0 disables refresh (the
	// default — refresh adds ~2% uniform latency, which the
	// calibration would simply absorb into Tml; enable it for
	// refresh-sensitivity studies).
	TREFI sim.Time
	TRFC  sim.Time

	// Seed drives all jitter. Same seed, same run.
	Seed int64
}

// DDR3_1066 returns the base configuration used throughout the
// evaluation: a single 8.5 GB/s channel of DDR3 CL7 timing. A 64 B
// line at 8.5 GB/s occupies the bus ~7.5 ns. TFrontEnd is the
// uncontended core-to-controller round trip (L3 miss path on Nehalem,
// ~45 ns), and MaxOutstanding = 4 models the line-fill parallelism a
// single prefetching task sustains. Together they put one stream at
// just under half of channel bandwidth — as on the real i7-860 — so
// four unthrottled streams queue against each other with Tm4/Tm1 of
// roughly 1.8-2, the regime where the paper measures up to ~1.2x
// throttling speedup (Fig. 13).
func DDR3_1066() Config {
	return Config{
		Channels:        1,
		RanksPerChannel: 2,
		BanksPerRank:    8,
		RowBytes:        8192,
		LineBytes:       64,
		TCAS:            13 * sim.Nanosecond,
		TRCD:            13 * sim.Nanosecond,
		TRP:             13 * sim.Nanosecond,
		TBurst:          7.5 * sim.Nanosecond,
		TFrontEnd:       45 * sim.Nanosecond,
		FrontJitter:     0.3,
		HitStreakCap:    4,
		MaxOutstanding:  4,
		ThinkTime:       4 * sim.Nanosecond,
		Seed:            1,
	}
}

// WithChannels returns a copy of c with the channel count replaced;
// used for the 2-DIMM scaling study (Fig. 18).
func (c Config) WithChannels(n int) Config {
	c.Channels = n
	return c
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Channels < 1:
		return fmt.Errorf("mem: Channels = %d, want >= 1", c.Channels)
	case c.RanksPerChannel < 1:
		return fmt.Errorf("mem: RanksPerChannel = %d, want >= 1", c.RanksPerChannel)
	case c.BanksPerRank < 1:
		return fmt.Errorf("mem: BanksPerRank = %d, want >= 1", c.BanksPerRank)
	case c.LineBytes < 1:
		return fmt.Errorf("mem: LineBytes = %d, want >= 1", c.LineBytes)
	case c.RowBytes < c.LineBytes:
		return fmt.Errorf("mem: RowBytes = %d smaller than LineBytes = %d", c.RowBytes, c.LineBytes)
	case c.RowBytes%c.LineBytes != 0:
		return fmt.Errorf("mem: RowBytes %d not a multiple of LineBytes %d", c.RowBytes, c.LineBytes)
	case c.TCAS <= 0 || c.TRCD <= 0 || c.TRP <= 0 || c.TBurst <= 0:
		return fmt.Errorf("mem: all DRAM timings must be positive")
	case c.TFrontEnd < 0:
		return fmt.Errorf("mem: TFrontEnd = %v, want >= 0", c.TFrontEnd)
	case c.FrontJitter < 0 || c.FrontJitter > 1:
		return fmt.Errorf("mem: FrontJitter = %g, want within [0, 1]", c.FrontJitter)
	case c.HitStreakCap < 1:
		return fmt.Errorf("mem: HitStreakCap = %d, want >= 1", c.HitStreakCap)
	case c.MaxOutstanding < 1:
		return fmt.Errorf("mem: MaxOutstanding = %d, want >= 1", c.MaxOutstanding)
	case c.ThinkTime < 0:
		return fmt.Errorf("mem: ThinkTime = %v, want >= 0", c.ThinkTime)
	case c.TREFI < 0 || c.TRFC < 0:
		return fmt.Errorf("mem: refresh timings TREFI=%v TRFC=%v, want >= 0", c.TREFI, c.TRFC)
	case c.TREFI > 0 && c.TRFC >= c.TREFI:
		return fmt.Errorf("mem: TRFC %v must be below TREFI %v", c.TRFC, c.TREFI)
	}
	return nil
}

// WithRefresh returns a copy of c with standard DDR3 refresh enabled
// (tREFI = 7.8 us, tRFC = 160 ns).
func (c Config) WithRefresh() Config {
	c.TREFI = 7.8 * sim.Microsecond
	c.TRFC = 160 * sim.Nanosecond
	return c
}

// BandwidthPerChannel reports the peak data bandwidth of one channel
// in bytes per second.
func (c Config) BandwidthPerChannel() float64 {
	return float64(c.LineBytes) / float64(c.TBurst)
}

// TotalBandwidth reports the aggregate peak bandwidth in bytes/sec.
func (c Config) TotalBandwidth() float64 {
	return c.BandwidthPerChannel() * float64(c.Channels)
}

// request is one line access queued at a bank. Requests are pooled on
// the System (see newRequest/releaseReq): the hot path retires millions
// per run and reusing the shells keeps steady-state AccessFn at 0
// allocs/op. The completion callback is pre-bound: doneFn(doneArg).
type request struct {
	row     int64
	seq     uint64 // arrival order, for oldest-first
	doneFn  func(any)
	doneArg any

	// Routing, resolved at issue time so the arrival event needs no
	// per-request closure.
	ch *channel
	bk *bank
}

// reqRing is a reusable ring buffer of queued requests with
// power-of-two capacity. FR-FCFS selection is by sequence number, not
// queue position, so removal swaps the victim with the logical tail —
// O(1) and deterministic, since pick scans every element anyway.
type reqRing struct {
	buf  []*request
	head int
	n    int
}

// Len reports the number of queued requests.
func (r *reqRing) Len() int { return r.n }

func (r *reqRing) push(q *request) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = q
	r.n++
}

func (r *reqRing) at(i int) *request {
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// removeAt deletes the request at logical index i. The head slot pops
// in place; interior victims swap with the tail.
func (r *reqRing) removeAt(i int) {
	mask := len(r.buf) - 1
	tail := (r.head + r.n - 1) & mask
	if i == 0 {
		r.buf[r.head] = nil
		r.head = (r.head + 1) & mask
		r.n--
		return
	}
	pos := (r.head + i) & mask
	r.buf[pos] = r.buf[tail]
	r.buf[tail] = nil
	r.n--
}

// grow doubles (or seeds) capacity, re-linearizing from head.
func (r *reqRing) grow() {
	cap2 := len(r.buf) * 2
	if cap2 == 0 {
		cap2 = 8
	}
	buf := make([]*request, cap2)
	for i := 0; i < r.n; i++ {
		buf[i] = r.at(i)
	}
	r.buf = buf
	r.head = 0
}

// bank is one DRAM bank: an open-page row buffer plus its FR-FCFS
// request queue.
//
// The bank is busy until its release at (freeAt, freeSeq): the instant
// and the sequence number the release event takes when a service
// starts. The event is queued exactly while requests wait: a release
// that would find the queue empty is never scheduled, and the first
// arrival to find it still ahead schedules it under the reserved
// number, so it fires where it always would have.
type bank struct {
	openRow    int64 // -1 = no open row
	freeAt     sim.Time
	freeSeq    uint64
	queue      reqRing
	streak     int // row hits served past an older waiting request
	lastServed sim.Time
	ch         *channel // owner, for the pre-bound release callback
}

// channel groups its banks with the shared data bus.
type channel struct {
	busFreeAt sim.Time
	banks     []bank
}

// System is a request-level DRAM model bound to a simulation engine.
type System struct {
	cfg      Config
	eng      *sim.Engine
	channels []*channel
	rng      *rand.Rand
	arrivals uint64

	// Address mapping (see locate). When line size, channel count,
	// lines per row and banks per channel are all powers of two — every
	// shipped configuration — pow2 is set and locate runs on the shifts
	// and masks; any other geometry takes the division path.
	pow2      bool
	lineShift uint   // log2(LineBytes)
	rowShift  uint   // log2(Channels * lines per row), applied to a line number
	chMask    uint64 // Channels - 1
	bankMask  uint64 // banks per channel - 1

	// freeReqs recycles request shells (see request).
	freeReqs []*request

	// Pre-bound callbacks, created once so the hot path schedules
	// events without allocating closures or method values.
	arriveFn     func(any) // arg: *request
	bankFreeFn   func(any) // arg: *bank
	streamPumpFn func(any) // arg: *Stream
	streamLineFn func(any) // arg: *Stream

	// aggregate counters
	reqs      uint64
	rowHits   uint64
	rowMiss   uint64
	busBytes  uint64
	refreshes uint64 // highest refresh epoch observed by any service
}

// NewSystem builds a DRAM system on the given engine. It panics on an
// invalid configuration: a malformed memory geometry is a programming
// error, not a runtime condition.
func NewSystem(eng *sim.Engine, cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{cfg: cfg, eng: eng, rng: rand.New(rand.NewSource(cfg.Seed))}
	linesPerRow, nBanks := cfg.RowBytes/cfg.LineBytes, cfg.RanksPerChannel*cfg.BanksPerRank
	if isPow2(cfg.LineBytes) && isPow2(cfg.Channels) && isPow2(linesPerRow) && isPow2(nBanks) {
		s.pow2 = true
		s.lineShift = uint(bits.TrailingZeros(uint(cfg.LineBytes)))
		s.rowShift = uint(bits.TrailingZeros(uint(cfg.Channels * linesPerRow)))
		s.chMask = uint64(cfg.Channels - 1)
		s.bankMask = uint64(nBanks - 1)
	}
	for i := 0; i < cfg.Channels; i++ {
		ch := &channel{banks: make([]bank, nBanks)}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
			ch.banks[b].ch = ch
		}
		s.channels = append(s.channels, ch)
	}
	s.arriveFn = s.arrive
	s.bankFreeFn = s.bankFree
	s.streamPumpFn = s.streamPump
	s.streamLineFn = s.streamLineDone
	return s
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Reset returns the system to its just-built state — banks closed and
// idle, buses free, counters zeroed, RNG reseeded from the config —
// while keeping every grown structure: the bank array, the per-bank
// request rings, and the request free list. Any requests still queued
// (there are none after a drained run) are released to the pool. A
// reset system is bit-identical to a fresh NewSystem with the same
// engine state: a measurement on reused allocations reproduces a fresh
// one bit for bit (TestMeasureMatchesParent pins both).
func (s *System) Reset() {
	for _, ch := range s.channels {
		ch.busFreeAt = 0
		for b := range ch.banks {
			bk := &ch.banks[b]
			for bk.queue.Len() > 0 {
				q := bk.queue.at(0)
				bk.queue.removeAt(0)
				s.releaseReq(q)
			}
			bk.openRow = -1
			bk.freeAt, bk.freeSeq = 0, 0
			bk.streak = 0
			bk.lastServed = 0
		}
	}
	s.rng.Seed(s.cfg.Seed)
	s.arrivals = 0
	s.reqs = 0
	s.rowHits = 0
	s.rowMiss = 0
	s.busBytes = 0
	s.refreshes = 0
}

// newRequest takes a request shell off the free list or allocates one.
func (s *System) newRequest() *request {
	if n := len(s.freeReqs); n > 0 {
		q := s.freeReqs[n-1]
		s.freeReqs[n-1] = nil
		s.freeReqs = s.freeReqs[:n-1]
		return q
	}
	return &request{}
}

// releaseReq returns a served request to the pool. Callback state is
// dropped immediately so captures can be collected while the shell
// waits for reuse.
func (s *System) releaseReq(q *request) {
	*q = request{}
	s.freeReqs = append(s.freeReqs, q)
}

// applyRefresh accounts for periodic refresh lazily, without keeping
// the event queue alive: refresh k occupies [k*TREFI, k*TREFI+TRFC)
// for k >= 1 and closes every row. Given a prospective service start
// and the bank's previous service time, it returns the (possibly
// stalled) start and clears the bank's row state if a refresh happened
// in between.
func (s *System) applyRefresh(bk *bank, start sim.Time) sim.Time {
	if s.cfg.TREFI <= 0 {
		return start
	}
	epoch := uint64(start / s.cfg.TREFI)
	if epoch >= 1 {
		if end := sim.Time(epoch)*s.cfg.TREFI + s.cfg.TRFC; start < end {
			start = end
		}
		if uint64(bk.lastServed/s.cfg.TREFI) < epoch {
			bk.openRow = -1
			bk.streak = 0
		}
		if epoch > s.refreshes {
			s.refreshes = epoch
		}
	}
	return start
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Stats reports aggregate request counters.
type Stats struct {
	Requests  uint64
	RowHits   uint64
	RowMiss   uint64
	BusBytes  uint64
	Refreshes uint64
}

// Stats returns a snapshot of the aggregate counters.
func (s *System) Stats() Stats {
	return Stats{
		Requests: s.reqs, RowHits: s.rowHits, RowMiss: s.rowMiss,
		BusBytes: s.busBytes, Refreshes: s.refreshes,
	}
}

// RowHitRate reports the fraction of requests that hit an open row.
func (s *System) RowHitRate() float64 {
	if s.reqs == 0 {
		return 0
	}
	return float64(s.rowHits) / float64(s.reqs)
}

// BusUtilization reports the fraction of elapsed time the (first)
// channel's data bus was transferring, a standard controller metric.
func (s *System) BusUtilization() float64 {
	now := float64(s.eng.Now())
	if now == 0 {
		return 0
	}
	bytesPerChannel := float64(s.busBytes) / float64(s.cfg.Channels)
	return bytesPerChannel / s.cfg.BandwidthPerChannel() / now
}

// locate maps a byte address onto (channel, bank, row). Lines
// interleave across channels; a row's bank comes from a multiplicative
// hash of the row number, mirroring how OS physical-page allocation
// scatters a virtual stream across banks. Sequential streams therefore
// enjoy row-buffer hits within each row but collide on banks with
// other streams at random — the conflict component of the interference
// the paper throttles.
func (s *System) locate(addr uint64) (chIdx, bankIdx int, row int64) {
	const goldenGamma = 0x9E3779B97F4A7C15
	if s.pow2 {
		line := addr >> s.lineShift
		rowGlobal := line >> s.rowShift
		return int(line & s.chMask), int((rowGlobal * goldenGamma >> 32) & s.bankMask), int64(rowGlobal)
	}
	line := addr / uint64(s.cfg.LineBytes)
	chIdx = int(line % uint64(s.cfg.Channels))
	linePerCh := line / uint64(s.cfg.Channels)
	linesPerRow := uint64(s.cfg.RowBytes / s.cfg.LineBytes)
	rowGlobal := linePerCh / linesPerRow
	nBanks := uint64(s.cfg.RanksPerChannel * s.cfg.BanksPerRank)
	bankIdx = int((rowGlobal * goldenGamma >> 32) % nBanks)
	row = int64(rowGlobal)
	return
}

// AccessFn requests one line at addr; doneFn (may be nil) is a
// pre-bound callback invoked with arg at the completion instant. The
// request crosses the jittered front-end path, queues at its bank, is
// scheduled hit-first (FR-FCFS with a starvation cap), and finally
// occupies the channel data bus for TBurst. Combined with the request
// pool it issues at 0 allocs/op.
func (s *System) AccessFn(addr uint64, doneFn func(any), arg any) {
	chIdx, bankIdx, row := s.locate(addr)
	ch := s.channels[chIdx]
	fe := s.cfg.TFrontEnd
	if s.cfg.FrontJitter > 0 {
		fe *= sim.Time(1 + s.cfg.FrontJitter*(2*s.rng.Float64()-1))
	}
	req := s.newRequest()
	req.row = row
	req.seq = s.arrivals
	req.ch = ch
	req.bk = &ch.banks[bankIdx]
	req.doneFn, req.doneArg = doneFn, arg
	s.arrivals++
	s.eng.AfterFunc(fe, s.arriveFn, req)
}

// arrive queues a request at its bank when it clears the front end. A
// bank whose release has passed serves it at once (its queue was empty:
// a waiting request keeps a release queued); at a busy bank the first
// request to wait queues the release under its reserved number. (A
// fresh or Reset bank's (0, 0) has passed by the time any event fires.)
func (s *System) arrive(x any) {
	req := x.(*request)
	bk := req.bk
	bk.queue.push(req)
	switch {
	case s.eng.Passed(bk.freeAt, bk.freeSeq):
		s.serveBank(req.ch, bk)
	case bk.queue.Len() == 1:
		s.eng.AtFuncSeq(bk.freeAt, bk.freeSeq, s.bankFreeFn, bk)
	}
}

// bankFree releases a bank at the end of a service and starts the next:
// it is only ever scheduled for a waiting request.
func (s *System) bankFree(x any) {
	bk := x.(*bank)
	s.serveBank(bk.ch, bk)
}

// pick chooses the next request to serve at a bank: the oldest row
// hit, unless the hit streak cap has been reached while an older
// non-hit request waits, in which case the oldest request is served.
// One pass tracks both candidates by sequence number; selection is
// position-independent (sequence numbers are unique), so the ring's
// swap-remove cannot change which request wins.
func (s *System) pick(bk *bank) *request {
	q := &bk.queue
	if q.n == 1 {
		// A lone request is both the oldest and the only possible hit:
		// the scan below would pick it and clear the streak.
		bk.streak = 0
		r := q.at(0)
		q.removeAt(0)
		return r
	}
	oldest, hit := 0, -1
	oldestSeq := q.at(0).seq
	var hitSeq uint64
	openRow := bk.openRow
	for i := 0; i < q.n; i++ {
		r := q.at(i)
		if r.seq < oldestSeq {
			oldest, oldestSeq = i, r.seq
		}
		if r.row == openRow && (hit == -1 || r.seq < hitSeq) {
			hit, hitSeq = i, r.seq
		}
	}
	idx := oldest
	if hit >= 0 && hit != oldest {
		if bk.streak < s.cfg.HitStreakCap {
			idx = hit
			bk.streak++
		} else {
			bk.streak = 0
		}
	} else {
		bk.streak = 0
	}
	r := q.at(idx)
	q.removeAt(idx)
	return r
}

// serveBank starts service of the next queued request on a free bank
// and records the bank's release.
func (s *System) serveBank(ch *channel, bk *bank) {
	req := s.pick(bk)

	now := s.applyRefresh(bk, s.eng.Now())
	bk.lastServed = now
	var lat sim.Time
	hit := false
	switch {
	case bk.openRow == req.row:
		lat = s.cfg.TCAS
		hit = true
		s.rowHits++
	case bk.openRow == -1:
		lat = s.cfg.TRCD + s.cfg.TCAS
		s.rowMiss++
	default:
		lat = s.cfg.TRP + s.cfg.TRCD + s.cfg.TCAS
		s.rowMiss++
	}
	bk.openRow = req.row

	dataReady := now + lat
	busStart := dataReady
	if ch.busFreeAt > busStart {
		busStart = ch.busFreeAt
	}
	complete := busStart + s.cfg.TBurst
	ch.busFreeAt = complete

	s.reqs++
	s.busBytes += uint64(s.cfg.LineBytes)

	// Row hits release the bank once their column access is done
	// (the burst drains on the bus); activates occupy it until the
	// transfer completes.
	bk.freeAt = complete
	if hit {
		bk.freeAt = dataReady
	}
	// The release takes its sequence number before the completion does,
	// so where the two coincide (every non-hit) the bank frees before
	// the completion callback runs, as it always has. It is queued now
	// only if a request already waits; otherwise arrive queues it under
	// this number if one comes while the bank is busy.
	bk.freeSeq = s.eng.Reserve()
	if bk.queue.Len() > 0 {
		s.eng.AtFuncSeq(bk.freeAt, bk.freeSeq, s.bankFreeFn, bk)
	}
	if req.doneFn != nil {
		s.eng.AtFunc(complete, req.doneFn, req.doneArg)
	}
	s.releaseReq(req)
}

// Stream issues a memory task's worth of sequential line requests,
// keeping up to MaxOutstanding in flight, and calls done when the
// final line completes. It models the paper's gather/scatter tasks:
// a software-pipelined prefetch loop over a contiguous footprint.
type Stream struct {
	sys       *System
	next      uint64
	remaining int
	inflight  int
	done      func(finished sim.Time)
	started   sim.Time
}

// StartStream begins a stream of `lines` sequential line accesses at
// base. done receives the completion time. It panics on lines <= 0.
func (s *System) StartStream(base uint64, lines int, done func(finished sim.Time)) *Stream {
	if lines <= 0 {
		panic(fmt.Sprintf("mem: StartStream with %d lines", lines))
	}
	st := &Stream{sys: s, next: base, remaining: lines, done: done, started: s.eng.Now()}
	st.pump()
	return st
}

// Started reports when the stream began issuing.
func (st *Stream) Started() sim.Time { return st.started }

// gap draws one jittered think-time sample.
func (s *System) gap() sim.Time {
	if s.cfg.ThinkTime == 0 {
		return 0
	}
	return s.cfg.ThinkTime * sim.Time(0.5+s.rng.Float64())
}

func (st *Stream) pump() {
	for st.inflight < st.sys.cfg.MaxOutstanding && st.remaining > 0 {
		st.inflight++
		st.remaining--
		addr := st.next
		st.next += uint64(st.sys.cfg.LineBytes)
		st.sys.AccessFn(addr, st.sys.streamLineFn, st)
	}
}

// streamPump re-enters a stream's issue loop; pre-bound on the System
// so think-time rescheduling allocates nothing.
func (s *System) streamPump(x any) { x.(*Stream).pump() }

// streamLineDone is the per-line completion callback for every stream
// on this system: pre-bound once, with the stream travelling as the
// event argument.
func (s *System) streamLineDone(x any) {
	st := x.(*Stream)
	st.inflight--
	if st.remaining > 0 {
		// The core spends think-time on the gathered data before the
		// next prefetch issues.
		s.eng.AfterFunc(s.gap(), s.streamPumpFn, st)
	}
	if st.remaining == 0 && st.inflight == 0 && st.done != nil {
		st.done(s.eng.Now())
		st.done = nil
	}
}
