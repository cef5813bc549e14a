// Hostruntime: the throttling mechanism on real goroutines. Memory
// tasks stream real slices through the cache (the paper's gather loop,
// Fig. 12), compute tasks revisit them; the dynamic controller measures
// real wall-clock task durations and tunes the MTL live. Checksums
// verify the dataflow end to end.
//
// Absolute speedups depend on this machine's memory system — on a
// laptop with a deep cache hierarchy the contention the i7-860
// exhibited may be smaller — but the mechanism, the MTL gating and the
// adaptation are the real thing.
//
// With -chaos the same workload runs under the fault injector: latency
// spikes, transient errors and panics are planted in the task stream
// and the retry policy carries the run to completion; a deadline bounds
// the whole phase. This demonstrates the fault-tolerance layer end to
// end on live goroutines.
//
// With -domains N the runtime shards into N memory domains: per-domain
// MTL gates and queues, each worker trying its home domain first. The
// per-domain dispatch counters (pairs, parks, idle time) print per
// policy, and -timings writes the whole set as a JSON snapshot.
//
// With -rate R the example switches from closed-loop phases to the
// open-loop serving path: jobs arrive as a seeded Poisson stream at R
// jobs/sec wall clock, are submitted through Runtime.Serve's streaming
// ingress, and each policy serves for -duration. Overload handling is
// chosen with -shed (reject | drop | block). The report is the serving
// story: goodput, shed counts and queue/service latency percentiles
// per policy — throttled admission keeps tails flat where the
// conventional limit collapses. -chaos composes: the arrival stream is
// run through the fault injector and the retry policy carries the
// faulty jobs. Checksum verification is skipped in serving mode (jobs
// re-execute the same arrays concurrently, so the generation sums
// don't apply).
//
// With -model the example prints experiment H1 instead: the runtime's
// measured pairs per second against the paper's §IV-A prediction from
// each run's own task times, through Run and through Serve, with the
// measured wake latency and where the dynamic controller settles.
//
// With -attack the serving path runs a two-class adversarial scenario:
// a victim stream (class 0) of ordinary pairs shares the server with a
// flooding attacker (class 1) whose memory tasks drag a footprint
// several times the victim's through the cache. A class-blind dynamic
// controller can only throttle everyone; the blacklist policy plugin
// (core.PolicyThrottler wrapping a rotating counting-window hog
// detector over D-MTL) demotes the attacker's class and sheds it at
// ingress, and the report contrasts the two.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memthrottle/host"
	"memthrottle/internal/core"
	"memthrottle/internal/experiments"
	"memthrottle/internal/prof"
	"memthrottle/internal/workload"
)

// domainSnapshot is one policy's entry in the -timings JSON file: the
// headline run stats plus the per-domain dispatch counters.
type domainSnapshot struct {
	Policy       string             `json:"policy"`
	Workers      int                `json:"workers"`
	DomainCount  int                `json:"domain_count"`
	TotalMs      int64              `json:"total_ms"`
	PeakMemTasks int                `json:"peak_mem_tasks"`
	FinalMTL     int                `json:"final_mtl"`
	Domains      []host.DomainStats `json:"domains"`
}

func main() {
	log.SetFlags(0)
	chaos := flag.Bool("chaos", false, "inject faults (spikes, errors, panics) and recover via retry")
	attack := flag.Bool("attack", false, "adversarial serving mode: flood attacker vs victim, class-blind vs blacklist policy")
	rate := flag.Float64("rate", 0, "open-loop serving mode: offered load in jobs/sec (0 = closed-loop phases)")
	duration := flag.Duration("duration", 3*time.Second, "serving mode: how long each policy serves")
	shedName := flag.String("shed", "reject", "serving mode overload response: reject | drop | block")
	domains := flag.Int("domains", 1, "shard the runtime into N memory domains (per-domain MTL gates)")
	timings := flag.String("timings", "", "write per-policy stats incl. per-domain counters to this JSON file")
	model := flag.Bool("model", false, "print experiment H1: measured throughput vs the §IV-A model, Run and Serve")
	profiles := prof.Flags(flag.CommandLine)
	flag.Parse()

	session, err := prof.StartAll(*profiles)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := session.Stop(); err != nil {
			log.Print(err)
		}
	}()

	if *model {
		tab, err := experiments.HostModelH1(experiments.Env{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(tab)
		return
	}

	workers := runtime.GOMAXPROCS(0)
	if *domains < 1 {
		log.Fatalf("-domains %d: domain count must be >= 1", *domains)
	}
	fmt.Printf("host: %d worker goroutines, %d memory domain(s)\n\n", workers, *domains)

	arrays, err := host.NewArraySet(64, 1<<20)
	if err != nil {
		log.Fatal(err)
	}

	if *attack {
		r := *rate
		if r <= 0 {
			r = 2000
		}
		runAttack(arrays, workers, *domains, r, *duration)
		return
	}

	if *rate > 0 {
		runServe(arrays, workers, *domains, *rate, *duration, *shedName, *chaos)
		return
	}

	if *chaos {
		runChaos(arrays, workers)
		return
	}

	var snaps []domainSnapshot
	run := func(name string, cfg host.Config) {
		cfg.Domains = *domains
		rt, err := host.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer rt.Close()
		// Two phases with different compute weight: a real phase
		// change for the controller to chase.
		var total int64
		var last host.Stats
		for _, passes := range []int{8, 1} {
			pairs, err := arrays.Pairs(passes)
			if err != nil {
				log.Fatal(err)
			}
			st, err := rt.Run(pairs)
			if err != nil {
				log.Fatal(err)
			}
			if err := arrays.Verify(passes); err != nil {
				log.Fatal(err)
			}
			total += st.Elapsed.Milliseconds()
			last = st
		}
		fmt.Printf("%-18s total %6dms  peak mem tasks %d  final MTL %d  decisions %v\n",
			name, total, last.MaxConcurrentM, last.FinalMTL, last.MTLDecisions)
		for d, ds := range last.Domains {
			fmt.Printf("    domain %d: %d pairs, %d parks, idle %v\n",
				d, ds.Pairs, ds.Parks, ds.Idle.Round(time.Microsecond))
		}
		snaps = append(snaps, domainSnapshot{
			Policy:       name,
			Workers:      workers,
			DomainCount:  *domains,
			TotalMs:      total,
			PeakMemTasks: last.MaxConcurrentM,
			FinalMTL:     last.FinalMTL,
			Domains:      last.Domains,
		})
	}

	run("conventional", host.Config{Workers: workers, Policy: host.Conventional})
	if workers >= 2 {
		run("static MTL=1", host.Config{Workers: workers, Policy: host.Static, MTL: 1})
		run("dynamic", host.Config{Workers: workers, Policy: host.Dynamic, W: 8})
	} else {
		fmt.Println("(single-CPU host: adaptive policies need >= 2 workers; skipping)")
	}

	if *timings != "" {
		b, err := json.MarshalIndent(snaps, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*timings, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote per-domain stats snapshot to %s\n", *timings)
	}
}

// runChaos reruns the dynamic workload with injected faults and a
// run deadline, reporting what was planted and what the retry policy
// recovered.
func runChaos(arrays *host.ArraySet, workers int) {
	fi, err := host.NewFaultInjector(host.FaultConfig{
		PanicRate:  0.03,
		ErrorRate:  0.07,
		SpikeRate:  0.20,
		SpikeDelay: 2 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fi.Stop()

	cfg := host.Config{
		Workers:      workers,
		Policy:       host.Conventional,
		Retry:        host.RetryPolicy{MaxAttempts: 4, BaseDelay: 200 * time.Microsecond, Seed: 1},
		StallTimeout: 2 * time.Second,
	}
	if workers >= 2 {
		cfg.Policy = host.Dynamic
		cfg.W = 8
	}
	rt, err := host.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	pairs, err := arrays.Pairs(4)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	st, runErr := rt.RunContext(ctx, fi.Wrap(pairs))
	c := fi.Counts()
	fmt.Printf("chaos plan: %d panics, %d errors, %d spikes, %d clean tasks (fired %d)\n",
		c.Panics, c.Errors, c.Spikes, c.Clean, c.Fired)
	switch {
	case runErr == nil:
		fmt.Printf("run recovered: %d/%d pairs, %d retries, %d tasks recovered, final MTL %d\n",
			st.CompletedPairs, st.Pairs, st.Retries, st.Recovered, st.FinalMTL)
		if err := arrays.Verify(4); err != nil {
			log.Fatalf("dataflow corrupted under chaos: %v", err)
		}
		fmt.Println("checksums verified: dataflow intact under injected faults")
	case errors.Is(runErr, context.DeadlineExceeded):
		fmt.Printf("run deadlined after %v: %d/%d pairs completed\n",
			st.Elapsed, st.CompletedPairs, st.Pairs)
	default:
		log.Fatalf("chaos run failed beyond the retry budget: %v", runErr)
	}
}

// parseShed maps the -shed flag to a host.Shed mode.
func parseShed(name string) (host.Shed, error) {
	switch name {
	case "reject":
		return host.ShedReject, nil
	case "drop":
		return host.ShedDrop, nil
	case "block":
		return host.ShedBlock, nil
	default:
		return 0, fmt.Errorf("-shed %q: want reject, drop or block", name)
	}
}

// runServe is the open-loop serving demo: each policy serves a seeded
// Poisson arrival stream at the offered rate for the configured
// duration, then drains and reports goodput, shed counts and latency
// percentiles. The same seed drives every policy, so all three face an
// identical arrival sequence. With chaos, the template pairs are run
// through the fault injector and the retry policy recovers them.
func runServe(arrays *host.ArraySet, workers, domains int, rate float64, duration time.Duration, shedName string, chaos bool) {
	shed, err := parseShed(shedName)
	if err != nil {
		log.Fatal(err)
	}
	pairs, err := arrays.Pairs(1)
	if err != nil {
		log.Fatal(err)
	}
	var fi *host.FaultInjector
	if fi, err = chaosInjector(chaos); err != nil {
		log.Fatal(err)
	}
	if fi != nil {
		defer fi.Stop()
		pairs = fi.Wrap(pairs)
	}

	fmt.Printf("serving mode: %.0f jobs/s offered for %v per policy, shed=%s\n\n",
		rate, duration, shed)

	serve := func(name string, cfg host.Config) {
		cfg.Domains = domains
		if fi != nil {
			cfg.Retry = host.RetryPolicy{MaxAttempts: 4, BaseDelay: 200 * time.Microsecond, Seed: 1}
		}
		rt, err := host.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer rt.Close()
		srv, err := rt.Serve(host.ServeConfig{Queue: 1024, Shed: shed})
		if err != nil {
			log.Fatal(err)
		}

		// Open-loop pacing against absolute deadlines: the submitter
		// never waits for completions, and a slow system cannot slow
		// the arrival clock down (that would be closed-loop).
		arr := workload.NewPoisson(rate, 1)
		deadline := time.Now().Add(duration)
		next := time.Now()
		var bounced int64
		for i := 0; ; i++ {
			next = next.Add(time.Duration(arr.Next() * float64(time.Second)))
			if next.After(deadline) {
				break
			}
			time.Sleep(time.Until(next))
			if err := srv.Submit(pairs[i%len(pairs)]); err != nil {
				bounced++ // ErrQueueFull under reject (counted server-side too)
			}
		}
		st, err := srv.Drain(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		_ = bounced
		fmt.Printf("%-18s goodput %8.0f jobs/s   completed %6d  failed %d  dropped %d  rejected %d\n",
			name, st.Goodput, st.Completed, st.Failed, st.Dropped, st.Rejected)
		fmt.Printf("    queue   p50 %8v  p99 %8v  p99.9 %8v\n",
			st.QueueLatency.P50().Round(time.Microsecond),
			st.QueueLatency.P99().Round(time.Microsecond),
			st.QueueLatency.P999().Round(time.Microsecond))
		fmt.Printf("    service p50 %8v  p99 %8v  p99.9 %8v   final MTL %d  retries %d recovered %d\n",
			st.ServiceLatency.P50().Round(time.Microsecond),
			st.ServiceLatency.P99().Round(time.Microsecond),
			st.ServiceLatency.P999().Round(time.Microsecond),
			st.FinalMTL, st.Retries, st.Recovered)
	}

	serve("conventional", host.Config{Workers: workers, Policy: host.Conventional})
	if workers >= 2 {
		serve("static MTL=1", host.Config{Workers: workers, Policy: host.Static, MTL: 1})
		serve("dynamic", host.Config{Workers: workers, Policy: host.Dynamic, W: 8})
	} else {
		fmt.Println("(single-CPU host: adaptive policies need >= 2 workers; skipping)")
	}
}

// runAttack is the adversarial serving demo: a victim stream of
// ordinary pairs (class 0) and a flooding attacker (class 1) whose
// memory task drags a footprint 8x the victim arrays through the
// cache, submitted concurrently against the same server. The
// class-blind dynamic controller sees only aggregate slowdown and
// throttles victim and attacker alike; the blacklist policy plugin
// attributes the contention to the attacker's class, demotes it and
// sheds it at ingress, so the victim's service tail recovers.
func runAttack(arrays *host.ArraySet, workers, domains int, rate float64, duration time.Duration) {
	if workers < 2 {
		log.Fatal("-attack needs >= 2 workers (adaptive controllers)")
	}
	victims, err := arrays.Pairs(1)
	if err != nil {
		log.Fatal(err)
	}
	// The attacker's gather walks 8 MB per job — 8x one victim array —
	// with a token compute tail, so every admitted attack job pins a
	// memory slot for a long, bandwidth-heavy stretch.
	hog := make([]int64, (8<<20)/8)
	for i := range hog {
		hog[i] = int64(i)
	}
	var sink atomic.Int64
	attacker := host.Pair{
		Class: 1,
		Memory: func() {
			var s int64
			for i := 0; i < len(hog); i += 8 {
				s += hog[i]
			}
			sink.Add(s)
		},
		Compute: func() { sink.Add(1) },
	}

	attackRate := 0.6 * rate
	fmt.Printf("attack mode: victim %.0f jobs/s + flood attacker %.0f jobs/s for %v per policy\n\n",
		rate, attackRate, duration)

	serve := func(name string, cfg host.Config) {
		cfg.Domains = domains
		rt, err := host.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		defer rt.Close()
		srv, err := rt.Serve(host.ServeConfig{Queue: 1024, Shed: host.ShedReject})
		if err != nil {
			log.Fatal(err)
		}

		// Two open-loop submitters race against the same deadline; each
		// is single-writer on its own counters, read after the Wait.
		var wg sync.WaitGroup
		var vAcc, vShed, aAcc, aShed int64
		submit := func(rate float64, seed int64, pairs []host.Pair, acc, shed *int64) {
			defer wg.Done()
			arr := workload.NewPoisson(rate, seed)
			deadline := time.Now().Add(duration)
			next := time.Now()
			for i := 0; ; i++ {
				next = next.Add(time.Duration(arr.Next() * float64(time.Second)))
				if next.After(deadline) {
					return
				}
				time.Sleep(time.Until(next))
				if err := srv.Submit(pairs[i%len(pairs)]); err != nil {
					*shed++
				} else {
					*acc++
				}
			}
		}
		wg.Add(2)
		go submit(rate, 1, victims, &vAcc, &vShed)
		go submit(attackRate, 2, []host.Pair{attacker}, &aAcc, &aShed)
		wg.Wait()
		st, err := srv.Drain(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s goodput %8.0f jobs/s   completed %6d  rejected %d  final MTL %d\n",
			name, st.Goodput, st.Completed, st.Rejected, st.FinalMTL)
		fmt.Printf("    victim   %6d accepted %6d refused\n", vAcc, vShed)
		fmt.Printf("    attacker %6d accepted %6d refused (%d shed at ingress by blacklist)\n",
			aAcc, aShed, st.Blacklisted)
		fmt.Printf("    service p50 %8v  p99 %8v  p99.9 %8v\n",
			st.ServiceLatency.P50().Round(time.Microsecond),
			st.ServiceLatency.P99().Round(time.Microsecond),
			st.ServiceLatency.P999().Round(time.Microsecond))
	}

	serve("dynamic (blind)", host.Config{Workers: workers, Policy: host.Dynamic, W: 8})
	serve("blacklist+D-MTL", host.Config{
		Workers: workers,
		Throttler: core.NewPolicyThrottler(
			core.NewBlacklist(core.NewDynamic(core.NewModel(workers), 8), core.BlacklistOptions{}),
			8, workers),
	})
}

// chaosInjector builds the serving-mode fault injector, or nil when
// chaos is off.
func chaosInjector(chaos bool) (*host.FaultInjector, error) {
	if !chaos {
		return nil, nil
	}
	return host.NewFaultInjector(host.FaultConfig{
		PanicRate:  0.03,
		ErrorRate:  0.07,
		SpikeRate:  0.20,
		SpikeDelay: 2 * time.Millisecond,
		Seed:       1,
	})
}
