// Command mtlsim runs one workload on the simulated multicore under a
// chosen throttling policy and reports timing, idle share, MTL
// decisions and (optionally) an ASCII Gantt chart of the schedule.
//
// Usage:
//
//	mtlsim -workload synthetic -ratio 0.5 -policy dynamic
//	mtlsim -workload sift -policy dynamic -w 16
//	mtlsim -workload sc -dim 36 -policy static -mtl 2
//	mtlsim -workload dft -policy conventional -gantt
//	mtlsim -workload synthetic -ratio 1.5 -cores 8 -smt 4   (POWER7-style)
//	mtlsim -workload dft -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"slices"

	"memthrottle/internal/contend"
	"memthrottle/internal/core"
	"memthrottle/internal/machine"
	"memthrottle/internal/mem"
	"memthrottle/internal/parallel"
	"memthrottle/internal/prof"
	"memthrottle/internal/simsched"
	"memthrottle/internal/stream"
	"memthrottle/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mtlsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run returns instead of calling log.Fatal so the deferred profile
// stop flushes on every exit path.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mtlsim", flag.ExitOnError)
	var (
		wl       = fs.String("workload", "synthetic", "workload: synthetic | dft | sc | sift")
		ratio    = fs.Float64("ratio", 0.5, "synthetic Tm1/Tc ratio")
		pairs    = fs.Int("pairs", 96, "synthetic task-pair count")
		dim      = fs.Int("dim", 128, "streamcluster input dimension")
		policy   = fs.String("policy", "dynamic", "policy: conventional | static | dynamic | online")
		mtl      = fs.Int("mtl", 1, "MTL for the static policy")
		w        = fs.Int("w", 16, "monitor window for adaptive policies")
		cores    = fs.Int("cores", 4, "physical cores")
		smt      = fs.Int("smt", 1, "hardware threads per core")
		channels = fs.Int("channels", 1, "memory channels")
		domains  = fs.Int("domains", 1, "independent memory domains (replicated DIMMs, round-robin homing)")
		gantt    = fs.Bool("gantt", false, "print an ASCII Gantt chart")
		seed     = fs.Int64("seed", 1, "noise seed")
		jobs     = fs.Int("j", 0, "worker goroutines for independent runs (default: GOMAXPROCS)")
		profiles = prof.Flags(fs)
	)
	_ = fs.Parse(args) // ExitOnError: a malformed flag exits, it does not return
	if err := prof.JobsFlagError(fs, *jobs); err != nil {
		return err
	}
	// Every value is checked here, before any simulation: the layers
	// below treat a bad one as a programming error and panic, or (a
	// static MTL outside [1, n]) quietly run some other schedule.
	n := *cores * *smt
	switch {
	case *cores < 1 || *smt < 1 || n < 2:
		return fmt.Errorf("-cores %d -smt %d: want each >= 1 and at least 2 hardware threads (one thread has nothing to throttle)", *cores, *smt)
	case *mtl < 1 || *mtl > n:
		return fmt.Errorf("-mtl %d: want within [1, %d] (cores x smt)", *mtl, n)
	case *w < 1:
		return fmt.Errorf("-w %d: monitor window must be >= 1", *w)
	case *pairs < 1:
		return fmt.Errorf("-pairs %d: task-pair count must be >= 1", *pairs)
	case !(*ratio > 0 && *ratio <= math.MaxFloat64):
		return fmt.Errorf("-ratio %g: Tm1/Tc must be positive and finite", *ratio)
	case !slices.Contains(workload.StreamclusterDims, *dim):
		return fmt.Errorf("-dim %d: want one of Table II's %v", *dim, workload.StreamclusterDims)
	case *channels < 1:
		return fmt.Errorf("-channels %d: want >= 1", *channels)
	case *domains < 1 || *domains > simsched.MaxMemDomains:
		return fmt.Errorf("-domains %d: want within [1, %d]", *domains, simsched.MaxMemDomains)
	}

	session, err := prof.StartAll(*profiles)
	if err != nil {
		return err
	}
	defer func() {
		if err := session.Stop(); err != nil {
			log.Print(err)
		}
	}()

	parallel.SetDefault(*jobs)
	// With -domains > 1 each domain is a replica DIMM with decorrelated
	// jitter; the replicas calibrate concurrently (each owns a private
	// simulation) and domain 0 doubles as the workload-shaping law.
	set := mem.Replicate(mem.DDR3_1066().WithChannels(*channels), *domains)
	cals, err := set.Calibrate(n, 6, workload.Footprint)
	if err != nil {
		return err
	}
	params := contend.FromCalibration(cals[0])
	lib := workload.NewLibrary(params)

	var prog *stream.Program
	switch *wl {
	case "synthetic":
		prog = lib.Synthetic(*ratio, workload.Footprint, *pairs)
	case "dft":
		prog = lib.DFT()
	case "sc":
		prog = lib.Streamcluster(*dim)
	case "sift":
		prog = lib.SIFT()
	default:
		return fmt.Errorf("unknown workload %q", *wl)
	}

	cfg := simsched.Default(params)
	cfg.Machine = machine.Config{Cores: *cores, SMTWays: *smt}
	cfg.NoiseSigma = 0.003
	cfg.Seed = *seed
	cfg.RecordTrace = *gantt
	if *domains > 1 {
		cfg.Machine.MemDomains = *domains
		for d := 0; d < *domains; d++ {
			cfg.DomainMem[d] = contend.FromCalibration(cals[d])
		}
	}

	var policyErr error
	mkPolicy := func(name string) core.Throttler {
		switch name {
		case "conventional":
			return core.Fixed{K: n}
		case "static":
			return core.Fixed{K: *mtl}
		case "dynamic":
			return core.NewDynamic(core.NewModel(n), *w)
		case "online":
			return core.NewOnlineExhaustive(core.NewModel(n), *w, 0.10)
		default:
			policyErr = fmt.Errorf("unknown policy %q", name)
			return core.Fixed{K: n}
		}
	}
	// Resolve the policy before fanning out so a typo errors cleanly
	// (and the profile still flushes) instead of dying inside a worker.
	mkPolicy(*policy)
	if policyErr != nil {
		return policyErr
	}

	// The policy run and its conventional baseline are independent
	// simulations; fan them out like the experiment layer does.
	runs := parallel.Map(0, 2, func(i int) simsched.Result {
		if i == 0 {
			return simsched.Run(prog, cfg, mkPolicy(*policy))
		}
		return simsched.Run(prog, cfg, core.Fixed{K: n})
	})
	res, base := runs[0], runs[1]

	fmt.Fprintf(out, "workload : %s (%d pairs, %d phases)\n", prog.Name, prog.TotalPairs(), len(prog.Phases))
	fmt.Fprintf(out, "machine  : %d cores x %d SMT, %d channel(s), %d domain(s)\n", *cores, *smt, *channels, *domains)
	fmt.Fprintf(out, "policy   : %s\n", res.Policy)
	fmt.Fprintf(out, "time     : %v  (conventional: %v, speedup %.3fx)\n",
		res.TotalTime, base.TotalTime, float64(base.TotalTime)/float64(res.TotalTime))
	fmt.Fprintf(out, "idle     : %.1f%% of thread-time\n",
		100*float64(res.IdleTime)/(float64(res.TotalTime)*float64(n)))
	fmt.Fprintf(out, "final MTL: %d", res.FinalMTL)
	if len(res.MTLDecisions) > 0 {
		fmt.Fprintf(out, "  (decisions: %v)", res.MTLDecisions)
	}
	fmt.Fprintln(out)
	if len(res.PhaseTimes) > 1 {
		fmt.Fprintln(out, "phases:")
		for i, pt := range res.PhaseTimes {
			fmt.Fprintf(out, "  %-14s %12v  MTL=%d\n", prog.Phases[i].Name, pt, res.PhaseMTL[i])
		}
	}
	if res.MonitoredPairs > 0 {
		fmt.Fprintf(out, "monitoring: %d pairs, %.3f%% overhead\n",
			res.MonitoredPairs, 100*float64(res.OverheadTime)/float64(res.TotalTime))
	}
	if res.CacheMissFraction > 0 {
		fmt.Fprintf(out, "LLC overflow: %.1f%% mean compute miss fraction\n", 100*res.CacheMissFraction)
	}
	if *gantt {
		fmt.Fprintln(out, "\nschedule (M = memory task, C = compute):")
		fmt.Fprint(out, res.Timeline.Gantt(100))
	}
	return nil
}
