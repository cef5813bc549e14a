// Command benchab measures a change against a base commit on one
// machine in one session, in interleaved pairs of runs: the way
// bench/README.md asks before any performance claim, and the way the
// micro-benchmark gate holds a change to its base.
//
//	go run ./cmd/benchab -base HEAD~1 -workload sim_sweep -pairs 10
//	make ab BASE=HEAD~1 WORKLOAD=sim_sweep PAIRS=10
//
//	go run ./cmd/benchab -base HEAD~1 -pairs 5 -bench '^(BenchmarkDRAMAccess)$' -zero-alloc BenchmarkDRAMAccess .
//	make bench-check BASE=HEAD~1
//
// It puts both sides into a temporary directory — -base by git archive
// (no worktree is registered, nothing is left in .git), the change as a
// copy of the working tree's tracked and unignored files — then runs
// each pair once in each tree, base first in odd pairs and the change
// first in even ones, so neither side always inherits a warm or a tired
// host. Per metric it prints each side's median and quartiles over the
// pairs, the pairs the change won, and whether the medians differ by
// more than the distance between the base's own quartiles.
//
// With -workload (make ab) a run is `bash bench/run.sh -workload W
// -seed <pair> -out <report>` and the metrics are the workload's
// end-to-end ones; it ends with `bench/run.sh -compare` on the last
// pair. After the first pair has built both harnesses it prints where
// each side's linker put the host workloads' task bodies (address mod
// 64) and warns when a body differs between the sides: this CPU runs
// bench/hostload.go's summing loops ~1.8x slower from 32 mod 64 than
// from 0, so a host_* row between two such builds reads the placement,
// not the change.
// Runs are untraced: a traced run (`bench/run.sh -trace 1`) of one
// workload reports the layer budget and no end-to-end metric, so the
// per-layer comparison is two such runs and `-compare`, by hand.
//
// With -bench (make bench-check) the arguments after the flags are
// packages. Each side builds their test binaries once, and a run is one
// benchmark matching the regexp, `-test.bench ^Name$ -test.benchmem
// -test.count 1` from its package directory; the metrics are ns/op. A
// pair runs every benchmark in turn, its base and its change back to
// back, so the two sides of a benchmark meet the same moment of the
// machine rather than two moments a whole sweep apart: on a shared
// 2-vCPU box the load comes in bursts, and benchmarks of 70-150 ms an
// op (b.N of 7-15 in the default second) read the burst. It exits 1 when a
// benchmark's change/base median ratio is over maxRatio and the medians
// differ by more than the base's own quartile spread, or when a
// -zero-alloc benchmark is missing from the change or reports an
// allocation there in every pair. A benchmark in one side only is
// printed and never fails.
//
// Both sides are plain directories on purpose: run in place, the
// working tree pays `go build` for stamping VCS state into the binary
// (two git invocations, ~20 ms) and the exported base does not, which
// read as a 17% worse setup_s that was the tool's. Each tree builds its
// own harness, so a -base that predates bench/ cannot be measured with
// -workload. Run it on an otherwise idle machine.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// maxRatio is the change/base median ns/op ratio a micro-benchmark may
// reach before -bench fails it (when the gap is also wider than the
// base's own spread).
const maxRatio = 1.15

// report is the part of a bench report (bench/main.go) read here.
type report struct {
	Workloads map[string]struct {
		Correct bool              `json:"correct"`
		Metrics map[string]metric `json:"metrics"`
	} `json:"workloads"`
}

type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
}

// unit is what one run measures: the workload, or with -bench one
// benchmark of package pkgs[pkg].
type unit struct {
	pkg  int
	name string
}

// series is one metric's value in each pair, per side.
type series struct {
	unit, better string
	base, change []float64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchab: ")
	var (
		base      = flag.String("base", "", "commit to compare the working tree against (required)")
		workload  = flag.String("workload", "sim_sweep", "benchmark workload to run")
		pairs     = flag.Int("pairs", 10, "interleaved pairs of runs")
		keep      = flag.Bool("keep", false, "keep the temporary directory (base tree, reports, logs)")
		bench     = flag.String("bench", "", "instead of -workload, run the `go test` benchmarks matching this regexp in the packages named after the flags")
		zeroAlloc = flag.String("zero-alloc", "", "with -bench: comma-separated benchmarks that must report 0 allocs/op in the change")
	)
	flag.Parse()
	pkgs := flag.Args()
	if *base == "" || *pairs < 1 || (*bench == "") != (len(pkgs) == 0) || (*bench == "" && *workload == "all") {
		log.Fatal("need -base <commit>, -pairs >= 1 and either one -workload (each workload is its own comparison) or -bench <regexp> followed by packages")
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		log.Fatalf("not inside a git checkout: %v", err)
	}
	root := strings.TrimSpace(string(top))
	tmp, err := os.MkdirTemp("", "benchab-")
	if err != nil {
		log.Fatal(err)
	}
	// A failure exits through log.Fatal and leaves tmp behind, with the
	// failed run's output in it.
	fmt.Println("working in", tmp)
	baseTree, changeTree := filepath.Join(tmp, "base"), filepath.Join(tmp, "change")
	if err := export(root, *base, baseTree); err != nil {
		log.Fatal(err)
	}
	if err := copyWorkingTree(root, changeTree); err != nil {
		log.Fatal(err)
	}

	// run measures one unit on one side once; the pair numbers from 1.
	var run func(side, tree string, pair int, u unit) (map[string]metric, error)
	units := []unit{{name: *workload}}
	last := map[string]string{}      // -workload: side -> last report
	allocs := map[string][]float64{} // -bench: benchmark -> the change's allocs/op per pair
	if *bench != "" {
		trees := []string{baseTree, changeTree}
		for _, tree := range trees {
			if err := buildTests(tree, pkgs); err != nil {
				log.Fatal(err)
			}
		}
		if units, err = listBenchmarks(trees, pkgs, *bench); err != nil {
			log.Fatal(err)
		}
		run = func(side, tree string, _ int, u unit) (map[string]metric, error) {
			res, err := runBenchmark(tree, pkgs, u)
			if err != nil {
				return nil, err
			}
			return benchMetrics(side, res, allocs), nil
		}
	} else {
		run = func(side, tree string, pair int, _ unit) (map[string]metric, error) {
			out := filepath.Join(tmp, fmt.Sprintf("%s-%02d.json", side, pair))
			cmd := exec.Command("bash", "bench/run.sh", "-workload", *workload, "-seed", fmt.Sprint(pair), "-out", out)
			cmd.Dir = tree
			if logged, err := cmd.CombinedOutput(); err != nil {
				return nil, fmt.Errorf("%v\n%s", err, logged)
			}
			last[side] = out
			return readReport(out, *workload)
		}
	}

	sides := []struct{ name, tree string }{{"base", baseTree}, {"change", changeTree}}
	values := map[string]*series{}
	for p := 1; p <= *pairs; p++ {
		order := []int{0, 1}
		if p%2 == 0 {
			order = []int{1, 0}
		}
		for _, u := range units {
			for _, s := range order {
				side := sides[s]
				rep, err := run(side.name, side.tree, p, u)
				if err != nil {
					log.Fatalf("pair %d %s: %v", p, side.name, err)
				}
				if len(rep) == 0 {
					continue // a benchmark this side lacks
				}
				line := fmt.Sprintf("pair %2d %-6s", p, side.name)
				for _, name := range metricNames(rep) {
					m := rep[name]
					add(values, side.name, name, m)
					line += fmt.Sprintf("  %s %.6g", name, m.Value)
				}
				fmt.Println(line)
			}
		}
		if p == 1 && *bench == "" {
			reportBodyPlacement(baseTree, changeTree)
		}
	}

	what := *workload
	if *bench != "" {
		what = "micro-benchmarks"
	}
	fmt.Printf("\n%s, %d pairs, base %s:\n", what, *pairs, *base)
	worse := summarize(os.Stdout, values)
	if *bench == "" {
		fmt.Printf("\nbench/run.sh -compare on the last pair:\n")
		cmp := exec.Command("bash", "bench/run.sh", "-compare", last["base"], last["change"])
		cmp.Dir, cmp.Stdout, cmp.Stderr = changeTree, os.Stdout, os.Stderr
		if err := cmp.Run(); err != nil {
			fmt.Println("compare:", err)
		}
	}
	if !*keep {
		os.RemoveAll(tmp)
	}
	if *bench == "" {
		return
	}
	failures := gate(worse, allocs, strings.FieldsFunc(*zeroAlloc, func(r rune) bool { return r == ',' }))
	for _, f := range failures {
		fmt.Println("FAIL:", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	fmt.Printf("check passed: no benchmark over %.2fx its base by more than the base's own spread; zero-alloc benchmarks allocation-free\n", maxRatio)
}

// add records one run's value of metric name for side.
func add(values map[string]*series, side, name string, m metric) {
	s := values[name]
	if s == nil {
		s = &series{}
		values[name] = s
	}
	s.unit, s.better = m.Unit, m.Better
	if side == "base" {
		s.base = append(s.base, m.Value)
	} else {
		s.change = append(s.change, m.Value)
	}
}

// summarize prints each metric's medians, quartiles, pairs won and
// verdict, and returns the change/base median ratio of every metric
// that is worse by more than the base's own spread. A metric one side
// lacks is printed as such and judged no further.
func summarize(w io.Writer, values map[string]*series) (worse map[string]float64) {
	worse = map[string]float64{}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	wid := 12
	for _, n := range names {
		wid = max(wid, len(n))
	}
	for _, n := range names {
		s := values[n]
		b, c := s.base, s.change
		switch {
		case len(b) == 0:
			fmt.Fprintf(w, "  %-*s only in the change\n", wid, n)
			continue
		case len(c) == 0:
			fmt.Fprintf(w, "  %-*s only in the base\n", wid, n)
			continue
		}
		bq1, bmed, bq3 := quartiles(b)
		cq1, cmed, cq3 := quartiles(c)
		won, lost := 0, 0
		for i := range min(len(b), len(c)) {
			switch d := c[i] - b[i]; {
			case d == 0:
			case (d < 0) == (s.better == "lower"):
				won++
			default:
				lost++
			}
		}
		verdict := "within the base's own spread"
		if d := cmed - bmed; d != 0 && abs(d) > bq3-bq1 {
			verdict = "worse by more than the base's own spread"
			if (d < 0) == (s.better == "lower") {
				verdict = "better by more than the base's own spread"
			} else {
				worse[n] = cmed / bmed
			}
		}
		fmt.Fprintf(w, "  %-*s %-3s base   median %.6g  quartiles %.6g %.6g\n", wid, n, s.unit, bmed, bq1, bq3)
		fmt.Fprintf(w, "  %-*s %-3s change median %.6g  quartiles %.6g %.6g\n", wid, "", "", cmed, cq1, cq3)
		fmt.Fprintf(w, "  %-*s     change/base %.4f, change won %d of %d pairs (lost %d): %s\n", wid, "", cmed/bmed, won, len(b), lost, verdict)
	}
	return worse
}

// gate returns the micro-benchmark gate's failures: each benchmark
// worse by more than the base's spread whose change/base ratio is over
// maxRatio, and each zeroAlloc benchmark the change lacks or that
// reported an allocation in every pair. An allocation count does not
// depend on the hour, so that check is against zero, not the base; the
// fewest allocs/op any pair read is the one judged, as a one-off
// allocation amortised over a large b.N can read 1 in one pair only.
func gate(worse map[string]float64, allocs map[string][]float64, zeroAlloc []string) []string {
	var failures []string
	names := make([]string, 0, len(worse))
	for n := range worse {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if r := worse[n]; r > maxRatio {
			failures = append(failures, fmt.Sprintf("%s: change/base %.3f, over %.2f and worse by more than the base's own spread", n, r, maxRatio))
		}
	}
	for _, n := range zeroAlloc {
		a := allocs[n]
		switch {
		case len(a) == 0:
			failures = append(failures, fmt.Sprintf("%s: zero-alloc benchmark missing from the change", n))
		case slices.Min(a) > 0:
			failures = append(failures, fmt.Sprintf("%s: zero-alloc benchmark reports %.0f allocs/op in the change", n, slices.Min(a)))
		}
	}
	return failures
}

// benchResult is one benchmark line of `go test -bench -benchmem`.
type benchResult struct{ ns, allocs float64 }

// benchMetrics turns one side's run into ns/op metrics, appending the
// change's allocs/op to allocs.
func benchMetrics(side string, res map[string]benchResult, allocs map[string][]float64) map[string]metric {
	m := make(map[string]metric, len(res))
	for name, r := range res {
		m[name] = metric{Value: r.ns, Unit: "ns", Better: "lower"}
		if side == "change" {
			allocs[name] = append(allocs[name], r.allocs)
		}
	}
	return m
}

// parseBench reads `go test -bench -benchmem` output. The -GOMAXPROCS
// suffix the test runner appends (BenchmarkFoo-8) is dropped: both
// sides run on one machine at one GOMAXPROCS.
func parseBench(r io.Reader) (map[string]benchResult, error) {
	out := map[string]benchResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var res benchResult
		ok := false
		// fields[1] is the iteration count; the rest come in
		// (value, unit) pairs, including custom ReportMetric units.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q on line %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				res.ns, ok = v, true
			case "allocs/op":
				res.allocs = v
			}
		}
		if ok {
			out[name] = res
		}
	}
	return out, sc.Err()
}

// testBinary is where buildTests puts package i's test binary of tree.
func testBinary(tree string, i int) string {
	return filepath.Join(tree, fmt.Sprintf("benchab-%d.test", i))
}

// buildTests compiles each package's test binary in tree.
func buildTests(tree string, pkgs []string) error {
	for i, pkg := range pkgs {
		cmd := exec.Command("go", "test", "-c", "-o", testBinary(tree, i), pkg)
		cmd.Dir = tree
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go test -c %s in %s: %v\n%s", pkg, tree, err, out)
		}
	}
	return nil
}

// listBenchmarks returns the top-level benchmarks matching re in each
// package's test binary of either tree, in package order and by name
// within a package. A benchmark one tree lacks runs there to no result.
func listBenchmarks(trees, pkgs []string, re string) ([]unit, error) {
	var units []unit
	for i, pkg := range pkgs {
		var names []string
		for _, tree := range trees {
			cmd := exec.Command(testBinary(tree, i), "-test.list", re)
			cmd.Dir = filepath.Join(tree, pkg)
			out, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s: listing benchmarks: %v", pkg, err)
			}
			for _, name := range strings.Fields(string(out)) {
				if strings.HasPrefix(name, "Benchmark") && !slices.Contains(names, name) {
					names = append(names, name)
				}
			}
		}
		slices.Sort(names)
		for _, name := range names {
			units = append(units, unit{pkg: i, name: name})
		}
	}
	return units, nil
}

// runBenchmark runs benchmark u once in tree, from its package's
// directory as `go test` would.
func runBenchmark(tree string, pkgs []string, u unit) (map[string]benchResult, error) {
	cmd := exec.Command(testBinary(tree, u.pkg), "-test.run", "^$", "-test.bench", "^"+regexp.QuoteMeta(u.name)+"$",
		"-test.benchmem", "-test.count", "1", "-test.timeout", "30m")
	cmd.Dir = filepath.Join(tree, pkgs[u.pkg])
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %v\n%s", pkgs[u.pkg], u.name, err, out)
	}
	res, err := parseBench(bytes.NewReader(out))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pkgs[u.pkg], err)
	}
	return res, nil
}

// bodySymbols are the task bodies of bench/hostload.go that the host
// workloads time: host_dispatch and host_serve run buffer's, host_stream
// streamPair's.
var bodySymbols = []string{
	"main.(*buffer).gather", "main.(*buffer).compute",
	"main.(*streamPair).gather", "main.(*streamPair).compute", "main.(*streamPair).scatter",
}

// bodyPlacement returns address mod 64 of each body symbol in the
// harness tree's bench/run.sh built.
func bodyPlacement(tree string) (map[string]uint64, error) {
	out, err := exec.Command("go", "tool", "nm", filepath.Join(tree, "bench", "out", "bin", "bench")).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool nm: %w", err)
	}
	at := map[string]uint64{}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line) // address, type, name
		if len(f) != 3 || !slices.Contains(bodySymbols, f[2]) {
			continue
		}
		addr, err := strconv.ParseUint(f[0], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("go tool nm: %q: %w", line, err)
		}
		at[f[2]] = addr % 64
	}
	return at, nil
}

// reportBodyPlacement prints both sides' placements and a WARNING per
// body that differs. It reports and never fails the run: a tree whose
// harness has other bodies simply shows "?".
func reportBodyPlacement(baseTree, changeTree string) {
	base, err := bodyPlacement(baseTree)
	if err != nil {
		fmt.Println("task-body placement: base:", err)
		return
	}
	change, err := bodyPlacement(changeTree)
	if err != nil {
		fmt.Println("task-body placement: change:", err)
		return
	}
	show := func(m map[string]uint64, sym string) string {
		if v, ok := m[sym]; ok {
			return fmt.Sprint(v)
		}
		return "?"
	}
	for _, side := range []struct {
		name string
		at   map[string]uint64
	}{{"base", base}, {"change", change}} {
		line := fmt.Sprintf("task bodies, addr mod 64, %-6s", side.name)
		for _, sym := range bodySymbols {
			line += fmt.Sprintf("  %s %s", strings.TrimPrefix(sym, "main."), show(side.at, sym))
		}
		fmt.Println(line)
	}
	for _, sym := range bodySymbols {
		if b, c := show(base, sym), show(change, sym); b != c {
			fmt.Printf("WARNING: %s sits at %s mod 64 in base and %s in change: host_* rows that run it read the loop's placement as well as the change\n", sym, b, c)
		}
	}
}

// export unpacks commit ref of the checkout at root into dir.
func export(root, ref, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", ref)
	archive.Dir, archive.Stderr = root, os.Stderr
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stderr = os.Stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		untar.Wait()
		return fmt.Errorf("git archive %s: %w", ref, err)
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("unpacking %s: %w", ref, err)
	}
	return nil
}

// copyWorkingTree copies the checkout's tracked and untracked-but-
// unignored files, as they are on disk, into dir.
func copyWorkingTree(root, dir string) error {
	ls := exec.Command("git", "ls-files", "-z", "--cached", "--others", "--exclude-standard")
	ls.Dir, ls.Stderr = root, os.Stderr
	out, err := ls.Output()
	if err != nil {
		return fmt.Errorf("git ls-files: %w", err)
	}
	for _, name := range strings.Split(strings.TrimRight(string(out), "\x00"), "\x00") {
		src := filepath.Join(root, name)
		info, err := os.Lstat(src)
		if os.IsNotExist(err) {
			continue // tracked, deleted in the working tree
		}
		if err != nil {
			return err
		}
		if !info.Mode().IsRegular() {
			continue
		}
		data, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(dst, data, info.Mode().Perm()); err != nil {
			return err
		}
	}
	return nil
}

// readReport returns the workload's end-to-end metrics from a report,
// refusing a run whose output checks failed.
func readReport(path, workload string) (map[string]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	w, ok := r.Workloads[workload]
	if !ok {
		return nil, fmt.Errorf("%s holds no workload %q", path, workload)
	}
	if !w.Correct {
		return nil, fmt.Errorf("%s: the run's output checks failed", path)
	}
	return w.Metrics, nil
}

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// quartiles returns the cut points of xs as bench/stats.go and Python's
// statistics.quantiles(xs, n=4) compute them (exclusive method), so a
// spread printed here is the one the benchmark's own tools report.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
