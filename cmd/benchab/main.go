// Command benchab measures a change against a base commit the way
// bench/README.md asks before any performance claim: the repository
// benchmark, run on both trees in interleaved pairs.
//
//	go run ./cmd/benchab -base HEAD~1 -workload sim_sweep -pairs 10
//	make ab BASE=HEAD~1 WORKLOAD=sim_sweep PAIRS=10
//
// It puts both sides into a temporary directory — -base by git archive
// (no worktree is registered, nothing is left in .git), the change as a
// copy of the working tree's tracked and unignored files — then for
// each pair runs `bash bench/run.sh -workload W -seed <pair> -out
// <report>` once in each tree — base first in odd pairs, the change
// first in even ones, so neither side always inherits a warm or a tired
// host — and prints, per end-to-end metric, each side's median and
// quartiles over the pairs, the pairs the change won, and whether the
// medians differ by more than the distance between the base's own
// quartiles. It ends with `bench/run.sh -compare` on the last pair.
// After the first pair has built both harnesses it prints where each
// side's linker put the host workloads' task bodies (address mod 64)
// and warns when a body differs between the sides: this CPU runs
// bench/hostload.go's summing loops ~1.8x slower from 32 mod 64 than
// from 0, so a host_* row between two such builds reads the placement,
// not the change.
// Runs are untraced: a traced run (`bench/run.sh -trace 1`) of one
// workload reports the layer budget and no end-to-end metric, so the
// per-layer comparison is two such runs and `-compare`, by hand.
//
// Both sides are plain directories on purpose: run in place, the
// working tree pays `go build` for stamping VCS state into the binary
// (two git invocations, ~20 ms) and the exported base does not, which
// read as a 17% worse setup_s that was the tool's. Each tree builds its
// own harness, so a -base that predates bench/ cannot be measured. Run
// it on an otherwise idle machine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

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

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchab: ")
	var (
		base     = flag.String("base", "", "commit to compare the working tree against (required)")
		workload = flag.String("workload", "sim_sweep", "benchmark workload to run")
		pairs    = flag.Int("pairs", 10, "interleaved pairs of runs")
		keep     = flag.Bool("keep", false, "keep the temporary directory (base tree, reports, logs)")
	)
	flag.Parse()
	if *base == "" || *pairs < 1 || *workload == "all" {
		log.Fatal("need -base <commit>, -pairs >= 1 and one -workload (each workload is its own comparison)")
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

	sides := []struct{ name, tree string }{{"base", baseTree}, {"change", changeTree}}
	values := map[string]map[string][]float64{} // metric -> side -> value per pair
	better := map[string]string{}
	units := map[string]string{}
	last := map[string]string{} // side -> last report
	for p := 0; p < *pairs; p++ {
		order := []int{0, 1}
		if p%2 == 1 {
			order = []int{1, 0}
		}
		for _, s := range order {
			side := sides[s]
			out := filepath.Join(tmp, fmt.Sprintf("%s-%02d.json", side.name, p+1))
			args := []string{"bench/run.sh", "-workload", *workload, "-seed", fmt.Sprint(p + 1), "-out", out}
			cmd := exec.Command("bash", args...)
			cmd.Dir = side.tree
			if logged, err := cmd.CombinedOutput(); err != nil {
				log.Fatalf("pair %d %s: %v\n%s", p+1, side.name, err, logged)
			}
			rep, err := readReport(out, *workload)
			if err != nil {
				log.Fatalf("pair %d %s: %v", p+1, side.name, err)
			}
			line := fmt.Sprintf("pair %2d %-6s", p+1, side.name)
			for _, name := range metricNames(rep) {
				m := rep[name]
				if values[name] == nil {
					values[name] = map[string][]float64{}
				}
				values[name][side.name] = append(values[name][side.name], m.Value)
				better[name], units[name] = m.Better, m.Unit
				line += fmt.Sprintf("  %s %.6g", name, m.Value)
			}
			fmt.Println(line)
			last[side.name] = out
		}
		if p == 0 {
			reportBodyPlacement(baseTree, changeTree)
		}
	}

	fmt.Printf("\n%s, %d pairs, base %s:\n", *workload, *pairs, *base)
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b, c := values[n]["base"], values[n]["change"]
		bq1, bmed, bq3 := quartiles(b)
		cq1, cmed, cq3 := quartiles(c)
		won, lost := 0, 0
		for i := range b {
			switch d := c[i] - b[i]; {
			case d == 0:
			case (d < 0) == (better[n] == "lower"):
				won++
			default:
				lost++
			}
		}
		verdict := "within the base's own spread"
		if d := cmed - bmed; d != 0 && abs(d) > bq3-bq1 {
			verdict = "worse by more than the base's own spread"
			if (d < 0) == (better[n] == "lower") {
				verdict = "better by more than the base's own spread"
			}
		}
		fmt.Printf("  %-12s %-3s base   median %.6g  quartiles %.6g %.6g\n", n, units[n], bmed, bq1, bq3)
		fmt.Printf("  %-12s %-3s change median %.6g  quartiles %.6g %.6g\n", "", "", cmed, cq1, cq3)
		fmt.Printf("  %-12s     change/base %.4f, change won %d of %d pairs (lost %d): %s\n", "", cmed/bmed, won, len(b), lost, verdict)
	}

	fmt.Printf("\nbench/run.sh -compare on the last pair:\n")
	cmp := exec.Command("bash", "bench/run.sh", "-compare", last["base"], last["change"])
	cmp.Dir, cmp.Stdout, cmp.Stderr = changeTree, os.Stdout, os.Stderr
	if err := cmp.Run(); err != nil {
		fmt.Println("compare:", err)
	}
	if !*keep {
		os.RemoveAll(tmp)
	}
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
