package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"memthrottle/internal/mem"
	"memthrottle/internal/parallel"
	"memthrottle/internal/workload"
)

// table is the part of an mtlbench -format json object the harness
// reads. Title, notes and elapsed_sec are left out of the digest:
// wording may change and elapsed time always does; the figures are
// {id, columns, rows}.
type table struct {
	ID      string     `json:"id"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Elapsed float64    `json:"elapsed_sec"` // the experiment's wall time, as mtlbench measured it
}

// digest is the SHA-256 of the canonical encoding of a table: Go's
// JSON encoding of {id, columns, rows} in that field order, which has
// no insignificant whitespace and one escaping of every string.
func (t table) digest() string {
	b, err := json.Marshal(struct {
		ID      string     `json:"id"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}{t.ID, t.Columns, t.Rows})
	if err != nil {
		panic(err) // strings and slices of strings always encode
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// parseTables reads the stream of JSON objects mtlbench prints, after
// the text line that precedes them.
func parseTables(out []byte) ([]table, error) {
	start := bytes.IndexByte(out, '{')
	if start < 0 {
		return nil, fmt.Errorf("no JSON object in mtlbench output")
	}
	dec := json.NewDecoder(bytes.NewReader(out[start:]))
	var tabs []table
	for {
		var t table
		if err := dec.Decode(&t); err == io.EOF {
			return tabs, nil
		} else if err != nil {
			return nil, fmt.Errorf("mtlbench output, table %d: %w", len(tabs)+1, err)
		}
		tabs = append(tabs, t)
	}
}

// hostWallClockTable is the one catalog entry whose rows are host
// wall-clock counters, so it has no expected digest.
const hostWallClockTable = "D1H"

// sweepExpected is bench/expected/sim_sweep.json.
type sweepExpected struct {
	Digests map[string]string `json:"digests"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func expectedPath(rc *runConfig, name string) string {
	return filepath.Join(rc.root, "bench", "expected", name)
}

// --- sim_sweep ---

// simSweep runs the command a user waits for, `mtlbench -all`, as a
// cold subprocess: the calibration cache is process-wide, so only a
// new process pays for calibration the way a user does. The sweep
// runs on one worker (-j 1): one busy thread is the load this shared
// two-CPU host times steadily (8.28-8.35 s over three sweeps, against
// 5.1-5.5 s at -j 2, and far wider in the host's bad spells);
// parallel.j_speedup_x in the traced run says what -j P buys.
type simSweep struct {
	bin      string
	expected sweepExpected
}

// buildMtlbench compiles cmd/mtlbench from the checkout's source.
func buildMtlbench(rc *runConfig) (string, error) {
	bin := filepath.Join(rc.outDir, "bin", "mtlbench")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mtlbench")
	cmd.Dir = rc.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/mtlbench: %v\n%s", err, out)
	}
	return bin, nil
}

func setupSimSweep(rc *runConfig) (instance, error) {
	bin, err := buildMtlbench(rc)
	if err != nil {
		return nil, err
	}
	s := &simSweep{bin: bin}
	if err := readJSON(expectedPath(rc, "sim_sweep.json"), &s.expected); err != nil {
		return nil, err
	}
	// Every measured sweep is a new process and stays cold; the warm-up
	// only proves the binary runs and reads it into the page cache.
	if out, err := exec.Command(bin, "-list").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("%s -list: %v: %s", bin, err, out)
	}
	return s, nil
}

func (s *simSweep) close() {}

// sweep runs one cold sweep and returns its tables, wall and CPU time.
func (s *simSweep) sweep() (tabs []table, wall, cpu float64, err error) {
	cmd := exec.Command(s.bin, "-all", "-no-cache", "-j", "1", "-format", "json")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err = cmd.Run()
	wall = time.Since(t0).Seconds()
	if err != nil {
		return nil, wall, 0, fmt.Errorf("mtlbench -all: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	cpu = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	tabs, err = parseTables(stdout.Bytes())
	return tabs, wall, cpu, err
}

// checkTables compares every table's digest with the expected one.
func (s *simSweep) checkTables(tabs []table, res *result) {
	byID := make(map[string]table, len(tabs))
	for _, t := range tabs {
		byID[t.ID] = t
	}
	for id, want := range s.expected.Digests {
		t, ok := byID[id]
		res.check(ok && t.digest() == want, 1, "sim_sweep: experiment %s: output digest differs from bench/expected/sim_sweep.json", id)
	}
	for id := range byID {
		if _, ok := s.expected.Digests[id]; !ok && id != hostWallClockTable {
			res.check(false, 1, "sim_sweep: experiment %s has no expected digest", id)
		}
	}
}

// startPart is the part of a sweep that is no experiment: process
// start, calibration, rendering and exit.
const startPart = "start+calibrate"

func (s *simSweep) measure(seconds float64, res *result) {
	start := time.Now()
	for i := 0; i == 0 || timeLeft(start, seconds); i++ {
		tabs, wall, cpu, err := s.sweep()
		if err != nil {
			res.check(false, len(s.expected.Digests), "sim_sweep: %v", err)
			return
		}
		s.checkTables(tabs, res)
		// The sweep's wall time in parts: each experiment as mtlbench
		// timed it, and the rest. One operation is one part.
		rest := wall
		for _, t := range tabs {
			res.addPart("wall_s", t.ID, t.Elapsed)
			rest -= t.Elapsed
		}
		res.addPart("wall_s", startPart, rest)
		res.add("cpu_s", cpu) // only the whole process has a CPU time
	}
}

// --- sim_dram ---

// dramConfig is one DRAM configuration sim_dram calibrates.
type dramConfig struct {
	name string
	cfg  mem.Config
}

func dramConfigs() []dramConfig {
	return []dramConfig{
		{"ddr3_1066", mem.DDR3_1066()},
		{"ddr3_1066_2ch", mem.DDR3_1066().WithChannels(2)},
		{"ddr3_1066_refresh", mem.DDR3_1066().WithRefresh()},
	}
}

// Calibration size of sim_dram: every concurrency level up to the SMT
// thread count, twice the task count the experiments use, so the DRAM
// model and the event queue do all the work.
const (
	dramMaxK           = 8
	dramTasksPerStream = 12
)

// dramFit is one expected fit in bench/expected/sim_dram.json. The
// bits decide; the decimal forms are for the reader.
type dramFit struct {
	Config  string  `json:"config"`
	TmlBits string  `json:"tml_bits"`
	TqlBits string  `json:"tql_bits"`
	TmlSec  float64 `json:"tml_sec"`
	TqlSec  float64 `json:"tql_sec"`
}

func fitOf(name string, cal mem.Calibration) dramFit {
	bits := func(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }
	return dramFit{
		Config:  name,
		TmlBits: bits(float64(cal.Tml)), TqlBits: bits(float64(cal.Tql)),
		TmlSec: float64(cal.Tml), TqlSec: float64(cal.Tql),
	}
}

// simDram calibrates three DRAM configurations in process, uncached.
// Only internal/sim and internal/mem run: a change to the simulator
// core shows here, a change to the scheduler or the experiments must
// not.
type simDram struct {
	expected map[string]dramFit
}

func calibrate(c dramConfig) (mem.Calibration, error) {
	return mem.Calibrate(c.cfg, dramMaxK, dramTasksPerStream, workload.Footprint)
}

// setupSimDram puts parallel on one worker for the instance's lifetime:
// Calibrate fans its levels out over parallel's default, and two busy
// threads on this host's two CPUs time the host (see simSweep).
// mem.calibrate.par_speedup_x in the traced run says what the fan-out
// buys.
func setupSimDram(rc *runConfig) (instance, error) {
	var fits []dramFit
	if err := readJSON(expectedPath(rc, "sim_dram.json"), &fits); err != nil {
		return nil, err
	}
	s := &simDram{expected: make(map[string]dramFit)}
	for _, f := range fits {
		s.expected[f.Config] = f
	}
	parallel.SetDefault(1)
	if _, err := calibrate(dramConfigs()[0]); err != nil { // warm-up
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *simDram) close() { parallel.SetDefault(0) }

func (s *simDram) measure(seconds float64, res *result) {
	start := time.Now()
	for i := 0; i == 0 || timeLeft(start, seconds); i++ {
		// One operation is one calibration; an iteration is one of each
		// configuration, and each is a part.
		for _, c := range dramConfigs() {
			t0, c0 := time.Now(), cpuSeconds()
			cal, err := calibrate(c)
			res.addPart("wall_s", c.name, time.Since(t0).Seconds())
			res.addPart("cpu_s", c.name, cpuSeconds()-c0)
			got, want := fitOf(c.name, cal), s.expected[c.name]
			res.check(err == nil && got.TmlBits == want.TmlBits && got.TqlBits == want.TqlBits, 1,
				"sim_dram: %s: fit Tml=%v Tql=%v (err %v) is not bit-equal to bench/expected/sim_dram.json", c.name, cal.Tml, cal.Tql, err)
		}
	}
}
