package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// domainGolden renders the 2-domain sweep — the simulated analogue of
// the paper's 2-DIMM platform — from e.
func domainGolden(t *testing.T, e Env) Table {
	t.Helper()
	tab, err := DomainScalingCounts(e, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestDomainSweepMatchesGolden pins the 2-domain Fig13-style sweep
// byte-for-byte in both stable formats (the goldens regenerate with
// -update, shared with golden_test.go).
func TestDomainSweepMatchesGolden(t *testing.T) {
	tab := domainGolden(t, freshEnv(t, 1))
	for _, f := range []struct{ format, ext string }{{"text", "txt"}, {"json", "json"}} {
		got, err := tab.Render(f.format)
		if err != nil {
			t.Fatalf("render %s: %v", f.format, err)
		}
		path := filepath.Join("testdata", "golden", "D1-2dom."+f.ext)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s output drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
				f.format, path, got, want)
		}
	}
}

// TestDomainSweepMatchesGoldenAccelerated re-renders the 2-domain
// golden on four workers (`-j 4`). It must match the committed golden
// byte for byte.
func TestDomainSweepMatchesGoldenAccelerated(t *testing.T) {
	if *update {
		t.Skip("goldens are updated by the plain variant only")
	}
	tab := domainGolden(t, freshEnv(t, 4))
	for _, f := range []struct{ format, ext string }{{"text", "txt"}, {"json", "json"}} {
		got, err := tab.Render(f.format)
		if err != nil {
			t.Fatalf("render %s: %v", f.format, err)
		}
		path := filepath.Join("testdata", "golden", "D1-2dom."+f.ext)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run the plain variant with -update to create): %v", err)
		}
		if got != string(want) {
			t.Errorf("-j 4 %s output drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s",
				f.format, path, got, want)
		}
	}
}

// TestDomainSweepDeterministicAcrossWorkers re-runs the 2-domain sweep
// serially and with a 4-way fan-out: the rendered tables must be
// byte-identical. Per-domain pools and the admissibility scan in the
// simulated dispatcher are deterministic per seed, and the parallel
// grid assembles in grid order, so -j must never move a byte.
func TestDomainSweepDeterministicAcrossWorkers(t *testing.T) {
	serial := domainGolden(t, freshEnv(t, 1))
	par := domainGolden(t, freshEnv(t, 4))
	for _, format := range []string{"text", "json"} {
		a, err := serial.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s output differs between -j 1 and -j 4\n--- j1 ---\n%s\n--- j4 ---\n%s", format, a, b)
		}
	}
}
