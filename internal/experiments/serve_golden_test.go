package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// serveGolden renders the S1 serving table from e.
func serveGolden(t *testing.T, e Env) Table {
	t.Helper()
	tab, err := ServeS1(e)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestServeSweepMatchesGolden pins the S1 goodput-vs-load table
// byte-for-byte in both stable formats (goldens regenerate with
// -update, shared with golden_test.go). The table folds in seeded
// arrival streams, per-rep histogram merges and the capacity
// calibration, so this is the determinism contract of the whole
// open-loop serving stack.
func TestServeSweepMatchesGolden(t *testing.T) {
	tab := serveGolden(t, freshEnv(t, 4))
	for _, f := range []struct{ format, ext string }{{"text", "txt"}, {"json", "json"}} {
		got, err := tab.Render(f.format)
		if err != nil {
			t.Fatalf("render %s: %v", f.format, err)
		}
		path := filepath.Join("testdata", "golden", "S1."+f.ext)
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

// TestServeSweepDeterministicAcrossWorkers re-renders S1 serially and
// with a 4-way fan-out: byte-identical output required. Every cell
// owns its seeds and the grid assembles in grid order, so -j must
// never move a byte.
func TestServeSweepDeterministicAcrossWorkers(t *testing.T) {
	serial := serveGolden(t, freshEnv(t, 1))
	par := serveGolden(t, freshEnv(t, 4))
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
