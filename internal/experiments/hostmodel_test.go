package experiments

import (
	"math"
	"runtime"
	"strconv"
	"testing"
)

// TestHostModelH1Structure runs H1 and pins what holds on every
// machine: a Run row and a Serve row per configuration the machine is
// wide enough for, nine columns, and finite positive numbers in every
// measured cell. The values are wall-clock and deliberately unchecked.
// It also pins where H1 lives: Find knows it, Catalog (and so `-all`,
// whose tables the benchmark harness digests) does not.
func TestHostModelH1Structure(t *testing.T) {
	spec, ok := Find("H1")
	if !ok {
		t.Fatal("Find(H1) failed")
	}
	for _, s := range Catalog() {
		if s.ID == "H1" {
			t.Error("H1 is in Catalog: bench/ fails any -all table without a digest")
		}
	}
	tab, err := spec.Run(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "H1" || len(tab.Columns) != 9 {
		t.Fatalf("table %q with %d columns, want H1 with 9", tab.ID, len(tab.Columns))
	}
	configs := 1 // (2, 1) always runs
	if runtime.NumCPU() >= 4 {
		configs = 3
	}
	if len(tab.Rows) != 2*configs {
		t.Fatalf("got %d rows, want %d (Run and Serve for %d configurations)", len(tab.Rows), 2*configs, configs)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells, want %d", row, len(row), len(tab.Columns))
		}
		if want := []string{"Run", "Serve"}[i%2]; row[2] != want {
			t.Errorf("row %d path = %q, want %q", i, row[2], want)
		}
		for _, c := range []int{0, 1, 3, 4, 5, 6, 7} {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil || math.IsInf(v, 0) || !(v > 0) {
				t.Errorf("row %v: %s = %q, want a finite positive number", row, tab.Columns[c], row[c])
			}
		}
		if row[8] != "cores" && row[8] != "memory" {
			t.Errorf("row %v: model bound = %q", row, row[8])
		}
	}
	if len(tab.Notes) < configs+1 {
		t.Errorf("%d notes, want the wake latency per configuration and the Dynamic line", len(tab.Notes))
	}
	for _, format := range []string{"text", "csv", "json"} {
		if _, err := tab.Render(format); err != nil {
			t.Errorf("render %s: %v", format, err)
		}
	}
}
