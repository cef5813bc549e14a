package experiments

import (
	"strconv"
	"testing"
)

// TestHostDomainCountersStructure runs the D1H host sweep and checks
// the run-invariant structure: one row per (domain count, domain),
// pairs split by the round-robin home rule, and peak admitted
// concurrency bounded by the per-domain MTL. The counter values
// themselves are live wall-clock measurements and deliberately
// unchecked.
func TestHostDomainCountersStructure(t *testing.T) {
	tab, err := HostDomainCounters(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "D1H" {
		t.Fatalf("table ID = %q, want D1H", tab.ID)
	}
	wantRows := 1 + 2 + 4
	if len(tab.Rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), wantRows)
	}
	cell := func(row []string, i int) int {
		t.Helper()
		v, err := strconv.Atoi(row[i])
		if err != nil {
			t.Fatalf("row %v cell %d: %v", row, i, err)
		}
		return v
	}
	const totalPairs, mtl = 96, 2
	byCount := map[int]int{} // domain count -> pairs seen
	for _, row := range tab.Rows {
		domains, dom := cell(row, 0), cell(row, 1)
		if dom < 0 || dom >= domains {
			t.Errorf("row %v: domain %d out of range for %d domains", row, dom, domains)
		}
		pairs := cell(row, 2)
		want := totalPairs / domains
		if dom < totalPairs%domains {
			want++
		}
		if pairs != want {
			t.Errorf("row %v: %d pairs homed, want %d", row, pairs, want)
		}
		byCount[domains] += pairs
		if peak := cell(row, 5); peak > mtl {
			t.Errorf("row %v: peak active %d exceeds per-domain MTL %d", row, peak, mtl)
		}
	}
	for domains, sum := range byCount {
		if sum != totalPairs {
			t.Errorf("%d domains: %d pairs total, want %d", domains, sum, totalPairs)
		}
	}
	for _, format := range []string{"text", "csv", "json"} {
		if _, err := tab.Render(format); err != nil {
			t.Errorf("render %s: %v", format, err)
		}
	}
}
