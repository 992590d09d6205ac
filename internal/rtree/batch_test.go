package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/scan"
)

// TestScanBatchMatchesScan runs the tree's scan — bulk-loaded, then with
// inserts, then with deletes — against the full-scan oracle over the live
// rows: identical row multisets, a Matched counter equal to the oracle's
// count, and every live row scanned on the full rectangle.
func TestScanBatchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tab := randomTable(rng, 3000, 3)
	rt, err := Bulk(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	live := make([][]float64, 0, tab.Len())
	for i := 0; i < tab.Len(); i++ {
		live = append(live, append([]float64(nil), tab.Row(i)...))
	}
	check := func(label string) {
		t.Helper()
		lt := dataset.NewTable(make([]string, 3))
		for _, row := range live {
			lt.Append(row)
		}
		oracle := scan.New(lt)
		for i := 0; i < 40; i++ {
			r := randRect(rng, 3)
			if i == 0 {
				r = index.Full(3)
			}
			var got [][]float64
			var p index.Probe
			rt.Scan(r, func(row []float64) bool {
				got = append(got, append([]float64(nil), row...))
				return true
			}, &p)
			want := index.Collect(oracle, r)
			if len(got) != len(want) {
				t.Fatalf("%s: %d rows vs oracle %d", label, len(got), len(want))
			}
			sortRows(got)
			sortRows(want)
			for j := range want {
				if !lifecycle.RowsEqual(got[j], want[j]) {
					t.Fatalf("%s: row %d differs: %v vs oracle %v", label, j, got[j], want[j])
				}
			}
			if p.Matched != int64(len(want)) {
				t.Fatalf("%s: Matched %d, oracle count %d", label, p.Matched, len(want))
			}
			if i == 0 && p.Scanned != int64(rt.Len()) {
				t.Fatalf("%s: full scan examined %d of %d rows", label, p.Scanned, rt.Len())
			}
		}
	}
	check("bulk")

	for i := 0; i < 500; i++ {
		row := []float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		if err := rt.Insert(row); err != nil {
			t.Fatal(err)
		}
		live = append(live, row)
	}
	check("inserted")

	for i := 0; i < 900; i += 3 {
		if rt.Delete(tab.Row(i)) {
			for j, row := range live {
				if lifecycle.RowsEqual(row, tab.Row(i)) {
					live = append(live[:j], live[j+1:]...)
					break
				}
			}
		}
	}
	check("deleted")
}

// TestScanBatchStops verifies batch-yield, row-yield and abort-hook
// termination.
func TestScanBatchStops(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tab := randomTable(rng, 5000, 2)
	rt, err := Bulk(tab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if rt.ScanBatch(index.Full(2), func(*index.Batch) bool { calls++; return false }, nil) {
		t.Fatal("stopped scan reported complete")
	}
	if calls != 1 {
		t.Fatalf("yield ran %d times after returning false", calls)
	}
	rows := 0
	if rt.Scan(index.Full(2), func([]float64) bool { rows++; return false }, nil) || rows != 1 {
		t.Fatalf("row scan delivered %d rows after a false yield, want 1 and incomplete", rows)
	}
	var p index.Probe
	p.Abort = func() bool { return true }
	if rt.ScanBatch(index.Full(2), func(*index.Batch) bool { return true }, &p) {
		t.Fatal("aborted scan reported complete")
	}
}

// TestScanBatchAllocsFlat pins the per-scan allocation count: the gather
// reuses one Batch and one slab, so a full scan of 20 batches allocates no
// more than one of 2.
func TestScanBatchAllocsFlat(t *testing.T) {
	allocs := func(rows int) float64 {
		rt, err := Bulk(randomTable(rand.New(rand.NewSource(9)), rows, 2), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		full := index.Full(2)
		batches := 0
		rt.ScanBatch(full, func(*index.Batch) bool { batches++; return true }, nil)
		if batches != rows/index.BatchRows {
			t.Fatalf("%d rows scanned in %d batches", rows, batches)
		}
		noop := func(*index.Batch) bool { return true }
		return testing.AllocsPerRun(20, func() { rt.ScanBatch(full, noop, nil) })
	}
	small, large := allocs(2*index.BatchRows), allocs(20*index.BatchRows)
	if large > small {
		t.Fatalf("ScanBatch allocates %.0f times for 20 batches vs %.0f for 2", large, small)
	}
}

func sortRows(rows [][]float64) {
	sort.Slice(rows, func(i, j int) bool {
		for d := range rows[i] {
			if rows[i][d] != rows[j][d] {
				return rows[i][d] < rows[j][d]
			}
		}
		return false
	})
}
