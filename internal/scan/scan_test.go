package scan

import (
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

func TestScanBasics(t *testing.T) {
	tab := dataset.NewTable([]string{"a", "b"})
	tab.Append([]float64{1, 10})
	tab.Append([]float64{2, 20})
	tab.Append([]float64{3, 30})
	s := New(tab)
	if s.Name() != "FullScan" || s.Len() != 3 || s.Dims() != 2 || s.MemoryOverhead() != 0 {
		t.Error("identity accessors broken")
	}
	r := index.NewRect([]float64{1.5, 0}, []float64{3, 25})
	if got := index.Count(s, r); got != 1 {
		t.Errorf("Count = %d, want 1 (only row {2,20})", got)
	}
	if got := index.Count(s, index.Full(2)); got != 3 {
		t.Errorf("full rect Count = %d, want 3", got)
	}
}

func TestScanEmptyRect(t *testing.T) {
	tab := dataset.NewTable([]string{"a"})
	tab.Append([]float64{1})
	s := New(tab)
	r := index.NewRect([]float64{2}, []float64{1})
	if index.Count(s, r) != 0 {
		t.Error("empty rect must match nothing")
	}
}

func TestScanVisitsRowsInOrder(t *testing.T) {
	tab := dataset.NewTable([]string{"a"})
	for i := 0; i < 5; i++ {
		tab.Append([]float64{float64(i)})
	}
	s := New(tab)
	var got []float64
	s.Query(index.Full(1), func(row []float64) { got = append(got, row[0]) })
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("scan order broken: %v", got)
		}
	}
}

// TestScanBatchAllocsFlat pins the per-scan allocation count: a scan
// reuses one Batch for every window, so a full scan of 20 batches
// allocates no more than one of 2.
func TestScanBatchAllocsFlat(t *testing.T) {
	allocs := func(rows int) float64 {
		tab := dataset.NewTable([]string{"a", "b"})
		for i := 0; i < rows; i++ {
			tab.Append([]float64{float64(i), float64(-i)})
		}
		s := New(tab)
		full := index.Full(2)
		batches := 0
		s.ScanBatch(full, func(*index.Batch) bool { batches++; return true }, nil)
		if batches != rows/index.BatchRows {
			t.Fatalf("%d rows scanned in %d batches", rows, batches)
		}
		noop := func(*index.Batch) bool { return true }
		return testing.AllocsPerRun(20, func() { s.ScanBatch(full, noop, nil) })
	}
	small, large := allocs(2*index.BatchRows), allocs(20*index.BatchRows)
	if large > small {
		t.Fatalf("ScanBatch allocates %.0f times for 20 batches vs %.0f for 2", large, small)
	}
}
