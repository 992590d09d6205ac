package gridfile

import (
	"math/rand"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/lifecycle"
	"github.com/coax-index/coax/internal/scan"
	"github.com/coax-index/coax/internal/workload"
)

// liveRows mirrors a grid file's live multiset as the test mutates it, so
// a full scan over it is the oracle for every query.
type liveRows struct{ rows [][]float64 }

func newLiveRows(t *dataset.Table) *liveRows {
	l := &liveRows{}
	for i := 0; i < t.Len(); i++ {
		l.rows = append(l.rows, append([]float64(nil), t.Row(i)...))
	}
	return l
}

func (l *liveRows) insert(row []float64) { l.rows = append(l.rows, append([]float64(nil), row...)) }

// remove drops one row equal to row, as a successful Delete does.
func (l *liveRows) remove(row []float64) {
	for i, r := range l.rows {
		if lifecycle.RowsEqual(r, row) {
			l.rows = append(l.rows[:i], l.rows[i+1:]...)
			return
		}
	}
}

func (l *liveRows) oracle(dims int) *scan.Scan {
	t := dataset.NewTable(make([]string, dims))
	for _, r := range l.rows {
		t.Append(r)
	}
	return scan.New(t)
}

// TestScanBatchMatchesScan runs the grid file's scan over every mutation
// state — fresh, with overflow inserts, with tombstones, both, and
// compacted — and requires the row multiset of the full-scan oracle, a
// Matched counter equal to the oracle's count, and on the full rectangle
// every stored row scanned and every tombstone filtered.
func TestScanBatchMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := randomTable(rng, 4000, 3)
	del := func(g *GridFile, live *liveRows, row []float64) {
		if g.Delete(row) {
			live.remove(row)
		}
	}
	ins := func(g *GridFile, live *liveRows, row []float64) {
		if err := g.Insert(row); err != nil {
			t.Fatal(err)
		}
		live.insert(row)
	}
	mutate := map[string]func(*GridFile, *liveRows){
		"fresh": func(*GridFile, *liveRows) {},
		"overflow": func(g *GridFile, live *liveRows) {
			for i := 0; i < 300; i++ {
				ins(g, live, []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10})
			}
		},
		"tombstoned": func(g *GridFile, live *liveRows) {
			for i := 0; i < 500; i += 3 {
				del(g, live, tab.Row(i))
			}
		},
		"overflow+tombstoned": func(g *GridFile, live *liveRows) {
			for i := 0; i < 200; i++ {
				ins(g, live, append([]float64(nil), tab.Row(i)...))
			}
			for i := 0; i < 600; i += 2 {
				del(g, live, tab.Row(i))
			}
		},
		"compacted": func(g *GridFile, live *liveRows) {
			for i := 0; i < 500; i += 3 {
				del(g, live, tab.Row(i))
			}
			g.Compact()
		},
	}
	for name, mut := range mutate {
		t.Run(name, func(t *testing.T) {
			g, err := Build(tab, Config{GridDims: []int{0, 1}, SortDim: 2, CellsPerDim: 6})
			if err != nil {
				t.Fatal(err)
			}
			live := newLiveRows(tab)
			mut(g, live)
			oracle := live.oracle(3)
			rects := make([]index.Rect, 0, 42)
			for i := 0; i < 40; i++ {
				rects = append(rects, workload.RandRect(rng, tab))
			}
			rects = append(rects, index.Full(3), index.Point(tab.Row(7)))
			for _, r := range rects {
				var got [][]float64
				var p index.Probe
				if !g.Scan(r, func(row []float64) bool {
					got = append(got, append([]float64(nil), row...))
					return true
				}, &p) {
					t.Fatal("unstopped scan reported incomplete")
				}
				want := index.Collect(oracle, r)
				sameRows(t, got, want)
				if p.Matched != int64(len(want)) {
					t.Fatalf("Matched %d, oracle count %d", p.Matched, len(want))
				}
				if p.Matched > 0 && p.Batches == 0 {
					t.Fatalf("matched %d rows in zero batches", p.Matched)
				}
			}
			var p index.Probe
			g.ScanBatch(index.Full(3), func(*index.Batch) bool { return true }, &p)
			if p.Scanned != int64(g.StoredRows()) || p.Tombstones != int64(g.Tombstones()) {
				t.Fatalf("full scan: scanned %d of %d stored rows, filtered %d of %d tombstones",
					p.Scanned, g.StoredRows(), p.Tombstones, g.Tombstones())
			}
		})
	}
}

// TestScanBatchStops verifies that a false-returning yield stops the scan
// after that call — at batch granularity on ScanBatch, at row granularity
// on Scan — and that the abort hook stops it even when nothing is yielded.
func TestScanBatchStops(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tab := randomTable(rng, 2000, 2)
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	complete := g.ScanBatch(index.Full(2), func(b *index.Batch) bool {
		calls++
		return false
	}, nil)
	if complete || calls != 1 {
		t.Fatalf("complete=%v after %d yields, want aborted after 1", complete, calls)
	}

	rows := 0
	if g.Scan(index.Full(2), func([]float64) bool { rows++; return false }, nil) || rows != 1 {
		t.Fatalf("row scan delivered %d rows after a false yield, want 1 and incomplete", rows)
	}

	// An abort hook fires at page granularity even when nothing matches.
	var p index.Probe
	p.Abort = func() bool { return true }
	if g.ScanBatch(index.Full(2), func(*index.Batch) bool { return true }, &p) {
		t.Fatal("aborted scan reported complete")
	}
}

// TestScanBatchSelectionInvariants checks the bitmap contract every fold
// relies on: tail bits past Rows are zero and Selected agrees with Each.
func TestScanBatchSelectionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tab := randomTable(rng, 3000, 2)
	g, err := Build(tab, Config{GridDims: []int{0}, SortDim: 1, CellsPerDim: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i += 2 {
		g.Delete(tab.Row(i))
	}
	r := workload.RandRect(rng, tab)
	g.ScanBatch(r, func(b *index.Batch) bool {
		if b.Rows < 1 || b.Rows > index.BatchRows {
			t.Fatalf("batch carries %d rows", b.Rows)
		}
		if len(b.Sel) != index.BatchWords(b.Rows) {
			t.Fatalf("%d selection words for %d rows", len(b.Sel), b.Rows)
		}
		if tail := b.Rows & 63; tail != 0 {
			if b.Sel[len(b.Sel)-1]&^(1<<uint(tail)-1) != 0 {
				t.Fatal("selection bits set past Rows")
			}
		}
		n := 0
		b.Each(func(row []float64) bool {
			if !r.Contains(row) {
				t.Fatalf("selected row %v outside %v", row, r)
			}
			n++
			return true
		})
		if n != b.Selected() {
			t.Fatalf("Each visited %d rows, Selected says %d", n, b.Selected())
		}
		return true
	}, nil)
}

// TestScanBatchAllocsFlat pins the per-scan allocation count: a scan
// reuses one Batch for every window, so a full scan of 20 batches
// allocates no more than one of 2.
func TestScanBatchAllocsFlat(t *testing.T) {
	allocs := func(rows int) float64 {
		rng := rand.New(rand.NewSource(45))
		g, err := Build(randomTable(rng, rows, 2), Config{GridDims: []int{0}, SortDim: -1, CellsPerDim: 1})
		if err != nil {
			t.Fatal(err)
		}
		full := index.Full(2)
		batches := 0
		g.ScanBatch(full, func(*index.Batch) bool { batches++; return true }, nil)
		if batches != rows/index.BatchRows {
			t.Fatalf("%d rows scanned in %d batches", rows, batches)
		}
		noop := func(*index.Batch) bool { return true }
		return testing.AllocsPerRun(20, func() { g.ScanBatch(full, noop, nil) })
	}
	small, large := allocs(2*index.BatchRows), allocs(20*index.BatchRows)
	if large > small {
		t.Fatalf("ScanBatch allocates %.0f times for 20 batches vs %.0f for 2", large, small)
	}
}
