package mmapsnap

import (
	"fmt"
	"sync"

	"github.com/coax-index/coax/internal/gridfile"
)

// gridStore implements gridfile.PageStore over a compressed data region:
// CellSpan decodes the selected rows of a cell's blob straight into the
// caller's buffer, so concurrent scans share nothing mutable but the error
// latch. A corrupt blob records a sticky error on the snapshot and reads as
// an empty page — the query path cannot return an error mid-scan, so the
// caller checks Snapshot.PageErr after querying (and Verify can prove the
// whole file sound up front).
type gridStore struct {
	data    []byte   // compressed data region (aliases the mapping)
	pagedir []uint64 // cells+1 blob-end offsets into data
	rows    []int64  // cells+1 row offsets (the grid directory)
	dims    int
	sortDim int
	errs    *errBox
}

// errBox latches the first page error of an opened snapshot.
type errBox struct {
	mu  sync.Mutex
	err error
}

func (b *errBox) set(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *errBox) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// CellSpan implements gridfile.PageStore.
func (s *gridStore) CellSpan(c int, w gridfile.SortWindow, buf []float64) ([]float64, int) {
	rows := int(s.rows[c+1] - s.rows[c])
	if rows == 0 {
		return buf[:0], 0
	}
	blob := s.data[s.pagedir[c]:s.pagedir[c+1]]
	span, first, err := decodeSpan(blob, rows, s.dims, s.sortDim, w, buf)
	if err != nil {
		s.errs.set(fmt.Errorf("cell %d: %w", c, err))
		return buf[:0], 0
	}
	return span, first
}
