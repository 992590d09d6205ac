// Package scan provides the full-scan baseline: every row is checked
// against the query rectangle. It has zero directory overhead and serves as
// both the slowest baseline of Figure 6 and the correctness oracle for the
// property-based tests of every other index.
package scan

import (
	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

// Scan wraps a table as an index.Interface.
type Scan struct {
	t *dataset.Table
}

var _ index.Interface = (*Scan)(nil)

// New creates a full-scan "index" over t. The table is referenced, not
// copied.
func New(t *dataset.Table) *Scan { return &Scan{t: t} }

// Name implements index.Interface.
func (s *Scan) Name() string { return "FullScan" }

// Len implements index.Interface.
func (s *Scan) Len() int { return s.t.Len() }

// Dims implements index.Interface.
func (s *Scan) Dims() int { return s.t.Dims() }

// MemoryOverhead implements index.Interface; a scan keeps no directory.
func (s *Scan) MemoryOverhead() int64 { return 0 }

// Query implements index.Interface: the legacy run-to-completion shim over
// Scan.
func (s *Scan) Query(r index.Rect, visit index.Visitor) {
	s.Scan(r, index.AsYield(visit), nil)
}

// BatchKernel implements index.Engine.
func (s *Scan) BatchKernel() string { return "fullscan-batch" }

var _ index.Engine = (*Scan)(nil)

// ScanBatch implements index.Engine directly over the table's contiguous
// row-major slab: each window of index.BatchRows rows gets its selection
// bitmap from per-column range loops, with no per-row calls at all. Probe
// counters match Scan (one page, every row scanned, matches counted) plus
// one batch per window; the abort hook is polled per batch.
func (s *Scan) ScanBatch(r index.Rect, yield index.BatchYield, probe *index.Probe) bool {
	if r.Empty() {
		return true
	}
	dims := s.t.Dims()
	data := s.t.Data
	rows := s.t.Len()
	if probe != nil {
		probe.Pages++
		probe.Scanned += int64(rows)
	}
	// One batch and its selection words serve every window of the scan.
	sc := &struct {
		b   index.Batch
		sel [index.BatchRows / 64]uint64
	}{b: index.Batch{Dims: dims}}
	b := &sc.b
	for off := 0; off < rows; off += index.BatchRows {
		if probe.Aborted() {
			return false
		}
		n := min(rows-off, index.BatchRows)
		b.Page = data[off*dims : (off+n)*dims]
		b.Rows = n
		b.Sel = sc.sel[:index.BatchWords(n)]
		index.SelectRect(b.Page, dims, n, r, b.Sel)
		if probe != nil {
			probe.Matched += int64(b.Selected())
			probe.Batches++
		}
		if !yield(b) {
			return false
		}
	}
	return true
}

// Scan implements index.Interface by testing every row with r.Contains
// until yield stops the scan. It deliberately does not run on ScanBatch:
// it is the independent oracle the other indexes' tests compare against.
func (s *Scan) Scan(r index.Rect, yield index.Yield, probe *index.Probe) bool {
	if r.Empty() {
		return true
	}
	dims := s.t.Dims()
	data := s.t.Data
	if probe != nil {
		probe.Pages++
		probe.Scanned += int64(s.t.Len())
	}
	// A full scan has no pages; poll the abort hook every pageRows rows so
	// cancellation still lands at page-ish granularity.
	const pageRows = 4096
	sinceAbort := 0
	for off := 0; off < len(data); off += dims {
		if sinceAbort++; sinceAbort >= pageRows {
			sinceAbort = 0
			if probe.Aborted() {
				return false
			}
		}
		row := data[off : off+dims : off+dims]
		if r.Contains(row) {
			if probe != nil {
				probe.Matched++
			}
			if !yield(row) {
				return false
			}
		}
	}
	return true
}
