package rtree

import "github.com/coax-index/coax/internal/index"

// Scanning. ScanBatch is the R-tree's one scan: the standard recursive
// search, pruning every subtree whose box misses the rectangle. Leaf
// entries are scattered across small nodes, so unlike the grid file there
// is no contiguous page to bitmap in place; instead candidate rows are
// gathered into a reusable row-major slab and the rectangle is evaluated
// per column over the slab once it fills — the copies cost one memmove per
// candidate but remove the per-row call and Contains check. Scan and Query
// are the row adapters over it.

// BatchKernel implements index.Engine.
func (rt *RTree) BatchKernel() string { return "rtree-batch" }

var _ index.Engine = (*RTree)(nil)

// rtGather is the per-call state of one ScanBatch: the candidate leaf rows
// gathered so far and the batch handed to every yield, reused for every
// batch.
type rtGather struct {
	b    index.Batch
	page []float64
	rows int
	sel  [index.BatchRows / 64]uint64
	r    index.Rect
}

// emit evaluates and yields the gathered batch, then resets the gather.
// It reports whether the scan should continue.
func (g *rtGather) emit(yield index.BatchYield, probe *index.Probe) bool {
	if g.rows == 0 {
		return true
	}
	b := &g.b
	b.Page = g.page
	b.Rows = g.rows
	b.Sel = g.sel[:index.BatchWords(g.rows)]
	index.SelectRect(b.Page, b.Dims, b.Rows, g.r, b.Sel)
	if probe != nil {
		probe.Matched += int64(b.Selected())
		probe.Batches++
	}
	g.page = g.page[:0]
	g.rows = 0
	return yield(b)
}

// ScanBatch implements index.Engine. Probe counters: one page per node
// visited, every entry of a visited leaf scanned, the selected rows
// matched, and one batch per full slab (plus the final partial one). The
// recursion unwinds as soon as yield declines a batch or the probe's abort
// hook fires.
func (rt *RTree) ScanBatch(r index.Rect, yield index.BatchYield, probe *index.Probe) bool {
	if r.Empty() || rt.n == 0 {
		return true
	}
	g := &rtGather{
		b:    index.Batch{Dims: rt.dims},
		page: make([]float64, 0, index.BatchRows*rt.dims),
		r:    r,
	}
	if !rt.searchBatch(rt.root, r, g, yield, probe) {
		return false
	}
	return g.emit(yield, probe) // flush the final partial batch
}

func (rt *RTree) searchBatch(nd *node, r index.Rect, g *rtGather, yield index.BatchYield, probe *index.Probe) bool {
	if probe.Aborted() {
		return false // cancelled: stop even if no node ever matches
	}
	if probe != nil {
		probe.Pages++
	}
	if nd.leaf {
		if probe != nil {
			probe.Scanned += int64(len(nd.entries))
		}
		for i := range nd.entries {
			g.page = append(g.page, nd.entries[i].min...)
			g.rows++
			if g.rows == index.BatchRows {
				if !g.emit(yield, probe) {
					return false
				}
			}
		}
		return true
	}
	for i := range nd.entries {
		e := &nd.entries[i]
		if overlaps(r, e.min, e.max) {
			if !rt.searchBatch(e.child, r, g, yield, probe) {
				return false
			}
		}
	}
	return true
}
