package gridfile

import (
	"math/bits"

	"github.com/coax-index/coax/internal/index"
)

// Scanning. ScanBatch is the grid file's one scan: an odometer over the
// rectangle's cell sub-lattice visits only overlapping cells, each cell's
// main and overflow page is narrowed to the binary-searched span of the
// in-cell sort dimension, and each span is cut into windows of at most
// index.BatchRows rows whose selection bitmap is computed by per-column
// range loops and masked against the tombstone bitmap before the batch is
// handed to the caller. Scan and Query are the row adapters over it.

// BatchKernel implements index.Engine.
func (g *GridFile) BatchKernel() string { return "grid-batch" }

var _ index.Engine = (*GridFile)(nil)

// batchScratch is the per-call state of one ScanBatch: the batch handed to
// every yield, its selection words, and the buffer a page store decodes
// each sort span into. It is allocated once per scan and reused for every
// batch and page, never shared — the grid file stays safe for concurrent
// readers.
type batchScratch struct {
	b    index.Batch
	sel  [index.BatchRows / 64]uint64
	span []float64
}

// ScanBatch implements index.Engine. Probe counters: one page per
// non-empty main or overflow page visited, every row of its sort span
// scanned, every tombstone in the span filtered (matching or not), the
// selected rows matched, and one batch per window handed to yield. The
// scan stops — skipping every remaining page — as soon as yield returns
// false or the probe's abort hook fires.
func (g *GridFile) ScanBatch(r index.Rect, yield index.BatchYield, probe *index.Probe) bool {
	if r.Empty() {
		return true
	}
	sc := &batchScratch{b: index.Batch{Dims: g.dims}}

	nd := len(g.cfg.GridDims)
	lattice := make([]int, 3*nd)
	lo, hi, idx := lattice[:nd], lattice[nd:2*nd], lattice[2*nd:]
	for i, d := range g.cfg.GridDims {
		lo[i] = g.locate(i, r.Min[d])
		hi[i] = g.locate(i, r.Max[d])
	}

	// Odometer over the cell sub-lattice [lo, hi].
	copy(idx, lo)
	for {
		if probe.Aborted() {
			return false // cancelled: stop even if no cell ever matches
		}
		c := 0
		for i := range idx {
			c += idx[i] * g.strides[i]
		}
		if g.offsets[c+1] > g.offsets[c] {
			span, first := g.mainSpan(c, r, sc)
			if !g.batchSpan(span, int(g.offsets[c])+first, r, yield, probe, sc) {
				return false
			}
		}
		if page := g.overflow[c]; page != nil {
			// Overflow pages delete in place and hold no tombstones.
			lo, hi := g.querySpan(page.data, r)
			if !g.batchSpan(page.data[lo*g.dims:hi*g.dims], -1, r, yield, probe, sc) {
				return false
			}
		}

		i := nd - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] <= hi[i] {
				break
			}
			idx[i] = lo[i]
		}
		if i < 0 {
			return true
		}
	}
}

// mainSpan returns the sort span of cell c's main page for r, and the
// index of its first row in the page. A store decodes just that span into
// the scan's scratch, which the next page overwrites.
func (g *GridFile) mainSpan(c int, r index.Rect, sc *batchScratch) ([]float64, int) {
	if g.store == nil {
		page := g.cellPage(c)
		lo, hi := g.querySpan(page, r)
		return page[lo*g.dims : hi*g.dims], lo
	}
	w := SortWindow{Whole: true}
	if sd := g.cfg.SortDim; sd >= 0 {
		w = SortWindow{Min: r.Min[sd], Max: r.Max[sd]}
	}
	span, first := g.store.CellSpan(c, w, sc.span)
	sc.span = span[:cap(span)]
	return span, first
}

// batchSpan yields the sort span of one non-empty page in windows of at
// most index.BatchRows rows. base is the global slot of the span's first
// row, used to mask tombstones, or -1 for a page without any.
func (g *GridFile) batchSpan(span []float64, base int, r index.Rect, yield index.BatchYield, probe *index.Probe, sc *batchScratch) bool {
	dims := g.dims
	rows := len(span) / dims
	if probe != nil {
		probe.Pages++
		probe.Scanned += int64(rows)
	}
	b := &sc.b
	for s := 0; s < rows; s += index.BatchRows {
		n := min(rows-s, index.BatchRows)
		b.Page = span[s*dims : (s+n)*dims]
		b.Rows = n
		b.Sel = sc.sel[:index.BatchWords(n)]
		index.SelectRect(b.Page, dims, n, r, b.Sel)
		if base >= 0 && g.deadCount > 0 {
			// Every tombstone in the span counts, matching or not.
			dead := g.maskDead(base+s, n, b.Sel)
			if probe != nil {
				probe.Tombstones += int64(dead)
			}
		}
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

// maskDead clears from sel (one word per 64 slots) the tombstoned slots
// among the n starting at global slot start, and returns how many of the n
// are tombstoned. The bitmap may be shorter than the slot range — missing
// words read as zero, exactly as isDead treats them.
func (g *GridFile) maskDead(start, n int, sel []uint64) int {
	base := start >> 6
	off := uint(start) & 63
	count := 0
	for w := range sel {
		var word uint64
		k := base + w
		if k < len(g.dead) {
			word = g.dead[k] >> off
			if off != 0 && k+1 < len(g.dead) {
				word |= g.dead[k+1] << (64 - off)
			}
		}
		rem := n - w<<6
		if rem < 64 {
			word &= 1<<uint(rem) - 1
		}
		sel[w] &^= word
		count += bits.OnesCount64(word)
	}
	return count
}
