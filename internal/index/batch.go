package index

import (
	"math"
	"math/bits"
)

// Batch-at-a-time scanning: the one scan every storage engine implements.
// An engine evaluates the rectangle as tight per-column loops over a
// page's rows and hands the caller one selection bitmap per batch.
// Aggregations fold straight off the bitmap (COUNT is a popcount;
// SUM/MIN/MAX walk only the set bits), and row consumers walk the set bits
// through Batch.Each — ScanRows is that adapter, and it is how every engine
// answers the row-at-a-time Scan of Interface.

// BatchRows is the maximum number of rows in one Batch: large enough to
// amortize per-batch bookkeeping, small enough that a batch's selection
// words and the column values it touches stay cache-resident.
const BatchRows = 1024

// BatchWords returns the number of 64-bit selection words covering rows.
func BatchWords(rows int) int { return (rows + 63) >> 6 }

// Batch is one unit of a batch scan: a window of candidate rows in their
// native row-major page layout plus the selection bitmap the kernel
// computed over them. Bit i of Sel set means row i satisfies the query
// rectangle (and is not tombstoned). Tail bits past Rows are always zero,
// so popcounts over Sel need no edge handling.
//
// Ownership follows the row-scan rule: Page and Sel alias scratch that is
// reused after the yield returns, so consumers must copy anything they
// retain.
type Batch struct {
	// Page is the row-major window: Rows*Dims values, row i occupying
	// Page[i*Dims : (i+1)*Dims].
	Page []float64
	// Dims is the row stride.
	Dims int
	// Rows is the number of candidate rows in the window.
	Rows int
	// Sel is the selection bitmap, BatchWords(Rows) words long.
	Sel []uint64
}

// BatchYield receives one batch per call and reports whether the scan
// should continue, mirroring Yield's contract at batch granularity.
type BatchYield func(b *Batch) bool

// Engine is the contract of a storage engine with a batch kernel (grid
// file, R-tree, full scan) — what COAX requires of its outlier partition.
// ScanBatch is the engine's one scan: it hands yield every window of
// candidate rows it examines, with bit i of the selection set iff row i
// lies inside r and is live, accumulates the probe counters (pages, rows
// scanned, rows selected, tombstones, batches) and reports whether the
// scan ran to completion (false: the yield or the probe's abort hook
// stopped it). The engine's Scan is ScanRows over it.
type Engine interface {
	Interface
	ScanBatch(r Rect, yield BatchYield, probe *Probe) bool
	// BatchKernel names the engine's scan kernel for EXPLAIN output and
	// the per-kernel dispatch metrics.
	BatchKernel() string
}

// ScanRows is the row-at-a-time Scan of an engine: its batch scan with
// each batch's selected rows handed to yield.
func ScanRows(e Engine, r Rect, yield Yield, probe *Probe) bool {
	return e.ScanBatch(r, EachRow(yield), probe)
}

// EachRow adapts a row yield to a batch yield that hands it every selected
// row of each batch through Batch.Each.
func EachRow(yield Yield) BatchYield {
	return func(b *Batch) bool { return b.Each(yield) }
}

// Selected returns the number of set bits in the batch's selection bitmap.
func (b *Batch) Selected() int {
	n := 0
	for _, w := range b.Sel {
		n += bits.OnesCount64(w)
	}
	return n
}

// Row returns row i of the window (aliasing the page).
func (b *Batch) Row(i int) []float64 {
	return b.Page[i*b.Dims : (i+1)*b.Dims : (i+1)*b.Dims]
}

// Each hands yield every selected row of the batch, in page order. It
// reports whether every selected row was delivered (false: yield stopped
// it).
func (b *Batch) Each(yield Yield) bool {
	for w, word := range b.Sel {
		base := w << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			if !yield(b.Row(i)) {
				return false
			}
		}
	}
	return true
}

// SelectRect computes the selection bitmap of r over a row-major window:
// bit i of sel is set iff r.Contains(row i). Each constrained dimension is
// evaluated as one tight loop over its column (stride dims), producing
// 64-bit match words that are AND-intersected across dimensions;
// unconstrained dimensions cost nothing. sel must hold BatchWords(rows)
// words; tail bits are left zero. The per-value test is the exact negation
// of Contains' rejection test, so NaN handling matches Contains
// bit-for-bit.
func SelectRect(page []float64, dims, rows int, r Rect, sel []uint64) {
	words := BatchWords(rows)
	first := true
	for d := range r.Min {
		lo, hi := r.Min[d], r.Max[d]
		if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
			continue // unconstrained: every row passes
		}
		if first {
			rangeBitsInit(page, dims, d, rows, lo, hi, sel[:words])
			first = false
		} else {
			rangeBitsAnd(page, dims, d, rows, lo, hi, sel[:words])
		}
	}
	if first {
		// No constrained dimension: all rows selected.
		for w := 0; w < words; w++ {
			sel[w] = ^uint64(0)
		}
		if tail := rows & 63; tail != 0 {
			sel[words-1] = (1 << uint(tail)) - 1
		}
	}
}

// rangeBitsInit writes the match words of one column range test:
// bit i set iff !(v < lo || v > hi) for v = page[i*dims+col].
func rangeBitsInit(page []float64, dims, col, rows int, lo, hi float64, out []uint64) {
	off := col
	for w := range out {
		n := rows - w<<6
		if n > 64 {
			n = 64
		}
		var bits uint64
		for i := 0; i < n; i++ {
			v := page[off]
			off += dims
			if !(v < lo || v > hi) {
				bits |= 1 << uint(i)
			}
		}
		out[w] = bits
	}
}

// rangeBitsAnd intersects one column's match words into out, skipping
// 64-row blocks already dead — the common case on selective queries.
func rangeBitsAnd(page []float64, dims, col, rows int, lo, hi float64, out []uint64) {
	for w := range out {
		have := out[w]
		if have == 0 {
			continue
		}
		n := rows - w<<6
		if n > 64 {
			n = 64
		}
		off := w<<6*dims + col
		var bits uint64
		for i := 0; i < n; i++ {
			v := page[off]
			off += dims
			if !(v < lo || v > hi) {
				bits |= 1 << uint(i)
			}
		}
		out[w] = have & bits
	}
}
