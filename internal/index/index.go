package index

import (
	"context"

	"github.com/coax-index/coax/internal/obs"
)

// Visitor receives one matching row per call. It is the legacy
// run-to-completion contract; new code should use Yield, whose return value
// can stop the scan early.
//
// Ownership contract: the slice must be valid — unread and unwritten by
// any other goroutine — for the full duration of the call. Single-threaded
// indexes (grid file, R-tree, scan, COAX) pass a slice aliasing their
// internals that may be reused after the call returns, so visitors must
// copy rows they retain. Engines that merge results across goroutines
// (internal/shard) may not hand out internal slices at all: they must copy
// each row at the merge boundary before invoking the visitor, which makes
// their rows stable copies that stay valid even after the call.
type Visitor func(row []float64)

// Yield is the v2 visitor contract: it receives one matching row per call
// and reports whether the scan should continue. Returning false stops the
// scan — the index abandons the remaining pages, and a multi-shard engine
// signals every worker to stop. Row ownership follows the same rule as
// Visitor unless the caller requested stable rows (Spec.Stable).
type Yield func(row []float64) bool

// Probe accumulates the execution counters of one scan — the raw material
// of the public Explain report — and optionally carries the scan's abort
// hook. A nil *Probe disables both, so the hot path pays only a pointer
// test.
type Probe struct {
	// Pages counts storage units visited: grid-file main and overflow
	// pages, R-tree nodes, or whole-table scans (one page).
	Pages int64
	// Scanned counts candidate rows examined against the rectangle.
	Scanned int64
	// Matched counts rows selected for the yield: on a batch scan, the set
	// bits of every batch handed to it.
	Matched int64
	// Tombstones counts deleted rows filtered at the visitor boundary.
	Tombstones int64
	// Batches counts selection-bitmap batches handed to the yield; row
	// scans of an Engine count them too, since they run on its batches.
	Batches int64
	// Abort, when non-nil, is polled at page boundaries; returning true
	// stops the scan exactly as a false-returning yield would. This is how
	// cancellation reaches scans whose pages match nothing — a yield-side
	// check alone would never fire on them.
	Abort func() bool
}

// Add accumulates o's counters into p.
func (p *Probe) Add(o Probe) {
	p.Pages += o.Pages
	p.Scanned += o.Scanned
	p.Matched += o.Matched
	p.Tombstones += o.Tombstones
	p.Batches += o.Batches
}

// Aborted reports whether the probe carries an abort hook that has fired;
// implementations poll it once per page.
func (p *Probe) Aborted() bool {
	return p != nil && p.Abort != nil && p.Abort()
}

// Spec carries the execution options of one v2 scan, compiled by the public
// query builder and honored by every engine.
type Spec struct {
	// Ctx cancels the scan when done; nil means no cancellation. Engines
	// check it at page granularity, so a scan stops within about one page
	// of cancellation.
	Ctx context.Context
	// Limit is the maximum number of rows the caller will consume, or ≤ 0
	// for all of them. It is a sizing and short-circuit hint — the caller's
	// yield still enforces the exact cutoff — letting a sharded engine stop
	// each shard after Limit local matches and size its buffers to match.
	Limit int
	// Stable requires every row handed to the yield to be a private copy
	// that stays valid after the call returns, regardless of which engine
	// answers the query.
	Stable bool
	// Abort, when non-nil, is polled at page granularity alongside Ctx;
	// returning true stops the scan. Engines composing engines (the shard
	// fan-out) use it to propagate their shared stop flag into per-shard
	// scans so even match-free probes notice a stop promptly.
	Abort func() bool
	// Trace, when non-nil, collects per-unit timing spans as the query
	// executes (one span per shard probe in the sharded engine). Engines
	// that do not decompose a query into units may ignore it.
	Trace *obs.Trace
}

// Done reports whether the spec's context has been cancelled.
func (s *Spec) Done() bool {
	return s.Ctx != nil && s.Ctx.Err() != nil
}

// Interface is the contract shared by every multidimensional index in this
// repository. Implementations must return exactly the rows matching the
// rectangle — no more, no fewer — regardless of internal over-approximation.
type Interface interface {
	// Name identifies the index variant in benchmark output.
	Name() string
	// Len reports the number of rows indexed.
	Len() int
	// Dims reports the row dimensionality.
	Dims() int
	// Query invokes visit for every indexed row inside r (the legacy
	// run-to-completion entry point, a shim over Scan).
	Query(r Rect, visit Visitor)
	// Scan invokes yield for every indexed row inside r until yield
	// returns false, accumulating execution counters into probe when it is
	// non-nil. It reports whether the scan ran to completion (false: the
	// yield stopped it).
	Scan(r Rect, yield Yield, probe *Probe) bool
	// MemoryOverhead reports the directory size in bytes: everything the
	// index allocates beyond the row payload itself (grid boundaries, cell
	// offset tables, tree nodes, model parameters).
	MemoryOverhead() int64
}

// AsYield adapts a legacy visitor to the v2 contract; the scan never stops.
func AsYield(visit Visitor) Yield {
	return func(row []float64) bool { visit(row); return true }
}

// Count runs the query and returns the number of matching rows.
func Count(idx Interface, r Rect) int {
	n := 0
	idx.Scan(r, func([]float64) bool { n++; return true }, nil)
	return n
}

// Collect runs the query and returns copies of all matching rows.
func Collect(idx Interface, r Rect) [][]float64 {
	var out [][]float64
	idx.Scan(r, func(row []float64) bool {
		cp := make([]float64, len(row))
		copy(cp, row)
		out = append(out, cp)
		return true
	}, nil)
	return out
}
