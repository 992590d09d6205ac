package core

import (
	"github.com/coax-index/coax/internal/index"
)

// Aggregation pushdown: ExecAgg is Exec's sibling for queries that want an
// aggregate instead of rows. It runs the same partition walk and folds
// each partition's selection bitmaps straight into an index.AggState: no
// row materialization, no visitor callbacks. The walk is shared, so the
// probe counters (pages, rows scanned, matches, tombstones, batches) equal
// Exec's for the same query.

// ExecAgg answers r by folding every matching row into st. spec.Ctx and
// spec.Abort cancel at page granularity exactly as in Exec (Limit and
// Stable are meaningless for aggregates and ignored); a non-nil rep is
// filled with the execution report, including the kernel dispatched per
// partition. It reports whether the scan ran to completion (false: it was
// aborted, and st holds a partial fold).
func (c *COAX) ExecAgg(r index.Rect, spec index.Spec, st *index.AggState, rep *ProbeReport) bool {
	complete := c.walk(r, spec, st.FoldBatch, rep)
	if rep != nil {
		if rep.PrimaryProbed {
			rep.PrimaryKernel = c.primary.BatchKernel()
		}
		if rep.OutlierProbed {
			rep.OutlierKernel = c.outliers.BatchKernel()
		}
	}
	return complete
}
