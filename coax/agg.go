package coax

// Aggregation API: Count/Sum/Min/Max/Avg over a query's matching rows,
// optionally grouped by a categorical column, executed entirely inside the
// scan kernels — COUNT is a popcount over selection bitmaps, SUM/MIN/MAX
// walk only the set bits of the value column, and no row is ever
// materialized or handed to a visitor. The sharded engine folds one
// partial aggregate per shard and merges them in shard order at the gather
// point, so results are deterministic run to run for a fixed shard layout.
//
//	total, err := coax.NewQuery().
//		Where("lat", coax.Between(45, 50)).
//		Aggregate(idx, coax.Sum("lon"))
//
//	byCarrier, err := coax.NewQuery().
//		GroupBy("carrier").
//		Aggregate(idx, coax.Avg("arr_delay"))

import (
	"fmt"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
	"github.com/coax-index/coax/internal/shard"
)

// colRef names a column by name or position (dim used when name == "").
type colRef struct {
	name string
	dim  int
}

func (c colRef) label() string {
	if c.name != "" {
		return c.name
	}
	return fmt.Sprintf("column %d", c.dim)
}

// An Aggregation selects the aggregate a query computes; build one with
// CountRows, Sum, Min, Max, or Avg (or their positional Dim variants) and
// pass it to Query.Aggregate.
type Aggregation struct {
	op  index.AggOp
	col colRef
}

// CountRows counts the matching rows. It reads no column at all — on the
// batch path it is a pure popcount over selection bitmaps.
func CountRows() Aggregation { return Aggregation{op: index.AggCount} }

// Sum sums the named column over the matching rows.
func Sum(col string) Aggregation { return Aggregation{op: index.AggSum, col: colRef{name: col}} }

// Min takes the minimum of the named column over the matching rows.
func Min(col string) Aggregation { return Aggregation{op: index.AggMin, col: colRef{name: col}} }

// Max takes the maximum of the named column over the matching rows.
func Max(col string) Aggregation { return Aggregation{op: index.AggMax, col: colRef{name: col}} }

// Avg averages the named column over the matching rows.
func Avg(col string) Aggregation { return Aggregation{op: index.AggAvg, col: colRef{name: col}} }

// SumDim, MinDim, MaxDim, and AvgDim are the positional variants for
// tables built without column names.
func SumDim(dim int) Aggregation { return Aggregation{op: index.AggSum, col: colRef{dim: dim}} }

// MinDim is Min by column position.
func MinDim(dim int) Aggregation { return Aggregation{op: index.AggMin, col: colRef{dim: dim}} }

// MaxDim is Max by column position.
func MaxDim(dim int) Aggregation { return Aggregation{op: index.AggMax, col: colRef{dim: dim}} }

// AvgDim is Avg by column position.
func AvgDim(dim int) Aggregation { return Aggregation{op: index.AggAvg, col: colRef{dim: dim}} }

// GroupBy groups the aggregate by the named column: Aggregate returns one
// GroupResult per distinct value. The column should be categorical — every
// distinct float64 becomes its own group.
func (q *Query) GroupBy(col string) *Query {
	q.group = &colRef{name: col}
	return q
}

// GroupByDim is GroupBy by column position.
func (q *Query) GroupByDim(dim int) *Query {
	q.group = &colRef{dim: dim}
	return q
}

// AggResult is the outcome of one aggregation execution.
type AggResult struct {
	// Op names the aggregate computed ("count", "sum", "min", "max", "avg").
	Op string
	// Count is the number of rows aggregated (summed across groups for a
	// grouped result).
	Count int64
	// Value is the ungrouped aggregate. Valid is false when the value is
	// undefined — MIN/MAX/AVG over zero rows, or any grouped result (see
	// Groups instead).
	Value float64
	Valid bool
	// Groups holds the per-group results sorted by ascending key; non-nil
	// exactly when the query had a GroupBy.
	Groups []GroupResult
	// Complete is false when a cancelled context stopped the scan early, in
	// which case the aggregate covers only the rows folded before the stop.
	Complete bool
	// Explain is the execution report, non-nil when the query was built
	// with WithExplain.
	Explain *Explain
}

// GroupResult is one group of a GroupBy aggregate.
type GroupResult struct {
	// Key is the group's value in the group-by column.
	Key float64
	// Count is the number of rows in the group.
	Count int64
	// Value is the group's aggregate under the requested op.
	Value float64
}

// resolveCol resolves a column reference against the index, mirroring the
// name resolution Compile applies to predicates.
func resolveCol(idx Querier, ref colRef, what string) (int, error) {
	d := ref.dim
	if ref.name != "" {
		cols := columnsOf(idx)
		d = -1
		for i, c := range cols {
			if c == ref.name {
				d = i
				break
			}
		}
		if d < 0 {
			if len(cols) == 0 {
				return 0, fmt.Errorf("coax: index has no column names; use the Dim variant for %s %q", what, ref.name)
			}
			return 0, fmt.Errorf("coax: unknown %s column %q", what, ref.name)
		}
	}
	if d < 0 || d >= idx.Dims() {
		return 0, fmt.Errorf("coax: %s %s out of range [0,%d)", what, ref.label(), idx.Dims())
	}
	return d, nil
}

// Aggregate compiles and executes the query as an aggregation pushdown:
// the engine folds matching rows into the aggregate inside its scan
// kernels and no row reaches this layer. Limit and Stable are ignored
// (aggregates consume every matching row); the context cancels the scan
// exactly as in Run, returning the context's error alongside the partial
// result.
func (q *Query) Aggregate(idx Querier, agg Aggregation) (*AggResult, error) {
	r, err := q.Compile(idx)
	if err != nil {
		return nil, err
	}
	aspec := index.AggSpec{Op: agg.op, Col: -1, Group: -1}
	if agg.op.NeedsColumn() {
		if aspec.Col, err = resolveCol(idx, agg.col, "aggregate"); err != nil {
			return nil, err
		}
	}
	if q.group != nil {
		if aspec.Group, err = resolveCol(idx, *q.group, "group-by"); err != nil {
			return nil, err
		}
	}

	var exp *Explain
	if q.explain {
		exp = newExplain(idx, r)
	}
	spec := index.Spec{Ctx: q.ctx}
	track := obs.On()
	start := time.Now()

	var st *index.AggState
	var complete bool
	switch ix := idx.(type) {
	case *ShardedIndex:
		var rep *shard.Report
		if exp != nil {
			rep = &shard.Report{}
			spec.Trace = obs.NewTrace()
		}
		st, complete = ix.ExecAgg(r, spec, aspec, rep)
		if exp != nil {
			exp.fromShard(rep)
			exp.fromTrace(spec.Trace)
		}
	case *Index:
		st = index.NewAggState(aspec)
		var crep *core.ProbeReport
		if exp != nil || track {
			crep = &core.ProbeReport{}
		}
		complete = ix.ExecAgg(r, spec, st, crep)
		if exp != nil {
			exp.fromCore(crep)
		}
		if track {
			q.observeAgg(start, crep)
		}
	default:
		// Generic Querier: the legacy visitor path with a row-at-a-time
		// fold — correct, but without kernel pushdown or early abort.
		st = index.NewAggState(aspec)
		complete = runGeneric(idx, r, spec, func(row []float64) bool {
			st.FoldRow(row)
			return true
		})
		if track {
			q.observeAgg(start, nil)
		}
	}

	res := newAggResult(agg.op, st, complete)
	if exp != nil {
		exp.Elapsed = time.Since(start)
		exp.Complete = complete
		fillAggExplain(exp, aspec, st)
		res.Explain = exp
	}
	if q.ctx != nil && q.ctx.Err() != nil {
		res.Complete = false
		if exp != nil {
			exp.Cancelled = true
			exp.Complete = false
		}
		return res, q.ctx.Err()
	}
	return res, nil
}

// observeAgg records one finished non-sharded aggregation in the
// query-plane and batch-kernel metrics (the sharded path counts inside
// shard.ExecAgg, the layer owning that fan-out).
func (q *Query) observeAgg(start time.Time, crep *core.ProbeReport) {
	obs.Queries.Inc()
	obs.AggQueries.Inc()
	obs.QuerySeconds.Observe(time.Since(start).Seconds())
	if q.ctx != nil && q.ctx.Err() != nil {
		obs.QueryCancelled.Inc()
	}
	core.ObserveProbe(crep)
}

// newAggResult extracts the public result from a folded state.
func newAggResult(op index.AggOp, st *index.AggState, complete bool) *AggResult {
	res := &AggResult{Op: op.String(), Complete: complete}
	if st.Spec.Group < 0 {
		res.Count = st.All.Count
		res.Value, res.Valid = st.All.Value(op)
		return res
	}
	keys := st.GroupKeys()
	res.Groups = make([]GroupResult, 0, len(keys))
	for _, k := range keys {
		c := st.Groups[k]
		v, _ := c.Value(op)
		res.Groups = append(res.Groups, GroupResult{Key: k, Count: c.Count, Value: v})
		res.Count += c.Count
	}
	return res
}

// fillAggExplain completes the EXPLAIN's aggregation section from the
// probe totals (kernels were already recorded by fromCore).
func fillAggExplain(exp *Explain, aspec index.AggSpec, st *index.AggState) {
	if exp.Agg == nil {
		exp.Agg = &AggExplain{}
	}
	a := exp.Agg
	a.Op = aspec.Op.String()
	if aspec.Op.NeedsColumn() {
		a.Column = exp.colName(aspec.Col)
	}
	if aspec.Group >= 0 {
		a.GroupBy = exp.colName(aspec.Group)
		a.Groups = len(st.Groups)
	}
	a.Batches = exp.Primary.Batches + exp.Outlier.Batches
	scanned := exp.Primary.RowsScanned + exp.Outlier.RowsScanned
	matched := exp.Primary.RowsMatched + exp.Outlier.RowsMatched
	if a.Batches > 0 {
		a.RowsPerBatch = float64(scanned) / float64(a.Batches)
	}
	if scanned > 0 {
		a.Selectivity = float64(matched) / float64(scanned)
	}
}
