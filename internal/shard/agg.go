package shard

import (
	"sync/atomic"

	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
)

// Aggregation fan-out: ExecAgg is Exec's sibling for queries that want an
// aggregate instead of rows. Each worker folds its shard's rows into a
// private index.AggState through the shard's batch kernels (core.ExecAgg),
// so no rows cross goroutines at all — the merge boundary carries one
// partial aggregate per shard instead of row chunks. Partials are merged
// at the gather point in shard order, making the floating-point result
// deterministic run to run for a fixed shard layout. Pruning, the shared
// stop flag and context watcher, per-shard reports, trace spans and
// metrics come from the fan skeleton it shares with Exec.

// ExecAgg fans the aggregation described by aspec across the shards r can
// match and returns the merged state. spec.Ctx cancels the fan-out within
// about one page of work per worker (Limit and Stable are ignored —
// aggregates consume every matching row). A non-nil rep is filled with the
// fan-out report, including the kernels dispatched. The boolean reports
// whether every shard ran to completion; false (cancellation) leaves a
// partial fold in the returned state.
func (s *Sharded) ExecAgg(r index.Rect, spec index.Spec, aspec index.AggSpec, rep *Report) (*index.AggState, bool) {
	if obs.On() {
		obs.AggQueries.Inc()
	}
	var parts []*index.AggState
	complete := s.fan(r, spec, rep, func(f *fanOut) bool {
		parts = make([]*index.AggState, f.hi-f.lo+1)
		var incomplete atomic.Bool
		finished := make(chan struct{})
		f.run(func(si int) {
			st := index.NewAggState(aspec)
			parts[si-f.lo] = st
			idx, crep, start := f.acquire(si)
			if !idx.ExecAgg(r, f.shardSpec(), st, crep) {
				incomplete.Store(true)
			}
			f.release(si, crep, start)
		}, func() { close(finished) })
		<-finished
		return !incomplete.Load()
	})

	// Gather: merge partials in shard order — the deterministic association
	// that makes sums reproducible.
	total := index.NewAggState(aspec)
	for _, st := range parts {
		total.Merge(st)
	}
	return total, complete
}
