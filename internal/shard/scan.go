package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
)

// Query execution v2 for the sharded engine. Unlike the legacy
// Query/BatchQuery path — which buffers each probe's complete result set
// and merges deterministically afterwards — Exec streams rows to the caller
// while the fan-out is still running, so a satisfied limit, a false-
// returning yield, or a cancelled context stops every worker promptly:
// workers observe a shared atomic stop flag before producing each row, and
// a context watcher raises the same flag the moment the context is done.
// The price of streaming is delivery order: rows arrive in whatever order
// the shards produce them.

// scanChunkRows is how many rows a worker accumulates before handing a
// chunk to the merge loop; limited scans shrink it to the limit so the
// first satisfying rows are delivered (and the fan-out stopped) as early as
// possible.
const scanChunkRows = 128

// Report describes one v2 fan-out: how many shards the rectangle pruned
// versus probed, plus the aggregated per-shard execution report
// (translations are recorded once — every shard shares the same learned
// models, so they translate identically).
type Report struct {
	ShardsProbed int
	ShardsPruned int
	Core         core.ProbeReport
}

// Columns returns the column names of the underlying table (empty when the
// build table carried none).
func (s *Sharded) Columns() []string {
	slot := s.shards[0]
	slot.mu.RLock()
	defer slot.mu.RUnlock()
	return slot.idx.Columns()
}

// Scan implements index.Interface over Exec.
func (s *Sharded) Scan(r index.Rect, yield index.Yield, probe *index.Probe) bool {
	var rep *Report
	if probe != nil {
		rep = &Report{}
	}
	complete := s.Exec(r, index.Spec{}, yield, rep)
	if probe != nil {
		probe.Add(rep.Core.Primary)
		probe.Add(rep.Core.Outlier)
	}
	return complete
}

// Exec fans r across the shards it can match under the v2 contract: rows
// are delivered to yield on the calling goroutine as workers produce them,
// yield's return value stops the whole fan-out, spec.Ctx cancels it within
// about one page (chunk) of work, and spec.Limit lets each worker stop its
// shard after that many local matches (any Limit matching rows satisfy the
// caller, so a shard that alone found enough need not keep scanning). Rows
// handed to yield are always stable copies — the merge-boundary copy makes
// spec.Stable free here. The visitor must not mutate this index (Insert /
// Delete / Update / rebuilds) from inside the call: probes hold shard read
// locks while the visitor runs, so a reentrant write deadlocks; the legacy
// Query/BatchQuery path, which buffers every row before visiting, remains
// the surface for that pattern. A non-nil rep is filled with the fan-out
// report. Exec reports whether the scan ran to completion (false: stopped
// early by yield or cancellation).
func (s *Sharded) Exec(r index.Rect, spec index.Spec, yield index.Yield, rep *Report) bool {
	var delivered int64
	complete := s.fan(r, spec, rep, func(f *fanOut) bool {
		return f.stream(r, yield, &delivered)
	})
	if obs.On() {
		obs.QueryRows.Add(delivered)
	}
	return complete
}

// fanOut is the state of one Exec or ExecAgg fan-out over the shards
// [lo, hi]: the shared stop flag every probe polls as its per-page abort
// hook, and one report per probed shard (nil when neither the caller, the
// metrics nor a trace want them).
type fanOut struct {
	s      *Sharded
	spec   index.Spec
	lo, hi int
	stop   atomic.Bool
	reps   []*core.ProbeReport
}

// fan is the skeleton Exec and ExecAgg share. This layer owns the whole
// query, so it is where queries are counted exactly once (core runs once
// per probed shard and must not count). fan prunes an empty rectangle and
// the shards outside shardRange, raises the stop flag the moment spec.Ctx
// is done, lets run probe the remaining shards, then merges the per-shard
// reports into rep and records the query's metrics. run reports whether
// its probes ran to completion; a cancelled context always makes the
// result incomplete.
func (s *Sharded) fan(r index.Rect, spec index.Spec, rep *Report, run func(f *fanOut) bool) bool {
	// With instrumentation on, per-shard reports are created even when the
	// caller asked for none, so page/row/translation counters are fed from
	// the same ProbeReport plumbing EXPLAIN uses.
	track := obs.On()
	var start time.Time
	if track {
		start = time.Now()
		obs.Queries.Inc()
	}

	if r.Empty() {
		if rep != nil {
			rep.ShardsPruned = len(s.shards)
		}
		if track {
			obs.ShardsPruned.Add(int64(len(s.shards)))
			obs.QuerySeconds.Observe(time.Since(start).Seconds())
		}
		return true
	}
	f := &fanOut{s: s, spec: spec}
	f.lo, f.hi = s.shardRange(r)
	probes := f.hi - f.lo + 1
	if rep != nil {
		rep.ShardsProbed = probes
		rep.ShardsPruned = len(s.shards) - probes
	}

	if spec.Ctx != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-spec.Ctx.Done():
				f.stop.Store(true)
			case <-watchDone:
			}
		}()
	}

	if rep != nil || track || spec.Trace != nil {
		f.reps = make([]*core.ProbeReport, probes)
		for i := range f.reps {
			f.reps[i] = &core.ProbeReport{}
		}
	}

	complete := run(f)
	cancelled := spec.Done()
	if cancelled {
		complete = false
	}

	if rep != nil {
		for _, crep := range f.reps {
			rep.Core.Add(crep)
		}
	}
	if track {
		obs.QuerySeconds.Observe(time.Since(start).Seconds())
		obs.ShardsProbed.Add(int64(probes))
		obs.ShardsPruned.Add(int64(len(s.shards) - probes))
		switch {
		case cancelled:
			obs.QueryCancelled.Inc()
		case !complete:
			obs.EarlyStops.Inc()
		}
		for _, crep := range f.reps {
			core.ObserveProbe(crep)
		}
	}
	return complete
}

// run probes every shard of the fan-out on a bounded pool of workers,
// each claiming the next unprobed shard in order, and returns without
// waiting for them; the last worker to finish calls done. Workers start on
// the caller's goroutine, so the first probe begins without a scheduling
// hop, and no goroutine beyond the workers is needed to detect the end.
func (f *fanOut) run(probe func(si int), done func()) {
	var next atomic.Int64
	next.Store(int64(f.lo))
	workers := min(f.s.workers, f.hi-f.lo+1)
	var live atomic.Int64
	live.Store(int64(workers))
	for w := 0; w < workers; w++ {
		go func() {
			for si := int(next.Add(1) - 1); si <= f.hi; si = int(next.Add(1) - 1) {
				probe(si)
			}
			if live.Add(-1) == 0 {
				done()
			}
		}()
	}
}

// shardSpec is the spec each shard probe runs under: the shared stop flag
// rides in as the per-page abort hook, so a probe whose pages match
// nothing still notices a met limit or a cancelled context within one
// page.
func (f *fanOut) shardSpec() index.Spec { return index.Spec{Abort: f.stop.Load} }

// acquire read-locks shard si for a probe and returns its index, its
// report (nil when none is kept) and the probe's start time. The caller
// scans and then calls release.
func (f *fanOut) acquire(si int) (idx *core.COAX, crep *core.ProbeReport, start time.Time) {
	if f.reps != nil {
		crep = f.reps[si-f.lo]
	}
	if obs.On() || f.spec.Trace != nil {
		start = time.Now()
	}
	slot := f.s.shards[si]
	slot.mu.RLock()
	return slot.idx, crep, start
}

// release unlocks shard si after a probe and records the probe's wall time
// in the shard-scan histogram and the trace.
func (f *fanOut) release(si int, crep *core.ProbeReport, start time.Time) {
	f.s.shards[si].mu.RUnlock()
	if start.IsZero() {
		return // neither the metrics nor a trace wanted the time
	}
	elapsed := time.Since(start)
	if obs.On() {
		obs.ShardScanSeconds.Observe(elapsed.Seconds())
	}
	if f.spec.Trace != nil && crep != nil {
		f.spec.Trace.AddSpan(fmt.Sprintf("shard-%02d", si), elapsed,
			crep.Primary.Pages+crep.Outlier.Pages,
			crep.Primary.Scanned+crep.Outlier.Scanned)
	}
}

// stream is Exec's fan-out: workers copy matching rows into chunks at the
// merge boundary and hand them to the calling goroutine over a channel;
// the caller yields rows as chunks arrive, counting them into *delivered,
// and raises the stop flag — observed by every worker before each row — as
// soon as the yield declines, the limit hint is met, or the context is
// done. Two rules keep it deadlock-free: the caller always drains the
// channel to completion, so workers never block on a departed consumer;
// and a worker never does a blocking send while holding its shard's read
// lock — chunks that cannot be sent immediately accumulate locally and are
// flushed after the probe releases the lock, so a stalled consumer delays
// delivery, not the lock.
func (f *fanOut) stream(r index.Rect, yield index.Yield, delivered *int64) bool {
	spec, dims := f.spec, f.s.dims
	chunkRows := scanChunkRows
	if spec.Limit > 0 && spec.Limit < chunkRows {
		chunkRows = spec.Limit
	}
	chunkLen := chunkRows * dims

	out := make(chan []float64, min(f.s.workers, f.hi-f.lo+1))
	f.run(func(si int) {
		var pending [][]float64
		flush := func(buf []float64) {
			select {
			case out <- buf:
			default:
				pending = append(pending, buf)
			}
		}
		buf := make([]float64, 0, chunkLen)
		produced := 0
		idx, crep, start := f.acquire(si)
		idx.Exec(r, f.shardSpec(), func(row []float64) bool {
			if f.stop.Load() {
				return false
			}
			buf = append(buf, row...) // the merge-boundary copy
			produced++
			if len(buf) >= chunkLen {
				flush(buf)
				buf = make([]float64, 0, chunkLen)
			}
			// Any spec.Limit matching rows satisfy the caller, so this
			// shard alone has produced enough: stop it.
			return spec.Limit <= 0 || produced < spec.Limit
		}, crep)
		if len(buf) > 0 {
			flush(buf)
		}
		f.release(si, crep, start)
		// Deliver what the non-blocking sends could not; no lock is
		// held now, and the caller drains until close, so these sends
		// always terminate. A raised stop flag means the caller
		// discards everything anyway — skip the handoff.
		for _, p := range pending {
			if f.stop.Load() {
				break
			}
			out <- p
		}
	}, func() { close(out) })

	complete := true
	for buf := range out {
		// The context is checked once per chunk — the "about one page"
		// cancellation granularity — while the stop flag (set by the
		// watcher, a declined yield, or a met limit) is checked per row.
		// fan's final Done() check turns any cancellation into an
		// incomplete result.
		if spec.Done() {
			f.stop.Store(true)
		}
		for off := 0; off+dims <= len(buf); off += dims {
			if f.stop.Load() {
				break // stopping: discard the rest of the chunk
			}
			// Full-capacity sub-slices keep a retaining caller from
			// reaching neighbouring rows through append.
			*delivered++
			if !yield(buf[off : off+dims : off+dims]) {
				f.stop.Store(true)
				complete = false
				break
			}
		}
	}
	return complete
}
