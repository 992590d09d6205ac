package core

import (
	"math"

	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/obs"
)

// Query execution v2: the stop-aware, instrumented entry points behind the
// public query builder. Every execution runs one partition walk (walk):
// translate, probe the primary grid with the routed rectangle, probe the
// outlier index with the original, each through the partition's batch
// scan. Exec hands the walk's batches to a row yield, ExecAgg (agg.go)
// folds them into an aggregate; Scan adapts Exec to index.Interface, and
// the legacy Query/QueryPrimary/QueryOutliers methods in coax.go are
// run-to-completion shims over the same walk.

// Translation records one application of the paper's Eq. 2 during query
// planning: the constraint on a dependent column mapped through its learned
// model ψ̂ and margins into an interval on the predictor column.
type Translation struct {
	// Dependent and Predictor are the column ordinals of the soft FD.
	Dependent int
	Predictor int
	// DepMin/DepMax is the query's original constraint on the dependent.
	DepMin, DepMax float64
	// PredMin/PredMax is the derived predictor interval — the x-range that
	// can map into the dependent band under ψ̂ ± ε (before intersection
	// with any native predictor constraint).
	PredMin, PredMax float64
	// Feasible is false when the inversion proved no inlier can satisfy
	// the dependent constraint.
	Feasible bool
}

// ProbeReport is the execution report of one COAX probe — the per-index
// half of an EXPLAIN.
type ProbeReport struct {
	// Translations holds one entry per dependent column the query
	// constrains, in column order.
	Translations []Translation
	// PrimaryFeasible is false when translation proved no inlier can match
	// (the primary probe was skipped entirely).
	PrimaryFeasible bool
	// PrimaryProbed/OutlierProbed report whether the query rectangle
	// overlapped each partition's bounding box; a false value means that
	// partition's probe was pruned without touching a page.
	PrimaryProbed bool
	OutlierProbed bool
	// Primary and Outlier hold the page/row counters of each partition's
	// scan.
	Primary index.Probe
	Outlier index.Probe
	// PrimaryKernel and OutlierKernel name the scan kernel an aggregation
	// execution dispatched per partition ("grid-batch", "rtree-batch",
	// ...); empty when the partition was pruned or the execution returned
	// rows.
	PrimaryKernel string
	OutlierKernel string
}

// Add accumulates o's counters and probe flags into p; translations are
// kept from the receiver (they are rectangle-level and identical for every
// index sharing the same learned models, as the shards of one table do).
func (p *ProbeReport) Add(o *ProbeReport) {
	if len(p.Translations) == 0 {
		p.Translations = o.Translations
		p.PrimaryFeasible = o.PrimaryFeasible
	}
	p.PrimaryProbed = p.PrimaryProbed || o.PrimaryProbed
	p.OutlierProbed = p.OutlierProbed || o.OutlierProbed
	p.Primary.Add(o.Primary)
	p.Outlier.Add(o.Outlier)
	if p.PrimaryKernel == "" {
		p.PrimaryKernel = o.PrimaryKernel
	}
	if p.OutlierKernel == "" {
		p.OutlierKernel = o.OutlierKernel
	}
}

// ObserveProbe folds one finished probe's report into the package-level
// scan metrics, including — for an aggregation, whose report names its
// kernels — a dispatch count per partition kernel and the rows its bitmaps
// selected. It lives here — not in obs — because obs must stay import-free
// of the engine packages; every layer that owns a complete query (shard
// fan-out, legacy batch path, the public single-index path) calls it once
// per underlying ProbeReport. Callers gate on obs.On().
func ObserveProbe(rep *ProbeReport) {
	if rep == nil {
		return
	}
	obs.ScanPagesPrimary.Add(rep.Primary.Pages)
	obs.ScanPagesOutlier.Add(rep.Outlier.Pages)
	obs.ScanRowsPrimary.Add(rep.Primary.Scanned)
	obs.ScanRowsOutlier.Add(rep.Outlier.Scanned)
	obs.ScanTombstones.Add(rep.Primary.Tombstones + rep.Outlier.Tombstones)
	obs.ScanBatches.Add(rep.Primary.Batches + rep.Outlier.Batches)
	obs.Translations.Add(int64(len(rep.Translations)))
	for _, tr := range rep.Translations {
		if !tr.Feasible {
			obs.TranslationsInfeas.Inc()
		}
	}
	if rep.PrimaryKernel != "" {
		obs.KernelDispatch(rep.PrimaryKernel).Inc()
		obs.BatchRowsSelected.Add(rep.Primary.Matched)
	}
	if rep.OutlierKernel != "" {
		obs.KernelDispatch(rep.OutlierKernel).Inc()
		obs.BatchRowsSelected.Add(rep.Outlier.Matched)
	}
}

// Scan implements index.Interface over Exec.
func (c *COAX) Scan(r index.Rect, yield index.Yield, probe *index.Probe) bool {
	var rep *ProbeReport
	if probe != nil {
		rep = &ProbeReport{}
	}
	complete := c.Exec(r, index.Spec{}, yield, rep)
	if probe != nil {
		probe.Add(rep.Primary)
		probe.Add(rep.Outlier)
	}
	return complete
}

// Exec answers r under the v2 contract: yield's return value stops the
// scan, spec.Ctx cancels it at page granularity, spec.Stable makes every
// delivered row a private copy, and a non-nil rep is filled with the
// execution report (translations applied, partitions probed or pruned,
// pages/rows scanned, tombstones filtered, batches). It reports whether
// the scan ran to completion.
func (c *COAX) Exec(r index.Rect, spec index.Spec, yield index.Yield, rep *ProbeReport) bool {
	if spec.Stable {
		inner := yield
		yield = func(row []float64) bool {
			cp := make([]float64, len(row))
			copy(cp, row)
			return inner(cp)
		}
	}
	return c.walk(r, spec, index.EachRow(yield), rep)
}

// walk is the one execution plan behind Exec and ExecAgg: probe the
// primary partition, then the outlier partition, handing every batch to
// yield. Cancellation reaches the scans through the probes' per-page abort
// hook — a yield-side check alone would never fire on a scan whose pages
// match nothing.
func (c *COAX) walk(r index.Rect, spec index.Spec, yield index.BatchYield, rep *ProbeReport) bool {
	abort := spec.Abort
	if spec.Ctx != nil {
		ctx, prev := spec.Ctx, abort
		abort = func() bool {
			return (prev != nil && prev()) || ctx.Err() != nil
		}
	}
	if !c.probePrimary(r, yield, rep, abort) {
		return false
	}
	if abort != nil && abort() {
		return false
	}
	return c.probeOutliers(r, yield, rep, abort)
}

// partitionProbe returns the probe to hand a partition's scan: the
// report's counter block slot when a report is wanted, a throwaway
// otherwise — a probe must exist whenever an abort hook needs carrying.
func partitionProbe(slot *index.Probe, abort func() bool) *index.Probe {
	if slot != nil {
		slot.Abort = abort
		return slot
	}
	if abort != nil {
		return &index.Probe{Abort: abort}
	}
	return nil
}

// probePrimary scans the primary grid with the translated rectangle, which
// keeps r's own constraints (see translate), so every selected row matches
// r.
func (c *COAX) probePrimary(r index.Rect, yield index.BatchYield, rep *ProbeReport, abort func() bool) bool {
	pruned := c.primary == nil || r.Empty() || !r.Overlaps(c.primaryBounds)
	if pruned && rep == nil {
		return true // skip the translation work the probe would not use
	}
	// Translation is rectangle-level planning: with a report requested it
	// runs even for a pruned probe, so an EXPLAIN always shows the derived
	// predictor intervals.
	routed, feasible := c.translate(r, rep)
	if pruned || !feasible {
		return true
	}
	var slot *index.Probe
	if rep != nil {
		rep.PrimaryProbed = true
		slot = &rep.Primary
	}
	return c.primary.ScanBatch(routed, yield, partitionProbe(slot, abort))
}

// probeOutliers scans the outlier index with the original rectangle.
func (c *COAX) probeOutliers(r index.Rect, yield index.BatchYield, rep *ProbeReport, abort func() bool) bool {
	if c.outliers == nil || r.Empty() || !r.Overlaps(c.outlierBounds) {
		return true
	}
	var slot *index.Probe
	if rep != nil {
		rep.OutlierProbed = true
		slot = &rep.Outlier
	}
	return c.outliers.ScanBatch(r, yield, partitionProbe(slot, abort))
}

// translate is Translate without releasing the dependent dimensions: it
// returns r with every derived predictor interval intersected in — the
// routed rectangle intersected with r, which is what the primary probe
// scans. Grid routing and the sort-dimension span read only grid and sort
// dimensions, which are never dependent columns, so keeping the dependent
// constraints walks the same cells and spans as the routed rectangle
// alone while selecting exactly the rows that also match r. It optionally
// records one Translation per constrained dependent column into rep. With
// rep == nil it returns on the first infeasible constraint; with a report
// it keeps going so the EXPLAIN shows every derived interval.
func (c *COAX) translate(r index.Rect, rep *ProbeReport) (routed index.Rect, feasible bool) {
	routed = r.Clone()
	feasible = true
	for d, pm := range c.depends {
		if pm == nil {
			continue
		}
		ql, qh := r.Min[d], r.Max[d]
		if math.IsInf(ql, -1) && math.IsInf(qh, 1) {
			continue // unconstrained dependent: nothing to translate
		}
		// Inliers satisfy ψ̂(x) − εLB ≤ d ≤ ψ̂(x) + εUB, so a match requires
		// ψ̂(x) ∈ [ql − εUB, qh + εLB]. InvertBand solves that for x under
		// either a linear or a spline model.
		xLo, xHi, ok := pm.InvertBand(ql-pm.EpsUB, qh+pm.EpsLB)
		if rep != nil {
			rep.Translations = append(rep.Translations, Translation{
				Dependent: d,
				Predictor: pm.X,
				DepMin:    ql,
				DepMax:    qh,
				PredMin:   xLo,
				PredMax:   xHi,
				Feasible:  ok,
			})
		}
		if !ok {
			feasible = false
			if rep == nil {
				return routed, false
			}
			continue
		}
		if xLo > routed.Min[pm.X] {
			routed.Min[pm.X] = xLo
		}
		if xHi < routed.Max[pm.X] {
			routed.Max[pm.X] = xHi
		}
		if routed.Min[pm.X] > routed.Max[pm.X] {
			feasible = false
			if rep == nil {
				return routed, false
			}
		}
	}
	if rep != nil {
		rep.PrimaryFeasible = feasible
	}
	return routed, feasible
}
