package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
)

// copyTable deep-copies a table so per-kind mutations stay independent.
func copyTable(t *dataset.Table) *dataset.Table {
	cp := dataset.NewTable(t.Cols)
	for i := 0; i < t.Len(); i++ {
		cp.Append(t.Row(i))
	}
	return cp
}

// foldRowPath runs the row-at-a-time execution and folds the same
// aggregate in the visitor — the oracle the pushdown must reproduce.
func foldRowPath(c *COAX, r index.Rect, spec index.AggSpec) (*index.AggState, *ProbeReport) {
	st := index.NewAggState(spec)
	rep := &ProbeReport{}
	c.Exec(r, index.Spec{}, func(row []float64) bool {
		st.FoldRow(row)
		return true
	}, rep)
	return st, rep
}

// TestExecAggMatchesExec is the probe-parity regression test: on both
// outlier-index kinds, across fresh/tombstoned/compacted states, ExecAgg
// must produce bit-identical aggregates AND a ProbeReport identical to the
// row path's — same pages, rows scanned, tombstones skipped, rows matched,
// batches — with the kernel names as the only aggregation-path addition.
func TestExecAggMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := fdTable(rng, 20000, 0.12)

	kinds := map[string]OutlierIndexKind{
		"grid-outliers":  OutlierGrid,
		"rtree-outliers": OutlierRTree,
	}
	for kname, kind := range kinds {
		t.Run(kname, func(t *testing.T) {
			opt := testOptions()
			opt.OutlierKind = kind
			c, err := Build(copyTable(tab), opt)
			if err != nil {
				t.Fatal(err)
			}
			states := []struct {
				name string
				prep func()
			}{
				{"fresh", func() {}},
				{"tombstoned", func() {
					for i := 0; i < 2000; i += 2 {
						if err := c.Delete(tab.Row(i)); err != nil {
							t.Fatal(err)
						}
					}
				}},
				{"compacted", func() { c.Compact() }},
			}
			specs := []index.AggSpec{
				{Op: index.AggCount, Col: -1, Group: -1},
				{Op: index.AggSum, Col: 3, Group: -1},
				{Op: index.AggMin, Col: 1, Group: -1},
				{Op: index.AggMax, Col: 0, Group: -1},
				{Op: index.AggAvg, Col: 3, Group: -1},
			}
			for _, state := range states {
				state.prep()
				for qi := 0; qi < 30; qi++ {
					r := randQuery(rng, tab)
					for _, spec := range specs {
						want, wantRep := foldRowPath(c, r, spec)
						got := index.NewAggState(spec)
						gotRep := &ProbeReport{}
						if !c.ExecAgg(r, index.Spec{}, got, gotRep) {
							t.Fatalf("%s: unaborted ExecAgg incomplete", state.name)
						}
						sameAggState(t, state.name, spec, got, want)
						sameReport(t, state.name, gotRep, wantRep)
					}
				}
			}
		})
	}
}

// sameAggState requires bit-identical fold results: the batch path visits
// rows in exactly the row path's order, so even SUM must match to the bit.
func sameAggState(t *testing.T, label string, spec index.AggSpec, got, want *index.AggState) {
	t.Helper()
	eq := func(a, b index.AggCell) bool {
		return a.Count == b.Count &&
			math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
			(a.Count == 0 || (math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
				math.Float64bits(a.Max) == math.Float64bits(b.Max)))
	}
	if !eq(got.All, want.All) {
		t.Fatalf("%s op %v: batch fold %+v vs row fold %+v", label, spec.Op, got.All, want.All)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups batched vs %d row-folded", label, len(got.Groups), len(want.Groups))
	}
	for k, w := range want.Groups {
		g := got.Groups[k]
		if g == nil || !eq(*g, *w) {
			t.Fatalf("%s group %g: batch fold %+v vs row fold %+v", label, k, g, w)
		}
	}
}

// sameReport compares the two execution reports field by field. The
// kernel names exist only on the aggregation path; everything else —
// translations, pruning flags, and every per-partition counter, batches
// included, since both paths run the same partition walk — must be
// identical.
func sameReport(t *testing.T, label string, got, want *ProbeReport) {
	t.Helper()
	g, w := *got, *want
	g.PrimaryKernel, g.OutlierKernel = "", ""
	w.PrimaryKernel, w.OutlierKernel = "", ""
	if !reflect.DeepEqual(g.Translations, w.Translations) ||
		g.PrimaryFeasible != w.PrimaryFeasible ||
		g.PrimaryProbed != w.PrimaryProbed || g.OutlierProbed != w.OutlierProbed {
		t.Fatalf("%s: plan diverged: batch %+v vs row %+v", label, g, w)
	}
	sameCounters := func(a, b index.Probe) bool {
		return a.Pages == b.Pages && a.Scanned == b.Scanned &&
			a.Matched == b.Matched && a.Tombstones == b.Tombstones &&
			a.Batches == b.Batches
	}
	if !sameCounters(g.Primary, w.Primary) || !sameCounters(g.Outlier, w.Outlier) {
		t.Fatalf("%s: counters diverged:\nbatch primary %+v outlier %+v\nrow   primary %+v outlier %+v",
			label, g.Primary, g.Outlier, w.Primary, w.Outlier)
	}
	if got.PrimaryProbed && got.PrimaryKernel == "" {
		t.Fatalf("%s: probed primary reported no kernel", label)
	}
}

// TestExecAggGrouped exercises the grouped fold against a visitor-built
// oracle map on a categorical synthetic column.
func TestExecAggGrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tab := fdTable(rng, 15000, 0.1)
	// Make column 2 categorical so groups are meaningful.
	for i := 0; i < tab.Len(); i++ {
		tab.Row(i)[2] = math.Floor(tab.Row(i)[2] / 10)
	}
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec := index.AggSpec{Op: index.AggSum, Col: 3, Group: 2}
	for qi := 0; qi < 20; qi++ {
		r := randQuery(rng, tab)
		want, _ := foldRowPath(c, r, spec)
		got := index.NewAggState(spec)
		if !c.ExecAgg(r, index.Spec{}, got, nil) {
			t.Fatal("unaborted ExecAgg incomplete")
		}
		sameAggState(t, "grouped", spec, got, want)
	}
}

// TestExecAggCancellation verifies a cancelled context stops the fold and
// reports incompleteness, mirroring Exec.
func TestExecAggCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tab := fdTable(rng, 20000, 0.1)
	c, err := Build(tab, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := index.NewAggState(index.AggSpec{Op: index.AggCount, Col: -1, Group: -1})
	if c.ExecAgg(index.Full(4), index.Spec{Ctx: ctx}, st, nil) {
		t.Fatal("cancelled ExecAgg reported complete")
	}
	full := index.NewAggState(index.AggSpec{Op: index.AggCount, Col: -1, Group: -1})
	if !c.ExecAgg(index.Full(4), index.Spec{}, full, nil) {
		t.Fatal("live ExecAgg incomplete")
	}
	if st.All.Count >= full.All.Count {
		t.Fatalf("cancelled fold counted %d of %d rows", st.All.Count, full.All.Count)
	}
}
