package mmapsnap

import (
	"testing"

	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/workload"
)

// BenchmarkExecAggCompressed times SUM(lon) over a timestamp window on one
// 500k-row OSM index opened from a raw and from a compressed v3 snapshot.
// The timestamp window translates to an id span on the primary grid's
// in-cell sort dimension, so the broad window decodes part of nearly every
// page and the selective one a sliver of each.
func BenchmarkExecAggCompressed(b *testing.B) {
	tab := testTable(b, 500_000)
	idx := buildIndex(b, tab, core.OutlierGrid)
	gen := workload.NewGenerator(tab, 5)
	windows := []struct {
		name string
		r    index.Rect
	}{
		{"window=15%", gen.PartialRects(1, []int{1}, 0.15)[0]},
		{"window=0.01%", gen.PartialRects(1, []int{1}, 0.0001)[0]},
	}
	spec := index.AggSpec{Op: index.AggSum, Col: 3, Group: -1}
	for _, compress := range []bool{false, true} {
		blob, err := EncodeIndex(idx, Options{Compress: compress})
		if err != nil {
			b.Fatal(err)
		}
		sn, err := OpenBytes(blob)
		if err != nil {
			b.Fatal(err)
		}
		name := "raw"
		if compress {
			name = "compressed"
		}
		for _, w := range windows {
			b.Run(name+"/"+w.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					sn.Index().ExecAgg(w.r, index.Spec{}, index.NewAggState(spec), nil)
				}
			})
		}
		if err := sn.PageErr(); err != nil {
			b.Fatal(err)
		}
	}
}
