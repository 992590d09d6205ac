package core

import (
	"sync"
	"testing"

	"github.com/coax-index/coax/internal/dataset"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/workload"
)

// BenchmarkExecKNN measures one row query through Exec — translation, the
// primary probe and the outlier probe — over 100-nearest-neighbour
// rectangles on 400k synthetic OSM rows, the shape of a selective serving
// query. Run with:
//
//	go test ./internal/core -run NONE -bench ExecKNN -benchmem
func BenchmarkExecKNN(b *testing.B) {
	c, rects := knnFixture(b)
	rows := 0
	yield := func([]float64) bool { rows++; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Exec(rects[i%len(rects)], index.Spec{}, yield, nil)
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}

var knn struct {
	once  sync.Once
	c     *COAX
	rects []index.Rect
	err   error
}

// knnFixture builds the benchmark index once per process, so the b.N
// ramp-up does not rebuild it.
func knnFixture(b *testing.B) (*COAX, []index.Rect) {
	knn.once.Do(func() {
		tab := dataset.GenerateOSM(dataset.DefaultOSMConfig(400_000))
		knn.c, knn.err = Build(tab, DefaultOptions())
		knn.rects = workload.NewGenerator(tab, 1).KNNRects(256, 100)
	})
	if knn.err != nil {
		b.Fatal(knn.err)
	}
	return knn.c, knn.rects
}
