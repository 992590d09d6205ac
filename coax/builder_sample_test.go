package coax_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/coax-index/coax/coax"
)

// TestSampledFDDegradationBounded quantifies what sampling costs: at 1%
// and 10% sample rates on the OSM- and airline-style workloads, detection
// must still find every correlation group, and the outlier ratio — the
// fraction of rows the weaker sampled models push into the slow path —
// must stay within a small absolute and relative band of the full-scan
// build (measured headroom ≈ 2× the observed drift).
func TestSampledFDDegradationBounded(t *testing.T) {
	const (
		rows      = 60000
		absSlack  = 0.05 // outlier-ratio drift allowed in absolute terms
		relFactor = 1.6  // ...and relative to the full-scan ratio
	)

	type workload struct {
		name   string
		tab    *coax.Table
		source func(chunk int) coax.RowSource
	}
	osmCfg := coax.DefaultOSMConfig(rows)
	airCfg := coax.DefaultAirlineConfig(rows)
	workloads := []workload{
		{"osm", coax.GenerateOSM(osmCfg),
			func(chunk int) coax.RowSource { return coax.NewOSMSource(osmCfg, chunk) }},
		{"airline", coax.GenerateAirline(airCfg),
			func(chunk int) coax.RowSource { return coax.NewAirlineSource(airCfg, chunk) }},
	}

	for _, w := range workloads {
		opt := coax.DefaultOptions()
		full, err := coax.Build(w.tab, opt)
		if err != nil {
			t.Fatal(err)
		}
		fs := full.BuildStats()
		fullRatio := float64(fs.OutlierRows) / float64(fs.Rows)

		for _, rate := range []float64{0.01, 0.10} {
			k := int(float64(rows) * rate)
			idx, err := coax.NewBuilder(coax.TableSchema(w.tab), opt).
				SampleSize(k).
				Build(w.source(4096))
			if err != nil {
				t.Fatalf("%s@%g: %v", w.name, rate, err)
			}
			s := idx.BuildStats()
			if len(s.Groups) != len(fs.Groups) {
				t.Errorf("%s@%g: detected %d groups, full scan finds %d",
					w.name, rate, len(s.Groups), len(fs.Groups))
			}
			ratio := float64(s.OutlierRows) / float64(s.Rows)
			if ratio > fullRatio+absSlack {
				t.Errorf("%s@%g: outlier ratio %.4f exceeds full-scan %.4f + %.2f",
					w.name, rate, ratio, fullRatio, absSlack)
			}
			if ratio > fullRatio*relFactor {
				t.Errorf("%s@%g: outlier ratio %.4f exceeds %.1f× full-scan %.4f",
					w.name, rate, ratio, relFactor, fullRatio)
			}
			// Exactness is non-negotiable at any sample rate.
			if got, want := coax.Count(idx, coax.FullRect(w.tab.Dims())), w.tab.Len(); got != want {
				t.Errorf("%s@%g: index holds %d rows, want %d", w.name, rate, got, want)
			}
		}
	}
}

// TestStreamingBuildPeaksBelowInMemory is the streaming build's memory
// guard: at 1% and 10% sample rates, a SampleSize build over a 200k-row
// OSM source must grow the Go heap less at its peak than the in-memory
// build, and answer every query with the same count. At this size the
// streaming peaks are about 1.3–1.5× the raw data against about 4× for
// the in-memory build.
func TestStreamingBuildPeaksBelowInMemory(t *testing.T) {
	const rows = 200000
	cfg := coax.DefaultOSMConfig(rows)
	rng := rand.New(rand.NewSource(77))
	tab := coax.GenerateOSM(cfg)
	rects := make([]coax.Rect, 100)
	for i := range rects {
		rects[i] = randRect(rng, tab)
	}
	tab = nil

	build := func(sample int) (*coax.Index, uint64) {
		t.Helper()
		src := coax.NewOSMSource(cfg, coax.DefaultChunkRows)
		b := coax.NewBuilder(coax.ColumnsSchema(src.Columns()), coax.DefaultOptions())
		if sample > 0 {
			b.SampleSize(sample)
		}
		w := watchHeap()
		idx, err := b.Build(src)
		peak := w.stop()
		if err != nil {
			t.Fatal(err)
		}
		return idx, peak
	}

	exact, exactPeak := build(0)
	want := make([]int, len(rects))
	for i, r := range rects {
		want[i] = coax.Count(exact, r)
	}
	for _, rate := range []float64{0.01, 0.10} {
		idx, peak := build(int(rows * rate))
		if peak >= exactPeak {
			t.Errorf("sample %g: streaming build peaked at +%d heap bytes, in-memory build at +%d",
				rate, peak, exactPeak)
		}
		for i, r := range rects {
			if got := coax.Count(idx, r); got != want[i] {
				t.Errorf("sample %g, query %d: streaming build counts %d, in-memory build %d",
					rate, i, got, want[i])
			}
		}
	}
}

// heapWatch samples HeapAlloc while a build runs, so a test sees the peak
// the build reached, not just where it ended.
type heapWatch struct {
	base, peak uint64
	mu         sync.Mutex
	stopCh     chan struct{}
	done       chan struct{}
}

// watchHeap garbage-collects, records the baseline heap, and samples
// HeapAlloc every millisecond until stop.
func watchHeap() *heapWatch {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := &heapWatch{base: ms.HeapAlloc, peak: ms.HeapAlloc, stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stopCh:
				return
			case <-tick.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *heapWatch) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mu.Lock()
	w.peak = max(w.peak, ms.HeapAlloc)
	w.mu.Unlock()
}

// stop ends sampling and returns the peak heap growth over the baseline.
func (w *heapWatch) stop() uint64 {
	w.sample()
	close(w.stopCh)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak - w.base
}
