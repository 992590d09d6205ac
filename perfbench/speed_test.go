package main

import (
	"math"
	"testing"
	"time"
)

// A window whose probe ran at reference speed and lost no CPU time keeps its
// figures; one whose probe took twice as long, or that lost half the CPUs'
// time to the hypervisor, had its throughput halved and its latencies
// doubled by the machine, so they are scaled back. A window without a probe
// takes the previous one's, and a short last window adds latencies but no
// throughput sample.
func TestAtReference(t *testing.T) {
	r := loopResult{
		queryMs: []float64{1, 2, 4, 6, 10, 8},
		writeMs: []float64{3, 5},
		windows: []window{
			{ops: 1000, dur: time.Second, queries: 2, writes: 1, probeUs: probeRefUs},
			{ops: 500, dur: time.Second, queries: 3, writes: 2, probeUs: 2 * probeRefUs},
			{ops: 200, dur: time.Second, queries: 4, writes: 2},
			{ops: 250, dur: time.Second, queries: 5, writes: 2, probeUs: probeRefUs, stolen: 0.5},
			{ops: 10, dur: rateWindow / 10, queries: 6, writes: 2, probeUs: 4 * probeRefUs},
		},
	}
	qps, queryMs, writeMs := r.atReference()
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"qps", qps, []float64{1000, 1000, 400, 500}},
		{"queryMs", queryMs, []float64{1, 2, 2, 3, 5, 2}},
		{"writeMs", writeMs, []float64{3, 2.5}},
	} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s = %v, want %v", c.name, c.got, c.want)
		}
		for i := range c.got {
			if math.Abs(c.got[i]-c.want[i]) > 1e-9 {
				t.Fatalf("%s = %v, want %v", c.name, c.got, c.want)
			}
		}
	}
}
