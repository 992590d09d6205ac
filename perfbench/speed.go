package main

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"strconv"
	"strings"
	"time"
)

// The machine's CPU speed is not constant. On the shared 2-CPU reference
// box a fixed piece of CPU work took between 47 and 78 µs from one second
// to the next, and the throughput of the sub-millisecond workloads followed
// it (correlation −0.8 over a minute's one-second windows); across runs
// minutes apart it moved their QPS by up to 20%. The hypervisor also takes
// the CPUs away at times (steal time), up to a tenth of a second's CPU time
// in one second. So the loop runs a fixed speed probe every probeEvery of
// active time, with its clock paused, reads the machine's steal time once a
// window, and the gated timings are reported at reference speed: a figure
// measured in a window whose median probe took p µs and in which a share s
// of the CPUs' time was stolen is slowed by f = p/probeRefUs/(1−s), so its
// QPS is multiplied by f and its latencies are divided by f. The probe runs
// in the client, between requests, while the servers are idle; it has no
// part in what is measured. The readable report prints the figures as
// measured too.

// probeRefUs is the reference speed: the probe's median time on the
// reference box in a quiet period.
const probeRefUs = 70.0

// probeEvery is how much active loop time passes between two probes.
const probeEvery = 5 * time.Millisecond

// probeDoc is what the probe encodes: a 100-row answer, the size of a
// selective query's.
var probeDoc = func() [][]float64 {
	d := make([][]float64, 100)
	for i := range d {
		d[i] = []float64{float64(i) * 1.1, 12345.678, 40.1 + float64(i)/1000, -73.9 - float64(i)/7}
	}
	return d
}()

var (
	probeBuf  = make([]byte, 16<<10)
	probeSink uint32
)

// speedProbe runs the fixed probe work, JSON encoding and checksumming of
// the kind the client and servers do per request, and returns how long it
// took in microseconds.
func speedProbe() float64 {
	t0 := time.Now()
	b, _ := json.Marshal(probeDoc)
	probeSink += crc32.ChecksumIEEE(b) + crc32.ChecksumIEEE(probeBuf)
	return float64(time.Since(t0)) / float64(time.Microsecond)
}

// stealSeconds is the CPU time the hypervisor has taken from the machine's
// CPUs, summed over them, from /proc/stat; 0 where that cannot be read.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}
