// Command perfbench is the COAX serving benchmark. It generates its inputs
// from a seed, launches the real coaxserve binaries (serve, or router and
// two nodes) on them, drives them over HTTP with one closed-loop client,
// checks a seeded sample of the answers against a plain scan, and prints
// the workload's metrics. With --trace 1 it instead makes the traced run:
// the same requests through the same servers, plus each layer's public Go
// calls made in process around recorded spans, reporting per-layer metrics.
//
// Run it through run.sh from the root of a checkout, which builds this
// program and coaxserve first:
//
//	bash perfbench/run.sh --workload rows-selective --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a readable report goes to
// standard error. README.md explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
	"github.com/coax-index/coax/internal/shard"
)

// bench carries one invocation's settings and the resources every phase
// shares.
type bench struct {
	seed    int64
	seconds float64
	dir     string
	procs   *procSet
	cl      *client
}

func (b *bench) duration() time.Duration { return time.Duration(b.seconds * float64(time.Second)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or all: "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "measured duration of the closed loop")
		trace   = flag.Int("trace", 0, "1: make the traced run and report per-layer metrics")
		bin     = flag.String("bin", "", "coaxserve binary (run.sh builds it)")
		work    = flag.String("work", ".bench_build/work", "directory for generated inputs, server logs and span dumps")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func run(name string, seed int64, seconds float64, traced bool, bin, work string) error {
	if bin == "" {
		return errors.New("--bin is required; run the benchmark through perfbench/run.sh")
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("coaxserve binary: %w", err)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}
	defs := workloads
	if name != "all" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q (want all or one of: %s)", name, workloadNames())
		}
		defs = []*workloadDef{w}
	}
	if err := checkPortsFree(serveAddr, routerAddr, node1Addr, node2Addr); err != nil {
		return err
	}
	dir := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{seed: seed, seconds: seconds, dir: dir, procs: &procSet{bin: bin, logDir: dir}, cl: newClient()}
	defer b.stop()
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var last *result
	for _, w := range defs {
		var (
			res *result
			err error
		)
		if traced {
			res, err = b.traced(ctx, w)
		} else {
			res, err = b.measure(ctx, w)
		}
		b.stop()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if len(defs) > 1 {
			line, _ := json.Marshal(map[string]any{"workload": w.name, "result": res})
			fmt.Println(string(line))
		}
		last = merge(last, res)
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// merge folds the results of several workloads into one line for --workload
// all; with one workload it returns that workload's result.
func merge(acc, r *result) *result {
	if acc == nil {
		return r
	}
	acc.Correct = acc.Correct && r.Correct
	acc.Attempted += r.Attempted
	acc.Failed += r.Failed
	acc.Metrics = nil
	return acc
}

// segments is how many server launches a run measures on. Each gets an
// equal share of --seconds and the reported figures are medians over them,
// so that the luck of one launch (thread placement, heap layout) does not
// decide a run.
const segments = 5

// segment is what one measured launch gave.
type segment struct {
	warm, loop loopResult
	// The loop's window throughputs and latencies at reference speed.
	qps, queryMs, writeMs []float64
	stats                 serverStats
	rssMiB                float64
}

// measure makes one untraced run of w and reports its end-to-end metrics.
func (b *bench) measure(ctx context.Context, w *workloadDef) (*result, error) {
	t0 := time.Now()
	p, err := w.prepare(b.seed, b.dir, b.seconds)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	fmt.Fprintf(os.Stderr, "inputs of %s generated in %v\n", w.name, time.Since(t0).Round(time.Millisecond))
	launches := max(w.setups, segments)
	var setups []float64
	var segs []segment
	for i := 0; i < launches; i++ {
		top, d, err := b.launch(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds())
		if i >= launches-segments {
			seg, err := b.measureSegment(ctx, w, p, top, len(segs))
			if err != nil {
				return nil, err
			}
			segs = append(segs, seg)
		}
		b.stop()
	}
	indexBytes := float64(segs[len(segs)-1].stats.MemoryOverheadB)
	if p.cluster {
		n, err := clusterFootprint(p.base)
		if err != nil {
			return nil, err
		}
		indexBytes = float64(n)
	}
	rep := &report{workload: w.name, seed: b.seed, hashes: p.hashes, segs: segs, setups: setups, indexBytes: indexBytes}
	rep.print(os.Stderr)
	return rep.result()
}

// measureSegment warms a fresh launch up and measures it for its share of
// the run. Pool workloads continue their request pool, so no rectangle
// repeats within a run; mixed-rw restarts its stream, because each launch
// starts from the same rows.
func (b *bench) measureSegment(ctx context.Context, w *workloadDef, p *prepared, top *topology, k int) (segment, error) {
	var seg segment
	st := p.newStream()
	// The loop is one goroutine; one P keeps the client's runtime from
	// waking further threads that would compete with the servers for CPUs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seg.warm = b.cl.runLoop(ctx, top.base, st, 0, w.warmup, w.checkP, checkRng(b.seed, fmt.Sprint("warmup", k)), nil, nil)
	seg.loop = b.cl.runLoop(ctx, top.base, st, b.duration()/segments, 0, w.checkP, checkRng(b.seed, fmt.Sprint("measure", k)), nil, nil)
	if ctx.Err() != nil {
		return seg, ctx.Err()
	}
	seg.qps, seg.queryMs, seg.writeMs = seg.loop.atReference()
	var err error
	if seg.stats, err = b.serverStats(ctx, top, p); err != nil {
		return seg, err
	}
	for _, pr := range top.procs {
		mb, err := vmHWMMiB(pr.pid())
		if err != nil {
			return seg, err
		}
		seg.rssMiB += mb
	}
	return seg, nil
}

// serverStats reads /stats once the loop is done. For the cluster it also
// checks shard placement against wantHostedShards.
func (b *bench) serverStats(ctx context.Context, top *topology, p *prepared) (serverStats, error) {
	var st serverStats
	if err := b.cl.getJSON(ctx, top.base+"/stats", &st); err != nil {
		return st, fmt.Errorf("reading /stats: %w", err)
	}
	if !p.cluster {
		return st, nil
	}
	for _, n := range st.Nodes {
		if want, ok := wantHostedShards[n.Addr]; !ok || want != len(n.Hosted) {
			return st, fmt.Errorf("node %s hosts %d shards, the recorded placement is %d; placement changed", n.Addr, len(n.Hosted), want)
		}
	}
	return st, nil
}

// clusterEngines builds, in process, every global shard of rows exactly as
// the nodes do: the same routing and the nodes' default of two local shards.
func clusterEngines(rows *coax.Table) (map[int]*shard.Sharded, error) {
	all := make([]int, clusterShards)
	for i := range all {
		all[i] = i
	}
	so := coax.DefaultShardOptions()
	so.NumShards = 2
	return cluster.BuildShards(rows, all, clusterShards, coax.DefaultOptions(), so)
}

// clusterFootprint is the index footprint of the cluster's shards. The
// router does not expose memory_overhead_bytes, so it is computed from the
// same build the nodes run.
func clusterFootprint(rows *coax.Table) (int64, error) {
	engines, err := clusterEngines(rows)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range engines {
		n += e.MemoryOverhead()
	}
	return n, nil
}

// serverStats is the part of serve's or the router's /stats the benchmark
// reads.
type serverStats struct {
	MemoryOverheadB int64 `json:"memory_overhead_bytes"`
	Cache           *struct {
		Hits           int64 `json:"hits"`
		Misses         int64 `json:"misses"`
		StaleEvictions int64 `json:"stale_evictions"`
	} `json:"cache"`
	Lifecycle *struct {
		OutlierRatio   float64 `json:"outlier_ratio"`
		TombstoneRatio float64 `json:"tombstone_ratio"`
		Epoch          uint64  `json:"epoch"`
	} `json:"lifecycle"`
	Nodes []struct {
		Addr   string `json:"addr"`
		Hosted []int  `json:"hosted_shards"`
	} `json:"nodes"`
}

// report is one untraced run's measurements.
type report struct {
	workload   string
	seed       int64
	hashes     map[string]string
	segs       []segment
	setups     []float64
	indexBytes float64
}

// all merges the segments' loops, warm-up included, for the counts and
// the distributions the readable report shows.
func (r *report) all() loopResult {
	var a loopResult
	for _, s := range r.segs {
		for _, l := range []loopResult{s.warm, s.loop} {
			a.attempted += l.attempted
			a.failed += l.failed
			a.wrong += l.wrong
			a.checked += l.checked
			a.failures = append(a.failures, l.failures...)
			a.exhausted = a.exhausted || l.exhausted
		}
		a.queryMs = append(a.queryMs, s.loop.queryMs...)
		a.writeMs = append(a.writeMs, s.loop.writeMs...)
		a.matches = append(a.matches, s.loop.matches...)
		a.active += s.loop.active
	}
	return a
}

// perSegment is the median over segments of one figure of a segment.
func (r *report) perSegment(f func(segment) float64) float64 {
	vs := make([]float64, len(r.segs))
	for i, s := range r.segs {
		vs[i] = f(s)
	}
	return quantile(vs, 0.5)
}

// pooled merges every measured launch's figures at reference speed.
func (r *report) pooled() (qps, queryMs, writeMs []float64) {
	for _, s := range r.segs {
		qps = append(qps, s.qps...)
		queryMs = append(queryMs, s.queryMs...)
		writeMs = append(writeMs, s.writeMs...)
	}
	return qps, queryMs, writeMs
}

func queryQuantile(q float64) func(segment) float64 {
	return func(s segment) float64 { return quantile(slices.Clone(s.queryMs), q) }
}

// rawQPS is a launch's throughput as measured: completed operations per
// second of loop time.
func rawQPS(s segment) float64 {
	return float64(len(s.loop.queryMs)+len(s.loop.writeMs)) / s.loop.active.Seconds()
}

func rawQueryQuantile(q float64) func(segment) float64 {
	return func(s segment) float64 { return quantile(slices.Clone(s.loop.queryMs), q) }
}

// probeMedian is the median over a launch's windows of their speed probe
// medians.
func probeMedian(s segment) float64 {
	var ps []float64
	for _, w := range s.loop.windows {
		if w.probeUs > 0 {
			ps = append(ps, w.probeUs)
		}
	}
	return quantile(ps, 0.5)
}

// stolenPct is the mean share of the CPUs' time the hypervisor took over a
// launch's windows, in percent.
func stolenPct(s segment) float64 {
	var sum float64
	for _, w := range s.loop.windows {
		sum += w.stolen
	}
	return 100 * sum / float64(max(1, len(s.loop.windows)))
}

func (r *report) result() (*result, error) {
	a := r.all()
	qps, queryMs, _ := r.pooled()
	// The tail reported to the gate is p90, over every launch's samples
	// pooled: the highest percentile with ten samples beyond it on every
	// workload (agg-broad completes about 450 queries in 20 s). The
	// readable report adds p99 where it has them.
	if len(queryMs) < 100 {
		return nil, fmt.Errorf("%d queries completed, too few for a p90 with ten samples beyond it (%d failures: %v); raise --seconds", len(queryMs), a.failed, a.failures)
	}
	m := map[string]metric{
		"setup_s":      {quantile(slices.Clone(r.setups), 0.5), "s"},
		"qps":          {quantile(qps, 0.5), "req/s"},
		"query_p50_ms": {r.perSegment(queryQuantile(0.5)), "ms"},
		"query_p90_ms": {quantile(queryMs, 0.9), "ms"},
		"rss_peak_mb":  {r.perSegment(func(s segment) float64 { return s.rssMiB }), "MiB"},
		"index_bytes":  {r.indexBytes, "B"},
	}
	return &result{Correct: a.wrong == 0 && a.checked > 0, Attempted: a.attempted, Failed: a.failed, Metrics: m}, nil
}

// print writes the readable report: every end-to-end metric of the benchmark
// with its unit and sample count, including those only some workloads have.
// Timings are at reference speed, as in the gate, and the main ones are
// repeated as measured. Gated figures are medians over windows or launches;
// the rest pool every launch.
func (r *report) print(w *os.File) {
	a := r.all()
	qps, queryMs, writeMs := r.pooled()
	fmt.Fprintf(w, "== %s, seed %d: %d operations in %.2f s of closed loop (1 client) over %d launches\n", r.workload, r.seed, a.attempted, a.active.Seconds(), len(r.segs))
	row := func(name, unit string, v float64, n int, note string) {
		fmt.Fprintf(w, "   %-14s %12.4f %-6s n=%-7d %s\n", name, v, unit, n, note)
	}
	row("setup_s", "s", quantile(slices.Clone(r.setups), 0.5), len(r.setups), "median of launches")
	row("qps", "req/s", quantile(qps, 0.5), len(queryMs)+len(writeMs), fmt.Sprintf("median of %d windows of 1 s", len(qps)))
	if len(queryMs) > 0 {
		row("query_p50_ms", "ms", r.perSegment(queryQuantile(0.5)), len(queryMs), "median of launches")
		row("query_p90_ms", "ms", quantile(slices.Clone(queryMs), 0.9), len(queryMs), "all launches")
		if v, ok := p99(queryMs); ok {
			row("query_p99_ms", "ms", v, len(queryMs), "all launches")
		}
	}
	if len(writeMs) > 0 {
		row("write_p50_ms", "ms", quantile(slices.Clone(writeMs), 0.5), len(writeMs), "insert, delete and update")
		if v, ok := p99(writeMs); ok {
			row("write_p99_ms", "ms", v, len(writeMs), "")
		} else {
			fmt.Fprintf(w, "   %-14s %12s        n=%-7d fewer than ten samples beyond p99\n", "write_p99_ms", "-", len(writeMs))
		}
	}
	row("error_rate", "ratio", float64(a.failed)/float64(max(1, a.attempted)), a.attempted, fmt.Sprintf("%d failed, %d wrong of %d checked", a.failed, a.wrong, a.checked))
	row("rss_peak_mb", "MiB", r.perSegment(func(s segment) float64 { return s.rssMiB }), len(r.segs), "sum of VmHWM over server processes")
	row("index_bytes", "B", r.indexBytes, 1, "memory_overhead_bytes")
	fmt.Fprintf(w, "   timings above are at reference speed (speed probe %.0f µs, no steal time); as measured, with the probe at %.1f µs and %.1f%% stolen:\n", probeRefUs, r.perSegment(probeMedian), r.perSegment(stolenPct))
	fmt.Fprintf(w, "   qps %.1f, query p50 %.4f ms (medians of launches), query p90 %.4f ms\n", r.perSegment(rawQPS), r.perSegment(rawQueryQuantile(0.5)), quantile(a.queryMs, 0.9))
	if len(a.matches) > 0 {
		ms := make([]float64, len(a.matches))
		for i, n := range a.matches {
			ms[i] = float64(n)
		}
		fmt.Fprintf(w, "   matches per query: mean %.1f, median %.0f\n", mean(ms), quantile(ms, 0.5))
	}
	for i, s := range r.segs {
		fmt.Fprintf(w, "   launch %d as measured: %.1f req/s, query p50 %.4f ms, p90 %.4f ms, speed probe %.1f µs, %.1f%% stolen", i+1, rawQPS(s), rawQueryQuantile(0.5)(s), rawQueryQuantile(0.9)(s), probeMedian(s), stolenPct(s))
		if c := s.stats.Cache; c != nil {
			fmt.Fprintf(w, "; result cache %d hits, %d misses, %d stale evictions", c.Hits, c.Misses, c.StaleEvictions)
		}
		fmt.Fprintln(w)
	}
	keys := make([]string, 0, len(r.hashes))
	for k := range r.hashes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   input hash %-10s %s\n", k, r.hashes[k])
	}
	if a.exhausted {
		fmt.Fprintln(w, "   note: the request pool ran out before the measured time")
	}
	for _, f := range a.failures {
		fmt.Fprintln(w, "   failure:", f)
	}
}
