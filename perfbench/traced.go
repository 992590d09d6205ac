package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/shard"
	"github.com/coax-index/coax/internal/softfd"
	"github.com/coax-index/coax/internal/workload"
)

// The traced run. It sends the workload's requests to the real servers as
// the untraced run does, then replays the same requests in process through
// each layer's public calls, recording a span around every call, and
// derives the per-layer metrics from the spans and the layers' own
// counters. The per-layer numbers are therefore measured on the same
// requests, in the same order and on the same data as the end-to-end ones.

// inProcessWrites is how many writes a read-only workload's traced run
// applies in process, to time the mutation layer on its index.
const inProcessWrites = 300

// Caps on the queries a traced run replays in process and through the
// cluster router: enough for steady medians, few enough to keep the span
// dump to a few megabytes.
const (
	maxReplayed        = 3000
	maxClusterReplayed = 1000
)

// sentOp is one operation of the HTTP phase, kept for the in-process replay.
type sentOp struct {
	req    *request
	httpUs float64
	warm   bool
}

// samples holds per-request values of every per-layer metric.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) p50(name string) float64 {
	if len(s[name]) == 0 {
		return math.NaN()
	}
	return quantile(slices.Clone(s[name]), 0.5)
}

func (s samples) mean(name string) float64 {
	if len(s[name]) == 0 {
		return math.NaN()
	}
	return mean(s[name])
}

func (b *bench) traced(ctx context.Context, w *workloadDef) (*result, error) {
	tr := newTracer()
	p, err := w.prepare(b.seed, b.dir, b.seconds)
	if err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	top, _, err := b.launch(ctx, p)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// HTTP phase. Every other request runs inside a recorded span, so the
	// two halves give the cost of tracing itself.
	var ops []sentOp
	var tracedMs, plainMs []float64
	record := func(warm bool) opHook {
		return func(i int, req *request, lat time.Duration, _ []byte) {
			ops = append(ops, sentOp{req: req, httpUs: us(lat), warm: warm})
			if warm || req.kind.isWrite() {
				return
			}
			if i%2 == 1 {
				tracedMs = append(tracedMs, us(lat)/1000)
			} else {
				plainMs = append(plainMs, us(lat)/1000)
			}
		}
	}
	st := p.newStream()
	warm := b.cl.runLoop(ctx, top.base, st, 0, w.warmup, w.checkP, checkRng(b.seed, "warmup"), nil, record(true))
	res := b.cl.runLoop(ctx, top.base, st, b.duration(), 0, w.checkP, checkRng(b.seed, "measure"), tr, record(false))
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	stats, err := b.serverStats(ctx, top, p)
	if err != nil {
		return nil, err
	}
	s := samples{}
	m := map[string]metric{}
	if c := stats.Cache; c != nil {
		m["serve.cache_hit_ratio"] = metric{ratio(c.Hits, c.Hits+c.Misses), "ratio"}
		m["serve.stale_evictions"] = metric{float64(c.StaleEvictions), "count"}
	}
	m["coaxserve.resp_bytes_per_query"] = metric{float64(res.respBytes) / float64(max(1, len(res.queryMs))), "B"}
	pm := quantile(plainMs, 0.5)
	m["trace.overhead_pct"] = metric{(quantile(tracedMs, 0.5) - pm) / pm * 100, "%"}
	if !p.cluster {
		b.stop() // the in-process phases should not share the CPUs with a server
	}

	built, err := b.traceBuild(tr, p, s, m)
	if err != nil {
		return nil, err
	}
	raw, comp, err := b.traceOpen(tr, p, built, m)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	defer comp.Close()
	// Both files hold sharded indexes, for which Serving cannot fail.
	rawIdx, _ := raw.Serving(0)
	compIdx, _ := comp.Serving(0)
	sx := rawIdx // the in-process twin of the server's index
	switch {
	case p.files["csv"] != "":
		sx = built.idx
	case p.files["compressed"] != "":
		sx = compIdx
	}

	replayed, err := b.traceReplay(tr, ops, sx, rawIdx, compIdx, s)
	if err != nil {
		return nil, err
	}
	if p.files["csv"] == "" {
		if err := traceWrites(tr, p.base, b.seed, sx, s); err != nil {
			return nil, err
		}
	}
	life := sx.LifecycleStats()
	rebuilds := float64(life.Epoch)
	if stats.Lifecycle != nil {
		rebuilds = float64(stats.Lifecycle.Epoch)
	}
	m["lifecycle.outlier_ratio_end"] = metric{life.OutlierRatio, "ratio"}
	m["lifecycle.tombstone_ratio_end"] = metric{life.TombstoneRatio, "ratio"}
	m["lifecycle.rebuilds"] = metric{rebuilds, "count"}

	if err := b.traceCluster(ctx, tr, p, built.rawPath, replayed, sx, s); err != nil {
		return nil, err
	}

	for _, name := range []string{
		"coaxserve.self_p50_us", "shard.exec_p50_us", "shard.self_p50_us", "core.translate_p50_us",
		"core.exec_p50_us", "gridfile.scan_p50_us", "outlier.scan_p50_us", "index.agg_p50_us",
		"mmapsnap.decode_p50_us", "mutate.insert_p50_us", "mutate.delete_p50_us", "mutate.update_p50_us",
		"cluster.exec_p50_us", "cluster.self_p50_us", "cluster.added_p50_us",
	} {
		m[name] = metric{s.p50(name), "us"}
	}
	for _, name := range []string{
		"shard.allocs_per_query", "shard.probed_per_query", "shard.pruned_per_query",
		"core.translations_per_query", "gridfile.pages_per_query", "gridfile.rows_scanned_per_query",
		"outlier.pages_per_query", "outlier.rows_scanned_per_query", "index.batches_per_query",
	} {
		m[name] = metric{s.mean(name), "count"}
	}
	infeasible := 0.0 // no dependent column constrained: nothing to prove infeasible
	if len(s["core.infeasible"]) > 0 {
		infeasible = s.mean("core.infeasible")
	}
	m["core.infeasible_ratio"] = metric{infeasible, "ratio"}
	m["gridfile.match_ratio"] = metric{s.mean("gridfile.matched") / s.mean("gridfile.rows_scanned_per_query"), "ratio"}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("the traced run took no sample for %s", name)
		}
	}

	path := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("spans-%s-seed%d.json", w.name, b.seed))
	if err := tr.dump(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(tr.spans), path)
	printLayers(w.name, b.seed, m, len(replayed), warm, res)
	return &result{
		Correct:   res.wrong+warm.wrong == 0 && res.checked+warm.checked > 0,
		Attempted: res.attempted + warm.attempted,
		Failed:    res.failed + warm.failed,
		Metrics:   m,
	}, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// builtIndex is the in-process build of the workload's base rows.
type builtIndex struct {
	idx               *shard.Sharded
	rawPath, compPath string
}

// traceBuild times the build layers on the workload's rows, from CSV as
// mixed-rw's server does: CSV parse, soft-FD detection, and the sharded
// build with its phases, and samples the heap during the build. It saves
// the result as raw and compressed v3 files for the open and decode spans.
func (b *bench) traceBuild(tr *tracer, p *prepared, s samples, m map[string]metric) (*builtIndex, error) {
	csvPath := p.files["csv"]
	if csvPath == "" {
		csvPath = filepath.Join(b.dir, "traced.csv")
		if err := writeCSV(csvPath, p.base); err != nil {
			return nil, err
		}
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	id := tr.begin("dataset.csv_parse", -1, -1)
	tab, err := coax.ReadCSV(bufio.NewReaderSize(f, 1<<20))
	d := tr.end(id)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", csvPath, err)
	}
	m["dataset.csv_parse_s"] = metric{d.Seconds(), "s"}

	id = tr.begin("softfd.detect", -1, -1)
	if _, err := softfd.Detect(tab, coax.DefaultOptions().SoftFD); err != nil {
		return nil, err
	}
	m["softfd.detect_s"] = metric{tr.end(id).Seconds(), "s"}

	so := coax.DefaultShardOptions()
	so.NumShards = numShards
	runtime.GC()
	stopHeap, peak := sampleHeap()
	build := tr.begin("coax.build", -1, -1)
	phase := -1
	bld := coax.NewBuilder(coax.ColumnsSchema(tab.Cols), coax.DefaultOptions()).Progress(func(pr coax.BuildProgress) {
		if phase >= 0 && tr.spans[phase].Name == "coax.build."+pr.Phase {
			return
		}
		if phase >= 0 {
			tr.end(phase)
		}
		phase = tr.begin("coax.build."+pr.Phase, build, -1)
	})
	idx, err := bld.BuildSharded(coax.NewTableSource(tab, 0), so)
	if phase >= 0 {
		tr.end(phase)
	}
	m["coax.build_s"] = metric{tr.end(build).Seconds(), "s"}
	stopHeap()
	if err != nil {
		return nil, err
	}
	m["coax.build_peak_heap_mb"] = metric{float64(*peak) / (1 << 20), "MiB"}

	out := &builtIndex{idx: idx, rawPath: filepath.Join(b.dir, "traced-raw.v3"), compPath: filepath.Join(b.dir, "traced-compressed.v3")}
	if err := coax.SaveShardedFileV3(out.rawPath, idx, false); err != nil {
		return nil, err
	}
	if err := coax.SaveShardedFileV3(out.compPath, idx, true); err != nil {
		return nil, err
	}
	return out, nil
}

// sampleHeap samples the live heap every 2 ms until stop is called and
// keeps the peak.
func sampleHeap() (stop func(), peak *uint64) {
	peak = new(uint64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		smp := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(smp)
			*peak = max(*peak, smp[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }, peak
}

// traceOpen times opening the snapshot in the format the workload's server
// serves (compressed for agg-broad, raw otherwise) and opens the other.
func (b *bench) traceOpen(tr *tracer, p *prepared, built *builtIndex, m map[string]metric) (raw, comp *coax.Snapshot, err error) {
	timed, other := built.rawPath, built.compPath
	if p.files["compressed"] != "" {
		timed, other = other, timed
	}
	id := tr.begin("mmapsnap.open", -1, -1)
	sn, err := coax.OpenFile(timed)
	if err == nil {
		_, err = sn.Serving(0)
	}
	m["mmapsnap.open_ms"] = metric{float64(tr.end(id)) / float64(time.Millisecond), "ms"}
	if err != nil {
		return nil, nil, err
	}
	on, err := coax.OpenFile(other)
	if err != nil {
		sn.Close()
		return nil, nil, err
	}
	if p.files["compressed"] != "" {
		return on, sn, nil
	}
	return sn, on, nil
}

func aggSpec(agg string) index.AggSpec {
	if agg == "sum" {
		return index.AggSpec{Op: index.AggSum, Col: lonCol, Group: -1}
	}
	return index.AggSpec{Op: index.AggCount, Col: -1, Group: -1}
}

// traceReplay replays the HTTP phase in process: writes are applied to sx
// in order, so every replayed query sees the state the server saw, and the
// queries of the measured loop go through each layer around spans, up to
// maxReplayed of them and for at most the run's duration. It returns the
// replayed queries.
func (b *bench) traceReplay(tr *tracer, ops []sentOp, sx, rawIdx, compIdx *shard.Sharded, s samples) ([]*request, error) {
	var replayed []*request
	count := func([]float64) bool { return true }
	deadline := time.Now().Add(b.duration())
	var ms runtime.MemStats
	for i, op := range ops {
		req := op.req
		if req.kind.isWrite() {
			if err := traceWrite(tr, i, sx, req, s); err != nil {
				return nil, err
			}
			continue
		}
		if op.warm || len(replayed) == maxReplayed || time.Now().After(deadline) {
			continue
		}
		replayed = append(replayed, req)
		r, aspec := req.rect, aggSpec(req.agg)
		root := tr.begin("request", -1, i)

		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		var srep shard.Report
		sid := tr.begin("shard.Exec", root, i)
		if req.agg == "" {
			sx.Exec(r, index.Spec{}, count, &srep)
		} else {
			sx.ExecAgg(r, index.Spec{}, aspec, &srep)
		}
		tr.end(sid)
		runtime.ReadMemStats(&ms)
		s.add("shard.allocs_per_query", float64(ms.Mallocs-mallocs))
		s.add("shard.probed_per_query", float64(srep.ShardsProbed))
		s.add("shard.pruned_per_query", float64(srep.ShardsPruned))

		var translate, gridScan, outScan, aggUs time.Duration
		var batches int64
		translations := 0
		var crep core.ProbeReport
		lo, hi := sx.ShardSpan(r)
		for k := lo; k <= hi; k++ {
			_ = sx.WithShard(k, func(c *core.COAX) error {
				var one core.ProbeReport
				cid := tr.begin("core.Exec", sid, i)
				if req.agg == "" {
					c.Exec(r, index.Spec{}, count, &one)
				} else {
					c.ExecAgg(r, index.Spec{}, index.NewAggState(aspec), &one)
				}
				tr.end(cid)
				crep.Add(&one)
				translations += len(one.Translations)
				for _, t := range one.Translations {
					s.add("core.infeasible", b2f(!t.Feasible))
				}
				t0 := time.Now()
				routed, feasible := c.Translate(r)
				translate += tr.dur(tr.record("core.Translate", cid, i, t0, time.Since(t0)))
				if g := c.Primary(); g != nil && feasible {
					t0 = time.Now()
					g.Scan(routed, count, nil)
					gridScan += tr.dur(tr.record("gridfile.Scan", cid, i, t0, time.Since(t0)))
				}
				if o := c.Outliers(); o != nil {
					t0 = time.Now()
					o.Scan(r, count, nil)
					outScan += tr.dur(tr.record("outlier.Scan", cid, i, t0, time.Since(t0)))
				}
				if req.agg == "" {
					var arep core.ProbeReport
					t0 = time.Now()
					c.ExecAgg(r, index.Spec{}, index.NewAggState(aspec), &arep)
					aggUs += tr.dur(tr.record("index.ExecAgg", root, i, t0, time.Since(t0)))
					batches += arep.Primary.Batches + arep.Outlier.Batches
				} else {
					aggUs += tr.dur(cid)
				}
				return nil
			})
		}
		var coreUs time.Duration
		for _, c := range tr.children[sid] {
			coreUs += tr.dur(c)
		}
		s.add("shard.exec_p50_us", us(tr.dur(sid)))
		s.add("shard.self_p50_us", us(tr.self(sid)))
		s.add("coaxserve.self_p50_us", op.httpUs-us(tr.dur(sid)))
		s.add("core.exec_p50_us", us(coreUs))
		s.add("core.translate_p50_us", us(translate))
		s.add("core.translations_per_query", float64(translations))
		s.add("gridfile.scan_p50_us", us(gridScan))
		s.add("gridfile.pages_per_query", float64(crep.Primary.Pages))
		s.add("gridfile.rows_scanned_per_query", float64(crep.Primary.Scanned))
		s.add("gridfile.matched", float64(crep.Primary.Matched))
		s.add("outlier.scan_p50_us", us(outScan))
		s.add("outlier.pages_per_query", float64(crep.Outlier.Pages))
		s.add("outlier.rows_scanned_per_query", float64(crep.Outlier.Scanned))
		s.add("index.agg_p50_us", us(aggUs))
		if req.agg != "" {
			batches = crep.Primary.Batches + crep.Outlier.Batches
		}
		s.add("index.batches_per_query", float64(batches))

		t0 := time.Now()
		rawIdx.ExecAgg(r, index.Spec{}, aspec, nil)
		rawUs := tr.dur(tr.record("mmapsnap.ExecAgg.raw", root, i, t0, time.Since(t0)))
		t0 = time.Now()
		compIdx.ExecAgg(r, index.Spec{}, aspec, nil)
		compUs := tr.dur(tr.record("mmapsnap.ExecAgg.compressed", root, i, t0, time.Since(t0)))
		s.add("mmapsnap.decode_p50_us", us(compUs-rawUs))
		tr.end(root)
	}
	return replayed, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

var mutateSpan = map[opKind]string{opInsert: "mutate.insert", opDelete: "mutate.delete", opUpdate: "mutate.update"}

// traceWrite applies one write to sx inside a span. The write succeeded on
// the server, so a failure here means the in-process twin has diverged.
func traceWrite(tr *tracer, req int, sx *shard.Sharded, w *request, s samples) error {
	var err error
	id := tr.begin(mutateSpan[w.kind], -1, req)
	switch w.kind {
	case opInsert:
		err = sx.Insert(w.row)
	case opDelete:
		err = sx.Delete(w.row)
	case opUpdate:
		err = sx.Update(w.row, w.newRow)
	}
	s.add(mutateSpan[w.kind]+"_p50_us", us(tr.end(id)))
	if err != nil {
		return fmt.Errorf("in-process %s: %w", mutateSpan[w.kind], err)
	}
	return nil
}

// traceWrites times the mutation layer on a read-only workload's index:
// inserts, deletes and updates drawn like mixed-rw's writes.
func traceWrites(tr *tracer, base *coax.Table, seed int64, sx *shard.Sharded, s samples) error {
	gen := workload.NewMixGenerator(base, rngFor(seed, "traced-writes").Int63(), workload.MixConfig{
		InsertWeight: 1, DeleteWeight: 1, UpdateWeight: 1, OutlierFrac: 0.1,
	})
	for i := 0; i < inProcessWrites; i++ {
		if err := traceWrite(tr, -1, sx, writeRequest(gen.Next()), s); err != nil {
			return err
		}
	}
	return nil
}

// traceCluster times cluster.Router against two node processes on the
// replayed queries, and the nodes' share of each, computed by running every
// node's hosted shards in process on the same rectangle. Node-side work runs
// in parallel on the two nodes, so the router's self time subtracts the
// slower node's.
func (b *bench) traceCluster(ctx context.Context, tr *tracer, p *prepared, rawPath string, reqs []*request, sx *shard.Sharded, s samples) error {
	if !p.cluster {
		top := &topology{}
		peers := node1Addr + "," + node2Addr
		for i, addr := range []string{node1Addr, node2Addr} {
			nd, err := b.procs.start(fmt.Sprintf("node%d", i+1), "node", "-addr", addr, "-peers", peers,
				"-replication", fmt.Sprint(clusterRF), "-shards", fmt.Sprint(clusterShards), "-in", rawPath)
			if err != nil {
				return err
			}
			top.procs = append(top.procs, nd)
		}
		for _, addr := range []string{node1Addr, node2Addr} {
			if err := pollUntil(ctx, top.procs, "node "+addr, dialable(addr)); err != nil {
				return err
			}
		}
	}
	nodes := []string{node1Addr, node2Addr}
	rt, err := cluster.NewRouter(nodes, clusterShards, clusterRF)
	if err != nil {
		return err
	}
	defer rt.Close()
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		return err
	}
	engines, err := clusterEngines(p.base)
	if err != nil {
		return err
	}
	count := func([]float64) bool { return true }
	run := func(e *shard.Sharded, req *request) {
		if req.agg == "" {
			e.Exec(req.rect, index.Spec{}, count, nil)
		} else {
			e.ExecAgg(req.rect, index.Spec{}, aggSpec(req.agg), nil)
		}
	}
	deadline := time.Now().Add(b.duration() / 2)
	for i, req := range reqs {
		if i == maxClusterReplayed || time.Now().After(deadline) {
			break
		}
		id := tr.begin("cluster.Router.Exec", -1, i)
		if req.agg == "" {
			_, err = rt.Exec(req.rect, index.Spec{}, count)
		} else {
			_, _, err = rt.ExecAgg(req.rect, index.Spec{}, aggSpec(req.agg))
		}
		d := tr.end(id)
		if err != nil {
			return fmt.Errorf("cluster router: %w", err)
		}
		var slowest time.Duration
		for _, n := range nodes {
			t0 := time.Now()
			for _, g := range ring.HostedShards(n, clusterShards, clusterRF) {
				run(engines[g], req)
			}
			slowest = max(slowest, tr.dur(tr.record("cluster.node."+n, id, i, t0, time.Since(t0))))
		}
		t0 := time.Now()
		run(sx, req)
		local := time.Since(t0)
		s.add("cluster.exec_p50_us", us(d))
		s.add("cluster.self_p50_us", us(d-slowest))
		s.add("cluster.added_p50_us", us(d-local))
	}
	return nil
}

// printLayers writes the readable per-layer report.
func printLayers(name string, seed int64, m map[string]metric, replayed int, warm, res loopResult) {
	fmt.Fprintf(os.Stderr, "== %s, seed %d, traced: %d HTTP operations, %d queries replayed in process; %d wrong of %d checked\n",
		name, seed, res.attempted+warm.attempted, replayed, res.wrong+warm.wrong, res.checked+warm.checked)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "   %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	for _, f := range append(warm.failures, res.failures...) {
		fmt.Fprintln(os.Stderr, "   failure:", f)
	}
}
