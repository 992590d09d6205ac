package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/coax-index/coax/coax"
)

// workloadDef is one benchmark workload. The reasons each exists, and the
// per-layer predictions made for it, are in README.md.
type workloadDef struct {
	name string
	// setups is how many times a run launches the servers to time set-up;
	// the median is reported.
	setups int
	// checkP is the fraction of query answers compared with the oracle.
	checkP float64
	// warmup operations run before the measured loop, untimed.
	warmup  int
	prepare func(seed int64, dir string, seconds float64) (*prepared, error)
}

var workloads = []*workloadDef{
	{name: "rows-selective", setups: 9, checkP: 1.0 / 200, warmup: 500, prepare: prepareRows(false)},
	{name: "agg-broad", setups: 9, checkP: 1.0 / 12, warmup: 15, prepare: prepareAgg},
	{name: "mixed-rw", setups: 5, checkP: 1.0 / 200, warmup: 500, prepare: prepareMixed},
	{name: "cluster-rows", setups: 5, checkP: 1.0 / 200, warmup: 500, prepare: prepareRows(true)},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// prepared holds one run's generated inputs and how to serve them.
type prepared struct {
	base    *coax.Table // the rows the servers start from
	files   map[string]string
	hashes  map[string]string
	serve   []string // coaxserve serve arguments, apart from -addr
	cluster bool     // router and two nodes serving files["raw"]
	// newStream returns the stream a launch is driven with.
	newStream func() stream
	probe     *request // the set-up probe; its answer is known in advance
	probeOK   answer
}

// poolSize is how many distinct requests a pool workload generates: more
// than the loop can send in the run at the fastest rate seen, plus every
// launch's warm-up, so a rectangle never repeats within a run.
func poolSize(perSecond int, seconds float64, warmup int) int {
	return int(float64(perSecond)*seconds) + warmup
}

func newPrepared(base *coax.Table, seed int64) *prepared {
	p := &prepared{base: base, files: map[string]string{}, hashes: map[string]string{}}
	// A 100-row id range: ids are dense, so the answer has exactly 100 rows,
	// and no workload request has this shape.
	lo := float64(rngFor(seed, "probe").Intn(base.Len() - 100))
	r := coax.FullRect(base.Dims())
	r.Min[0], r.Max[0] = lo, lo+99
	p.probe = queryRequest(r, "")
	p.probeOK = expect(base, p.probe)
	return p
}

func (p *prepared) addFile(role, path string) error {
	h, err := hashFile(path)
	if err != nil {
		return err
	}
	p.files[role], p.hashes[role] = path, h
	return nil
}

// prepareRows builds rows-selective and cluster-rows: 2M rows in a raw v3
// snapshot, and distinct k-NN rectangles of about 100 rows. Both workloads
// draw the same rectangles from the same seed.
func prepareRows(cluster bool) func(int64, string, float64) (*prepared, error) {
	return func(seed int64, dir string, seconds float64) (*prepared, error) {
		t := osmTable(servingRows)
		p := newPrepared(t, seed)
		path := filepath.Join(dir, "osm-raw.v3")
		if err := writeSnapshot(path, t, false); err != nil {
			return nil, err
		}
		if err := p.addFile("raw", path); err != nil {
			return nil, err
		}
		rects := knnRects(t, rngFor(seed, "rows"), poolSize(6000, seconds, segments*500), nil)
		reqs := make([]*request, len(rects))
		for i, r := range rects {
			reqs[i] = queryRequest(r, "")
		}
		p.hashes["requests"] = hashBodies(reqs)
		pool := &poolStream{reqs: reqs, rows: t}
		p.newStream = func() stream { return pool }
		p.serve = []string{"-in", path}
		p.cluster = cluster
		return p, nil
	}
}

// prepareAgg builds agg-broad: the same 2M rows in a compressed v3
// snapshot, and distinct 10–20% timestamp windows answered by COUNT and
// SUM(lon) in turn.
func prepareAgg(seed int64, dir string, seconds float64) (*prepared, error) {
	t := osmTable(servingRows)
	p := newPrepared(t, seed)
	path := filepath.Join(dir, "osm-compressed.v3")
	if err := writeSnapshot(path, t, true); err != nil {
		return nil, err
	}
	if err := p.addFile("compressed", path); err != nil {
		return nil, err
	}
	rects := aggRects(t, rngFor(seed, "agg"), poolSize(200, seconds, segments*15))
	reqs := make([]*request, len(rects))
	for i, r := range rects {
		op := "count"
		if i%2 == 1 {
			op = "sum"
		}
		reqs[i] = queryRequest(r, op)
	}
	p.hashes["requests"] = hashBodies(reqs)
	pool := &poolStream{reqs: reqs, rows: t}
	p.newStream = func() stream { return pool }
	p.serve = []string{"-in", path}
	return p, nil
}

// prepareMixed builds mixed-rw: 1M rows as CSV, which the server parses
// and indexes at start-up, and one interleaved read/write stream.
func prepareMixed(seed int64, dir string, _ float64) (*prepared, error) {
	t := osmTable(mixedRows)
	p := newPrepared(t, seed)
	path := filepath.Join(dir, "osm.csv")
	if err := writeCSV(path, t); err != nil {
		return nil, err
	}
	if err := p.addFile("csv", path); err != nil {
		return nil, err
	}
	// The hash covers the first 10000 operations of a second, identical
	// stream; the run's own stream is consumed as it is sent.
	hot := hotRequests(t, rngFor(seed, "mixed-hot"))
	h := newMixStream(t, seed, hot)
	ops := make([]*request, 10000)
	for i := range ops {
		ops[i] = h.next()
	}
	p.hashes["requests"] = hashBodies(ops)
	p.newStream = func() stream { return newMixStream(t, seed, hot) }
	p.serve = []string{"-csv", path, "-shards", fmt.Sprint(numShards)}
	return p, nil
}

// topology is one launch of a workload's server processes.
type topology struct {
	procs []*proc
	base  string
}

// launch starts the workload's servers and returns once the probe query
// has been answered correctly, with the time that took.
func (b *bench) launch(ctx context.Context, p *prepared) (*topology, time.Duration, error) {
	t0 := time.Now()
	top := &topology{}
	if !p.cluster {
		sv, err := b.procs.start("serve", append([]string{"serve", "-addr", serveAddr}, p.serve...)...)
		if err != nil {
			return nil, 0, err
		}
		top.procs = []*proc{sv}
		top.base = "http://" + serveAddr
	} else {
		peers := node1Addr + "," + node2Addr
		for i, addr := range []string{node1Addr, node2Addr} {
			nd, err := b.procs.start(fmt.Sprintf("node%d", i+1), "node", "-addr", addr, "-peers", peers,
				"-replication", fmt.Sprint(clusterRF), "-shards", fmt.Sprint(clusterShards), "-in", p.files["raw"])
			if err != nil {
				return nil, 0, err
			}
			top.procs = append(top.procs, nd)
		}
		// The router checks every node when it starts, so it starts once
		// both accept connections.
		for _, addr := range []string{node1Addr, node2Addr} {
			if err := pollUntil(ctx, top.procs, "node "+addr, dialable(addr)); err != nil {
				return nil, 0, err
			}
		}
		rt, err := b.procs.start("router", "router", "-addr", routerAddr, "-nodes", peers,
			"-replication", fmt.Sprint(clusterRF), "-shards", fmt.Sprint(clusterShards))
		if err != nil {
			return nil, 0, err
		}
		top.procs = append(top.procs, rt)
		top.base = "http://" + routerAddr
	}
	if err := pollUntil(ctx, top.procs, "health", healthy(b.cl.cl, top.base)); err != nil {
		return nil, 0, err
	}
	// Until the servers answer, the probe is retried; an answer that is
	// wrong fails the run at once.
	var wrong error
	err := pollUntil(ctx, top.procs, "probe query", func() error {
		status, body, err := b.cl.post(ctx, top.base+p.probe.path, p.probe.body)
		switch {
		case err != nil:
			return err
		case status != 200:
			return fmt.Errorf("status %d: %s", status, truncate(body))
		}
		wrong = p.probeOK.check(body)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if wrong != nil {
		return nil, 0, fmt.Errorf("wrong answer to the set-up probe: %w", wrong)
	}
	return top, time.Since(t0), nil
}

// stop kills the launch's processes and drops the client's connections.
func (b *bench) stop() {
	b.procs.kill()
	b.cl.tr.CloseIdleConnections()
}

// checkRng returns the seeded generator that picks which answers to check.
func checkRng(seed int64, phase string) *rand.Rand { return rngFor(seed, "check/"+phase) }
