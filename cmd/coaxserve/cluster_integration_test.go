package main

// Multi-process cluster integration test: real node processes behind real
// TCP sockets, an in-process router (so the race detector watches the
// scatter-gather machinery), and a single-process shard.Sharded oracle
// built over the identical table. Every distributed answer must be
// multiset-identical to the oracle's — including after one node process is
// SIGKILLed mid-test.
//
// The node processes are this test binary re-exec'ed: TestMain intercepts
// COAXSERVE_NODE_ARGS and runs cmdNode instead of the test suite, the
// same re-exec idiom the standard library uses for exec tests.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/cluster"
	"github.com/coax-index/coax/internal/core"
	"github.com/coax-index/coax/internal/index"
	"github.com/coax-index/coax/internal/workload"
)

func TestMain(m *testing.M) {
	if args := os.Getenv("COAXSERVE_NODE_ARGS"); args != "" {
		if err := cmdNode(strings.Fields(args)); err != nil {
			fmt.Fprintln(os.Stderr, "coaxserve node:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reserveAddrs picks n free loopback ports by binding and releasing them.
// The window between release and the child's bind is a benign race on a
// loopback interface.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// waitForRouter retries NewRouter until every node process has built its
// shards and is accepting connections.
func waitForRouter(t *testing.T, addrs []string, shards, rf int, timeout time.Duration) *cluster.Router {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		rt, err := cluster.NewRouter(addrs, shards, rf)
		if err == nil {
			return rt
		}
		lastErr = err
		time.Sleep(250 * time.Millisecond)
	}
	t.Fatalf("cluster did not come up within %v: %v", timeout, lastErr)
	return nil
}

// collectSorted gathers every row a query execution yields into a flat,
// deterministically sorted buffer for multiset comparison.
func sortFlatRows(flat []float64, dims int) {
	n := len(flat) / dims
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*dims : (i+1)*dims]
	}
	sort.Slice(rows, func(a, b int) bool {
		for d := 0; d < dims; d++ {
			if rows[a][d] != rows[b][d] {
				return rows[a][d] < rows[b][d]
			}
		}
		return false
	})
	out := make([]float64, 0, len(flat))
	for _, r := range rows {
		out = append(out, r...)
	}
	copy(flat, out)
}

func flatRowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestClusterMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short mode")
	}
	const (
		rows        = 20000
		gshards     = 12
		rf          = 2
		numNodes    = 3
		localShards = 2
	)
	addrs := reserveAddrs(t, numNodes)
	peers := strings.Join(addrs, ",")

	procs := make([]*exec.Cmd, numNodes)
	for i, a := range addrs {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), fmt.Sprintf(
			"COAXSERVE_NODE_ARGS=-addr %s -peers %s -shards %d -replication %d -dataset osm -rows %d -local-shards %d",
			a, peers, gshards, rf, rows, localShards))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		procs[i] = cmd
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
			}
			p.Wait()
		}
	})

	rt := waitForRouter(t, addrs, gshards, rf, 120*time.Second)
	defer rt.Close()

	// The oracle: the exact table every node generated, on one engine.
	tab, err := makeTable("osm", rows)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := buildOracle(tab, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	dims := oracle.Dims()

	collectRouter := func(r index.Rect, limit int) ([]float64, bool) {
		t.Helper()
		var flat []float64
		complete, err := rt.Exec(r, index.Spec{Limit: limit}, func(row []float64) bool {
			flat = append(flat, row...)
			return true
		})
		if err != nil {
			t.Fatalf("router Exec: %v", err)
		}
		return flat, complete
	}
	collectOracle := func(r index.Rect) []float64 {
		var flat []float64
		oracle.Query(r, func(row []float64) { flat = append(flat, row...) })
		return flat
	}
	checkQueries := func(label string, n int, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			r := workload.RandRect(rng, tab)
			got, complete := collectRouter(r, 0)
			want := collectOracle(r)
			if !complete {
				t.Fatalf("%s query %d: distributed scan incomplete", label, i)
			}
			sortFlatRows(got, dims)
			sortFlatRows(want, dims)
			if !flatRowsEqual(got, want) {
				t.Fatalf("%s query %d: cluster answered %d rows, oracle %d (or row values differ)",
					label, i, len(got)/dims, len(want)/dims)
			}
		}
	}

	t.Run("QueryOracle", func(t *testing.T) { checkQueries("initial", 20, 11) })

	t.Run("LimitK", func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 10; i++ {
			r := workload.RandRect(rng, tab)
			all := collectOracle(r)
			total := len(all) / dims
			if total < 2 {
				continue
			}
			k := 1 + rng.Intn(total-1)
			got, _ := collectRouter(r, k)
			if len(got)/dims != k {
				t.Fatalf("Limit(%d) returned %d rows", k, len(got)/dims)
			}
			// Every limited row must exist in the oracle's multiset.
			remaining := map[string]int{}
			for off := 0; off < len(all); off += dims {
				remaining[fmt.Sprint(all[off:off+dims])]++
			}
			for off := 0; off < len(got); off += dims {
				key := fmt.Sprint(got[off : off+dims])
				if remaining[key] == 0 {
					t.Fatalf("Limit(%d) returned a row the oracle never matched: %v", k, got[off:off+dims])
				}
				remaining[key]--
			}
		}
	})

	checkAggs := func(label string, n int, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		specs := []index.AggSpec{
			{Op: index.AggCount, Col: -1, Group: -1},
			{Op: index.AggSum, Col: 0, Group: -1},
			{Op: index.AggMin, Col: 1, Group: -1},
		}
		for i := 0; i < n; i++ {
			r := workload.RandRect(rng, tab)
			for _, aspec := range specs {
				got, complete, err := rt.ExecAgg(r, index.Spec{}, aspec)
				if err != nil || !complete {
					t.Fatalf("%s agg %v: err=%v complete=%v", label, aspec, err, complete)
				}
				want, _ := oracle.ExecAgg(r, index.Spec{}, aspec, nil)
				if got.All.Count != want.All.Count {
					t.Fatalf("%s agg %v: count %d vs oracle %d", label, aspec, got.All.Count, want.All.Count)
				}
				if want.All.Count > 0 {
					if got.All.Min != want.All.Min || got.All.Max != want.All.Max {
						t.Fatalf("%s agg %v: extrema (%g,%g) vs oracle (%g,%g)",
							label, aspec, got.All.Min, got.All.Max, want.All.Min, want.All.Max)
					}
					// SUM folds in a different row order across the cluster;
					// only reassociation error is tolerated.
					if diff := math.Abs(got.All.Sum - want.All.Sum); diff > 1e-9*math.Max(1, math.Abs(want.All.Sum)) {
						t.Fatalf("%s agg %v: sum %g vs oracle %g", label, aspec, got.All.Sum, want.All.Sum)
					}
				}
			}
		}
	}

	t.Run("AggregateOracle", func(t *testing.T) { checkAggs("initial", 8, 13) })

	t.Run("Mutations", func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		// Inserts: fresh rows derived from real ones, mirrored on the oracle.
		for i := 0; i < 30; i++ {
			row := append([]float64(nil), tab.Row(rng.Intn(tab.Len()))...)
			row[0] += 0.25 + float64(i)
			if err := rt.Insert(row); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
			if err := oracle.Insert(row); err != nil {
				t.Fatalf("oracle insert %d: %v", i, err)
			}
		}
		// Deletes of existing rows.
		for i := 0; i < 15; i++ {
			row := append([]float64(nil), tab.Row(rng.Intn(tab.Len()))...)
			cerr := rt.Delete(row)
			oerr := oracle.Delete(row)
			if (cerr == nil) != (oerr == nil) {
				t.Fatalf("delete %d: cluster err %v, oracle err %v", i, cerr, oerr)
			}
		}
		// A cross-shard update (the delete+insert decomposition).
		old := append([]float64(nil), tab.Row(7)...)
		upd := append([]float64(nil), old...)
		upd[0] += 1234.5
		if err := rt.Update(old, upd); err != nil {
			if errors.Is(err, core.ErrNotFound) {
				// A delete above may have removed row 7 first; mirror that.
				if oerr := oracle.Update(old, upd); !errors.Is(oerr, core.ErrNotFound) {
					t.Fatalf("update: cluster ErrNotFound, oracle %v", oerr)
				}
			} else {
				t.Fatalf("update: %v", err)
			}
		} else if err := oracle.Update(old, upd); err != nil {
			t.Fatalf("oracle update: %v", err)
		}
		// Logical errors must round-trip the wire as engine error types.
		if err := rt.Delete(make([]float64, dims)); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("deleting an absent row: got %v, want ErrNotFound", err)
		}
		if err := rt.Insert([]float64{math.NaN()}); err == nil {
			t.Fatal("inserting a short NaN row succeeded")
		}
		checkQueries("post-mutation", 15, 15)
		checkAggs("post-mutation", 5, 16)
	})

	t.Run("NodeKilledMidTest", func(t *testing.T) {
		if err := procs[0].Process.Kill(); err != nil {
			t.Fatalf("killing node 0: %v", err)
		}
		procs[0].Wait()
		// Every global shard still has a live replica (rf=2), so answers
		// must stay oracle-identical — served via failover.
		checkQueries("post-kill", 12, 17)
		checkAggs("post-kill", 4, 18)
	})
}

// TestClusterNodeSnapshotIn boots a multi-process cluster whose nodes all
// build from the same v3 (memory-mapped, compressed) snapshot via `node
// -in` instead of a synthetic dataset, and checks distributed answers
// against an oracle built over the snapshot's table. This is the
// operational path for serving a prepared dataset across a fleet: write
// one v3 file, point every node at it.
func TestClusterNodeSnapshotIn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster test skipped in -short mode")
	}
	const (
		rows        = 8000
		gshards     = 8
		rf          = 2
		numNodes    = 2
		localShards = 2
	)
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(rows))
	so := coax.DefaultShardOptions()
	so.NumShards = 4
	idx, err := coax.BuildSharded(tab, coax.DefaultOptions(), so)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := fmt.Sprintf("%s/cluster.v3", t.TempDir())
	if err := coax.SaveShardedFileV3(snapPath, idx, true); err != nil {
		t.Fatal(err)
	}

	addrs := reserveAddrs(t, numNodes)
	peers := strings.Join(addrs, ",")
	procs := make([]*exec.Cmd, numNodes)
	for i, a := range addrs {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), fmt.Sprintf(
			"COAXSERVE_NODE_ARGS=-addr %s -peers %s -shards %d -replication %d -in %s -local-shards %d",
			a, peers, gshards, rf, snapPath, localShards))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		procs[i] = cmd
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
			}
			p.Wait()
		}
	})

	rt := waitForRouter(t, addrs, gshards, rf, 120*time.Second)
	defer rt.Close()

	// The oracle serves the same table the snapshot encodes.
	oracle, err := buildOracle(tab, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	dims := oracle.Dims()

	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 15; i++ {
		r := workload.RandRect(rng, tab)
		var got []float64
		complete, err := rt.Exec(r, index.Spec{}, func(row []float64) bool {
			got = append(got, row...)
			return true
		})
		if err != nil || !complete {
			t.Fatalf("query %d: err=%v complete=%v", i, err, complete)
		}
		var want []float64
		oracle.Query(r, func(row []float64) { want = append(want, row...) })
		sortFlatRows(got, dims)
		sortFlatRows(want, dims)
		if !flatRowsEqual(got, want) {
			t.Fatalf("query %d: cluster answered %d rows, oracle %d (or row values differ)",
				i, len(got)/dims, len(want)/dims)
		}
		agg, complete, err := rt.ExecAgg(r, index.Spec{}, index.AggSpec{Op: index.AggCount, Col: -1, Group: -1})
		if err != nil || !complete {
			t.Fatalf("agg %d: err=%v complete=%v", i, err, complete)
		}
		if int(agg.All.Count) != len(want)/dims {
			t.Fatalf("agg %d: count %d, oracle %d", i, agg.All.Count, len(want)/dims)
		}
	}
}

// TestRouterModeHTTP drives the router-mode HTTP surface against an
// in-process cluster: the JSON API must behave exactly like serve mode,
// including 429 + Retry-After when every replica sheds.
func TestRouterModeHTTP(t *testing.T) {
	tab := coax.GenerateOSM(coax.DefaultOSMConfig(6000))
	const gshards, rf = 8, 2
	bc, err := startLocalCluster(tab, gshards, 2, rf, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.close()
	rt, err := cluster.NewRouter(bc.addrs, gshards, rf)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	rst := &routerState{rt: rt, start: time.Now()}
	srv := httptest.NewServer(newRouterMux(rst))
	t.Cleanup(srv.Close)

	oracle, err := buildOracle(tab, 4, 0)
	if err != nil {
		t.Fatal(err)
	}

	// /query must agree with the oracle on counts.
	gen := workload.NewGenerator(tab, 5)
	for i, r := range gen.KNNRects(10, 50) {
		var resp queryResponse
		httpResp := postJSON(t, srv.URL+"/query", rectToRequest(r), &resp)
		if httpResp.StatusCode != 200 {
			t.Fatalf("query %d: status %d", i, httpResp.StatusCode)
		}
		want := 0
		oracle.Query(r, func([]float64) { want++ })
		if resp.Count != want {
			t.Fatalf("query %d: count %d, oracle %d", i, resp.Count, want)
		}
	}

	// Aggregation by position; by name must 400.
	dim := 0
	var aggResp queryResponse
	if r := postJSON(t, srv.URL+"/query", rectRequest{Agg: &aggRequest{Op: "sum", Dim: &dim}}, &aggResp); r.StatusCode != 200 {
		t.Fatalf("agg by dim: status %d", r.StatusCode)
	}
	col := "lat"
	if r := postJSON(t, srv.URL+"/query", rectRequest{Agg: &aggRequest{Op: "sum", Col: &col}}, nil); r.StatusCode != 400 {
		t.Fatalf("agg by name: status %d, want 400", r.StatusCode)
	}

	// Mutations flow through to the cluster.
	row := append([]float64(nil), tab.Row(3)...)
	row[0] += 9000.5
	var ins map[string]int64
	if r := postJSON(t, srv.URL+"/insert", insertRequest{Row: row}, &ins); r.StatusCode != 200 {
		t.Fatalf("insert: status %d", r.StatusCode)
	}
	if r := postJSON(t, srv.URL+"/delete", insertRequest{Row: row}, nil); r.StatusCode != 200 {
		t.Fatalf("delete inserted row: status %d", r.StatusCode)
	}
	if r := postJSON(t, srv.URL+"/delete", insertRequest{Row: row}, nil); r.StatusCode != 404 {
		t.Fatalf("delete absent row: status %d, want 404", r.StatusCode)
	}

	// All replicas shedding → 429 carrying the LARGEST Retry-After.
	bc.nodes[0].SetDraining(1500 * time.Millisecond)
	bc.nodes[1].SetDraining(3500 * time.Millisecond)
	resp := postJSON(t, srv.URL+"/query", rectToRequest(gen.KNNRects(1, 50)[0]), nil)
	if resp.StatusCode != 429 {
		t.Fatalf("all draining: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "4" {
		t.Fatalf("Retry-After %q, want \"4\" (ceil of the 3.5s max)", ra)
	}
	if r := postJSON(t, srv.URL+"/insert", insertRequest{Row: row}, nil); r.StatusCode != 429 {
		t.Fatalf("mutation while draining: status %d, want 429", r.StatusCode)
	}
	bc.nodes[0].SetDraining(0)
	bc.nodes[1].SetDraining(0)
	if r := postJSON(t, srv.URL+"/query", rectToRequest(gen.KNNRects(1, 50)[0]), nil); r.StatusCode != 200 {
		t.Fatalf("after drain lifted: status %d", r.StatusCode)
	}
}

// localCluster is an in-process cluster: n nodes on loopback listeners.
type localCluster struct {
	nodes []*cluster.Node
	addrs []string
}

func (lc *localCluster) close() {
	for _, n := range lc.nodes {
		n.Close()
	}
}

// startLocalCluster builds and serves an n-node cluster over tab: each
// node materializes exactly the global shards consistent hashing assigns
// it, identical to what n separate processes would build.
func startLocalCluster(tab *coax.Table, shards, n, rf, localShards int) (*localCluster, error) {
	lc := &localCluster{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lc.close()
			return nil, err
		}
		lns[i] = ln
		lc.addrs = append(lc.addrs, ln.Addr().String())
	}
	ring, err := cluster.NewRing(lc.addrs, 0)
	if err != nil {
		lc.close()
		return nil, err
	}
	so := coax.DefaultShardOptions()
	so.NumShards = localShards
	for i, addr := range lc.addrs {
		hosted := ring.HostedShards(addr, shards, rf)
		engines, err := cluster.BuildShards(tab, hosted, shards, coax.DefaultOptions(), so)
		if err != nil {
			lc.close()
			return nil, err
		}
		node, err := cluster.NewNode(engines, shards)
		if err != nil {
			lc.close()
			return nil, err
		}
		lc.nodes = append(lc.nodes, node)
		go node.Serve(lns[i])
	}
	return lc, nil
}

// rectToRequest converts a workload rectangle into its wire form, counting
// only (limit 0) so a check compares counts, not row transfer.
func rectToRequest(r index.Rect) rectRequest {
	lim := 0
	req := rectRequest{
		Limit: &lim,
		Min:   make([]*float64, len(r.Min)),
		Max:   make([]*float64, len(r.Max)),
	}
	for i := range r.Min {
		if !math.IsInf(r.Min[i], -1) {
			v := r.Min[i]
			req.Min[i] = &v
		}
		if !math.IsInf(r.Max[i], 1) {
			v := r.Max[i]
			req.Max[i] = &v
		}
	}
	return req
}
