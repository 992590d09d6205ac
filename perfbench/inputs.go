package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"

	"github.com/coax-index/coax/coax"
	"github.com/coax-index/coax/internal/workload"
)

// Input sizes. The serving workloads use 2M OSM rows so that the
// compressed snapshot's decoded working set (~61 MB) outgrows the 32 MiB
// page cache; mixed-rw uses 1M rows so its CSV parse and build at start-up
// stay a few seconds.
const (
	servingRows = 2_000_000
	mixedRows   = 1_000_000
	numShards   = 2

	// knnK is the neighbourhood size of a row-returning rectangle; the k-d
	// tree holds a 1-in-kdSampleEvery sample of the rows and k is scaled
	// down with it, as workload.KNNRects does. k is chosen such that the
	// median rectangle matches about 100 rows.
	knnK          = 150
	kdSampleEvery = 10
	hotRects      = 300
	aggMinSel     = 0.10
	aggMaxSel     = 0.20
	// A mixed-rw hot rectangle matches hotMinRows..hotMaxRows rows. Unfiltered,
	// the ~20% of reads that go to the most popular rectangle made the mean
	// match count per read, and with it QPS, move by ±7% between seeds.
	hotMinRows = 75
	hotMaxRows = 125
)

// rngFor returns the generator of one named input stream of a run: each
// stream depends only on the seed and its own name, so adding a stream
// never shifts another.
func rngFor(seed int64, stream string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, stream)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return rand.New(rand.NewSource(s))
}

// osmTable generates the synthetic OSM rows (id, timestamp, lat, lon) at the
// generator's own fixed seed. The run's seed does not reach the rows: it
// would move the generator's dense clusters, and with them the grid layout
// and the outlier share, so that runs on different seeds measured different
// datasets (agg-broad's p50 ranged over ±15% across five seeds). The seed
// draws every request instead.
func osmTable(rows int) *coax.Table {
	return coax.GenerateOSM(coax.DefaultOSMConfig(rows))
}

// writeSnapshot builds the 2-shard index over t and saves it as a COAXSNAP
// v3 file, raw or with compressed pages.
func writeSnapshot(path string, t *coax.Table, compress bool) error {
	so := coax.DefaultShardOptions()
	so.NumShards = numShards
	idx, err := coax.BuildSharded(t, coax.DefaultOptions(), so)
	if err != nil {
		return fmt.Errorf("building snapshot index: %w", err)
	}
	return coax.SaveShardedFileV3(path, idx, compress)
}

func writeCSV(path string, t *coax.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := coax.WriteCSV(w, t); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

func hashBodies(reqs []*request) string {
	h := sha256.New()
	for _, r := range reqs {
		h.Write([]byte(r.path))
		h.Write(r.body)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// --- requests ---

type opKind int

const (
	opQuery opKind = iota
	opInsert
	opDelete
	opUpdate
)

// request is one HTTP operation of a workload and what the oracle needs to
// check its answer.
type request struct {
	kind   opKind
	path   string
	body   []byte
	rect   coax.Rect
	agg    string // "" for a row query, "count" or "sum" (of lon)
	row    []float64
	newRow []float64
}

func (k opKind) isWrite() bool { return k != opQuery }

// bound renders one side of a rectangle, leaving infinite bounds null
// (unconstrained) because JSON has no infinity.
func bound(v []float64) []*float64 {
	out := make([]*float64, len(v))
	for i := range v {
		if !math.IsInf(v[i], 0) {
			out[i] = &v[i]
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only finite floats and fixed shapes reach here
	}
	return b
}

func queryRequest(r coax.Rect, agg string) *request {
	body := map[string]any{"min": bound(r.Min), "max": bound(r.Max)}
	switch agg {
	case "count":
		body["agg"] = map[string]string{"op": "count"}
	case "sum":
		body["agg"] = map[string]string{"op": "sum", "col": "lon"}
	}
	return &request{kind: opQuery, path: "/query", body: mustJSON(body), rect: r, agg: agg}
}

func writeRequest(op workload.MixOp) *request {
	switch op.Kind {
	case workload.OpInsert:
		return &request{kind: opInsert, path: "/insert", body: mustJSON(map[string]any{"row": op.Row}), row: op.Row}
	case workload.OpDelete:
		return &request{kind: opDelete, path: "/delete", body: mustJSON(map[string]any{"row": op.Row}), row: op.Row}
	default:
		return &request{kind: opUpdate, path: "/update", body: mustJSON(map[string]any{"old": op.Old, "new": op.New}), row: op.Old, newRow: op.New}
	}
}

// knnRects draws count distinct k-NN rectangles around random rows of t;
// with accept set, only rectangles it accepts.
func knnRects(t *coax.Table, rng *rand.Rand, count int, accept func(coax.Rect) bool) []coax.Rect {
	kd := newKDTree(t, t.Len()/kdSampleEvery, rng)
	k := knnK / kdSampleEvery
	seen := make(map[string]bool, count)
	out := make([]coax.Rect, 0, count)
	for len(out) < count {
		r := kd.knnRect(t, t.Row(rng.Intn(t.Len())), k)
		key := r.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		if accept == nil || accept(r) {
			out = append(out, r)
		}
	}
	return out
}

// aggRects draws count distinct timestamp windows, each holding a uniformly
// drawn 10–20% of the rows. Timestamp is the dependent column of the
// id→timestamp soft FD, so every query goes through translation.
func aggRects(t *coax.Table, rng *rand.Rand, count int) []coax.Rect {
	ts := t.Column(1)
	sort.Float64s(ts)
	n := len(ts)
	out := make([]coax.Rect, 0, count)
	for len(out) < count {
		sel := aggMinSel + rng.Float64()*(aggMaxSel-aggMinSel)
		w := int(sel * float64(n))
		lo := rng.Intn(n - w)
		r := coax.FullRect(t.Dims())
		r.Min[1], r.Max[1] = ts[lo], ts[lo+w-1]
		if r.Min[1] < r.Max[1] {
			out = append(out, r)
		}
	}
	return out
}

// --- request streams ---

// stream yields one workload's operations in order. oracle returns the
// rows the answer to the most recent query must be computed from.
type stream interface {
	next() *request
	oracle() *coax.Table
}

// poolStream replays a pre-generated list of requests over static rows;
// next returns nil once the list is used up.
type poolStream struct {
	reqs []*request
	pos  int
	rows *coax.Table
}

func (s *poolStream) next() *request {
	if s.pos >= len(s.reqs) {
		return nil
	}
	s.pos++
	return s.reqs[s.pos-1]
}

func (s *poolStream) oracle() *coax.Table { return s.rows }

// mixStream interleaves reads and writes from one workload.MixGenerator:
// about nine reads per write, reads zipfian over a fixed set of hot
// rectangles, writes split evenly between insert, delete and update with
// 10% of new rows perturbed into outliers. The generator's live view is the
// oracle for every read.
type mixStream struct {
	gen  *workload.MixGenerator
	hot  []*request
	zipf *rand.Zipf
}

// hotRequests draws the mixed-rw hot set: hotRects distinct k-NN
// rectangles matching hotMinRows..hotMaxRows rows of t each.
func hotRequests(t *coax.Table, rng *rand.Rand) []*request {
	// Rows in id order: a rectangle's matches lie in its id range.
	ord := make([]int, t.Len())
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return t.Row(ord[a])[0] < t.Row(ord[b])[0] })
	inRange := func(r coax.Rect) bool {
		i := sort.Search(len(ord), func(i int) bool { return t.Row(ord[i])[0] >= r.Min[0] })
		n := 0
		for ; i < len(ord) && t.Row(ord[i])[0] <= r.Max[0] && n <= hotMaxRows; i++ {
			if r.Contains(t.Row(ord[i])) {
				n++
			}
		}
		return n >= hotMinRows && n <= hotMaxRows
	}
	rects := knnRects(t, rng, hotRects, inRange)
	hot := make([]*request, len(rects))
	for i, r := range rects {
		hot[i] = queryRequest(r, "")
	}
	return hot
}

// newMixStream starts the mixed-rw stream over base, reading from hot.
func newMixStream(base *coax.Table, seed int64, hot []*request) *mixStream {
	cfg := workload.MixConfig{
		InsertWeight: 1,
		DeleteWeight: 1,
		UpdateWeight: 1,
		QueryWeight:  27,
		OutlierFrac:  0.1,
	}
	zr := rngFor(seed, "mixed-zipf")
	return &mixStream{
		gen:  workload.NewMixGenerator(base, rngFor(seed, "mixed-ops").Int63(), cfg),
		hot:  hot,
		zipf: rand.NewZipf(zr, 1.1, 1, uint64(len(hot)-1)),
	}
}

func (s *mixStream) next() *request {
	op := s.gen.Next()
	if op.Kind == workload.OpQuery {
		return s.hot[s.zipf.Uint64()]
	}
	return writeRequest(op)
}

func (s *mixStream) oracle() *coax.Table { return s.gen.LiveView() }
