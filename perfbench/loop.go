package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// requestTimeout bounds one request; a request that takes longer counts as
// failed.
const requestTimeout = 10 * time.Second

// client is the benchmark's single closed-loop HTTP client: it sends the
// next request only after the previous answer has been read in full.
type client struct {
	tr  *http.Transport
	cl  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{tr: tr, cl: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// post sends body to url and returns the status and the response body,
// which stays valid until the next call.
func (c *client) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// getJSON fetches url and decodes its JSON body into v.
func (c *client) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// rateWindow is the span of active loop time over which one throughput
// sample, and one reading of the machine's speed, is taken.
const rateWindow = time.Second

// maxStolen caps the steal share a window is corrected for.
const maxStolen = 0.5

// window is one rateWindow of a loop's active time; a loop's last window
// may be shorter.
type window struct {
	ops             int           // operations completed in it
	dur             time.Duration // its active time
	queries, writes int           // queryMs and writeMs indexes just past its samples
	probeUs         float64       // median time of the speed probe in it; 0 if none ran
	stolen          float64       // share of the CPUs' wall time in it that the hypervisor took
}

// loopResult is what one closed-loop pass measured.
type loopResult struct {
	queryMs, writeMs []float64
	attempted        int
	failed           int
	wrong            int
	checked          int
	respBytes        int64
	matches          []int
	active           time.Duration // wall time of the loop, oracle pauses excluded
	windows          []window
	exhausted        bool
	failures         []string
}

func (r *loopResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// opHook observes each completed operation; the traced run uses it to
// record spans and replay the operation in process.
type opHook func(i int, req *request, lat time.Duration, body []byte)

// runLoop drives the stream against base for dur of active time, or for
// maxOps operations when maxOps > 0. A seeded fraction checkP of the query
// answers is compared with the oracle, and every probeEvery the speed probe
// runs; the clock is paused meanwhile, so neither costs QPS nor latency.
// Every write's status is checked.
// With a tracer, every odd-numbered request is sent inside a recorded span.
func (c *client) runLoop(ctx context.Context, base string, st stream, dur time.Duration, maxOps int, checkP float64, checkRng *rand.Rand, tr *tracer, hook opHook) loopResult {
	var res loopResult
	start := time.Now()
	var paused time.Duration
	var (
		winStart, lastProbe time.Duration
		winOps              int
		probes              []float64
		winWall, winSteal   = start, stealSeconds()
	)
	closeWindow := func(el time.Duration) {
		w := window{ops: winOps, dur: el, queries: len(res.queryMs), writes: len(res.writeMs)}
		if len(probes) > 0 {
			w.probeUs = quantile(probes, 0.5)
		}
		steal := stealSeconds()
		w.stolen = min(max((steal-winSteal)/time.Since(winWall).Seconds()/float64(runtime.NumCPU()), 0), maxStolen)
		res.windows = append(res.windows, w)
		winStart += el
		winOps, probes = 0, probes[:0]
		winWall, winSteal = time.Now(), steal
	}
	for i := 0; ; i++ {
		if maxOps > 0 && i >= maxOps || maxOps <= 0 && time.Since(start)-paused >= dur {
			break
		}
		if ctx.Err() != nil {
			break
		}
		req := st.next()
		if req == nil {
			res.exhausted = true
			break
		}
		sid := -1
		t0 := time.Now()
		if tr != nil && i%2 == 1 {
			sid = tr.begin("coaxserve.http"+req.path, -1, i)
		}
		status, body, err := c.post(ctx, base+req.path, req.body)
		if sid >= 0 {
			tr.end(sid)
		}
		lat := time.Since(t0)
		res.attempted++
		switch {
		case err != nil:
			res.fail("%s: %v", req.path, err)
			continue
		case status != http.StatusOK:
			res.fail("%s: status %d: %s", req.path, status, truncate(body))
			continue
		}
		ms := float64(lat) / float64(time.Millisecond)
		p0 := time.Now()
		if hook != nil {
			hook(i, req, lat, body)
		}
		if req.kind.isWrite() {
			res.writeMs = append(res.writeMs, ms)
		} else {
			res.queryMs = append(res.queryMs, ms)
			res.respBytes += int64(len(body))
			if n, ok := leadingCount(body); ok {
				res.matches = append(res.matches, n)
			}
			if checkRng.Float64() < checkP {
				res.checked++
				if err := checkAnswer(st.oracle(), req, body); err != nil {
					res.wrong++
					res.fail("wrong answer to %s: %v", req.body, err)
				}
			}
		}
		if now := time.Since(start) - paused; now-lastProbe >= probeEvery {
			probes = append(probes, speedProbe())
			lastProbe = now
		}
		winOps++
		if el := time.Since(start) - paused - time.Since(p0) - winStart; el >= rateWindow {
			closeWindow(el)
		}
		paused += time.Since(p0)
	}
	res.active = time.Since(start) - paused
	if winOps > 0 {
		closeWindow(res.active - winStart)
	}
	return res
}

// leadingCount reads the "count" field that every /query answer starts
// with, without decoding the rows.
func leadingCount(body []byte) (int, bool) {
	const prefix = `{"count":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0, false
	}
	rest := body[len(prefix):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(string(rest[:end]))
	return n, err == nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}

// --- statistics ---

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	return xs[max(rank, 1)-1]
}

// p99 returns the 99th percentile when at least ten samples lie beyond it.
func p99(xs []float64) (float64, bool) {
	rank := int(math.Ceil(0.99 * float64(len(xs))))
	if len(xs)-rank < 10 {
		return math.NaN(), false
	}
	return quantile(xs, 0.99), true
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// atReference returns the loop's figures at reference speed (see
// speed.go): the throughput of every window at least half a rateWindow
// long (of the only window, if the loop was shorter), and every query and
// write latency, each scaled by its own window's probe median and steal
// time. A window in which no probe ran takes the previous window's median.
func (r *loopResult) atReference() (qps, queryMs, writeMs []float64) {
	probe := probeRefUs
	q, wr := 0, 0
	for _, w := range r.windows {
		if w.probeUs > 0 {
			probe = w.probeUs
		}
		f := probe / probeRefUs / (1 - w.stolen)
		if w.dur >= rateWindow/2 || len(r.windows) == 1 {
			qps = append(qps, float64(w.ops)/w.dur.Seconds()*f)
		}
		for ; q < w.queries; q++ {
			queryMs = append(queryMs, r.queryMs[q]/f)
		}
		for ; wr < w.writes; wr++ {
			writeMs = append(writeMs, r.writeMs[wr]/f)
		}
	}
	return qps, queryMs, writeMs
}
