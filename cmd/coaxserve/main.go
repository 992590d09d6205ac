// Command coaxserve serves a sharded COAX index over HTTP/JSON, on one
// process or as a cluster of nodes behind a router.
//
// Usage:
//
//	coaxserve serve -dataset osm -rows 500000 -shards 8 -addr :8080 -save osm-sharded.coax
//	coaxserve serve -in osm-sharded.coax -compact-interval 30s
//	coaxserve serve -in osm.v3 -addr :8080      # v3 snapshots serve memory-mapped
//	coaxserve serve -in osm-sharded.coax -debug-addr :6060 -slowlog-threshold 50ms -access-log
//	coaxserve serve -in osm-sharded.coax -cache-size 8192 -max-inflight 64 -queue-timeout 100ms
//	coaxserve node -addr 127.0.0.1:7401 -peers 127.0.0.1:7401,127.0.0.1:7402 -shards 16 -replication 2
//	coaxserve node -addr 127.0.0.1:7401 -peers ... -in osm.v3   # every node builds from one snapshot
//	coaxserve router -addr :8080 -nodes 127.0.0.1:7401,127.0.0.1:7402 -shards 16 -replication 2
//
// The serve mode loads a sharded snapshot (or builds one over a synthetic
// dataset at startup) and answers:
//
//	GET  /healthz  liveness probe; ?verbose=1 adds lifecycle epoch, stale
//	               shard count, snapshot version, rows/shards, and uptime
//	GET  /stats    index shape plus lifecycle health: outlier/tombstone
//	               ratios, model drift, per-shard rebuild epochs, staleness
//	GET  /metrics  Prometheus text exposition of every metric family:
//	               query (latency, pages/rows scanned, early stops),
//	               mutation (insert/delete/update, compactions), lifecycle
//	               (rebuilds, replay sizes, compactor sweeps), build
//	               (rows/sec, phase durations, peak heap), HTTP, and the
//	               index-health gauges (outlier/tombstone ratio, epoch)
//	GET  /debug/vars
//	               the same registry as an expvar JSON map (under "coax")
//	GET  /debug/slowlog
//	               ring buffer of the most recent queries slower than
//	               -slowlog-threshold, each with its full EXPLAIN report
//	POST /query    {"min":[...],"max":[...],"limit":100} — null bounds are
//	               unconstrained; responds {"count":N,"rows":[[...],...]}.
//	               "early":true stops the scan once limit rows are found
//	               (count then equals rows returned) and requires a positive
//	               limit — "early" with limit ≤ 0 is a 400; ?explain=true
//	               adds an execution report (soft-FD constraint translation,
//	               primary/outlier scan split, shards pruned, wall time) and
//	               bypasses the result cache. NaN, inverted, or
//	               wrong-dimension bounds are a 400. "agg" switches the
//	               query to an aggregation pushdown: {"agg":{"op":"sum",
//	               "col":"lon"}} (ops count/sum/min/max/avg, optional
//	               "group_by") answers {"count":N,"agg":{...}} with no rows,
//	               folded inside the batch scan kernels; "agg" with "early"
//	               is a 400.
//	POST /batch    {"queries":[{...},...]} — one fan-out for the whole
//	               batch (?explain=true or "early" run per-query instead)
//	POST /insert   {"row":[...]} — routes the row to its shard
//	POST /delete   {"row":[...]} — removes one exact-match row (404 if absent)
//	POST /update   {"old":[...],"new":[...]} — replaces one row
//	POST /compact  rebuild stale shards online now (?force=true: all shards)
//
// A background compactor (-compact-interval) polls the same staleness
// thresholds and rebuilds drifted shards automatically — the self-healing
// loop; queries keep being served from the old epoch during every rebuild.
//
// The serving tier hardens /query and /batch (internal/serve): -cache-size
// bounds a sharded-LRU result cache keyed on the canonicalized rectangle
// and invalidated by per-shard mutation versions — a cached answer is never
// stale; identical concurrent /query misses coalesce onto one engine
// fan-out. -max-inflight caps concurrently executing queries: excess
// requests wait in a bounded queue (-max-queue, -queue-timeout) and are
// shed with 429 + Retry-After when it overflows or the deadline passes.
// /stats reports cache hit/eviction and admission shed counters alongside
// the matching /metrics families.
//
// -debug-addr serves net/http/pprof, expvar, and /metrics on a second
// listener kept off the query port. -access-log writes one line per request
// to stderr. Shutdown is graceful: SIGINT/SIGTERM stop the listener and
// drain in-flight requests for up to -drain-timeout.
//
// The node and router modes deploy the engine as a cluster
// (internal/cluster): each node process hosts the global shards consistent
// hashing assigns it behind the binary wire protocol, and the router
// scatter-gathers queries across nodes — with hedged replica reads, circuit
// breaking, and failover — while serving the same HTTP/JSON API as serve
// mode, including its result cache, request coalescing, and admission
// control.
//
// The repository's benchmark, perfbench/ (see perfbench/README.md), drives
// these same serve, node and router processes end to end.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = cmdServe(os.Args[2:])
	case "node":
		err = cmdNode(os.Args[2:])
	case "router":
		err = cmdRouter(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "coaxserve: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coaxserve:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `coaxserve — sharded concurrent COAX query serving

subcommands:
  serve        answer HTTP/JSON queries and mutations from a sharded index
  node         host this process's consistent-hash share of a cluster's
               shards behind the binary wire protocol
  router       serve the HTTP/JSON API by scatter-gathering across cluster
               nodes, with hedged replica reads and failover

run 'coaxserve <subcommand> -h' for flags`)
}
