package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/aqldb/aql/internal/bench"
	"github.com/aqldb/aql/internal/cluster"
	"github.com/aqldb/aql/internal/server"
)

// clusterReport is the e22 payload: scatter-gather cost relative to a
// single-node baseline, and hedging's effect on tail latency when one
// shard deterministically straggles. Ratio is local/distributed: above 1
// the scatter paid off, below 1 the coordination overhead dominated
// (expected whenever GOMAXPROCS gives the in-process workers no extra
// cores to run on).
type clusterReport struct {
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Workers       int     `json:"workers"`
	LocalNs       int64   `json:"local_ns_per_query"`
	DistNs        int64   `json:"distributed_ns_per_query"`
	Ratio         float64 `json:"local_over_distributed"`
	TailQueries   int     `json:"tail_queries"`
	UnhedgedP50Ns int64   `json:"unhedged_p50_ns"`
	UnhedgedP99Ns int64   `json:"unhedged_p99_ns"`
	HedgedP50Ns   int64   `json:"hedged_p50_ns"`
	HedgedP99Ns   int64   `json:"hedged_p99_ns"`
	HedgeWins     int64   `json:"hedge_wins"`
}

// clusterResults holds the e22 measurements for -trajectory.
var clusterResults *clusterReport

// e22Workers is the worker count of the scatter-gather comparison. Every
// node runs with Workers=1 (no intra-node fan-out), so any speedup is the
// cluster's, not the tabulation kernel's.
const e22Workers = 2

// e22Query is the scatter workload: a compute-heavy head (an inner
// reduction per element), so shard transport and merge cost is amortized
// and the scatter has real work to divide. The reduction length depends
// on i — a constant one is loop-invariant and the optimizer would hoist
// it into a let, taking the tabulation out of top-level (and thus
// shardable) position.
func e22Query(n int) string {
	return fmt.Sprintf(`[[ summap(fn \j => (i*j) %% 7)!(gen!(100 + i %% 101)) | \i < %d ]]`, n)
}

// e22TailQuery is the straggler workload: deliberately cheap, so a
// shard's wall time is transport-dominated and the injected stall — a
// timer, not compute — towers over it. Hedging then pays even on one
// core: the hedge re-dispatch costs milliseconds of real work and saves
// the full stall.
func e22TailQuery(n int) string {
	return fmt.Sprintf(`[[ (i*i + 11*i + 7) %% 97 | \i < %d ]]`, n)
}

// newE22Worker starts an in-process worker aqld with intra-node
// parallelism off.
func newE22Worker() *httptest.Server {
	return httptest.NewServer(server.New(bench.MustSession(), server.Config{Workers: 1}))
}

func postE22(ts *httptest.Server, query string) (time.Duration, server.QueryResponse) {
	body, err := json.Marshal(server.QueryRequest{Query: query})
	if err != nil {
		panic(err)
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqlbench:", err)
		os.Exit(1)
	}
	d := time.Since(start)
	var qr server.QueryResponse
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "aqlbench: e22 query status %d\n", resp.StatusCode)
		os.Exit(1)
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		fmt.Fprintln(os.Stderr, "aqlbench:", err)
		os.Exit(1)
	}
	resp.Body.Close()
	return d, qr
}

// stragglerHedgeWon reports whether the response shows shard 0 — the
// straggler — answered by a hedged attempt. The coordinator-wide HedgeWins
// counter also counts hedges that won on other shards, so it can exceed
// the number of queries.
func stragglerHedgeWon(qr server.QueryResponse) bool {
	for _, sh := range qr.Shards {
		if sh.Shard != 0 {
			continue
		}
		for _, a := range sh.AttemptSpans {
			if a.Outcome == "won" && a.Hedge {
				return true
			}
		}
	}
	return false
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func runE22() {
	n, tailN, reps, tailQ := 6000, 4000, 12, 120
	stragglerDelay := 60 * time.Millisecond
	hedgeAfter := 10 * time.Millisecond
	if *quick {
		n, tailN, reps, tailQ = 2000, 2000, 4, 30
		stragglerDelay = 40 * time.Millisecond
	}
	query := e22Query(n)

	// Single-node baseline: same server code, no coordinator, Workers=1.
	local := newE22Worker()
	defer local.Close()
	postE22(local, query) // warm the plan cache
	var localTotal time.Duration
	for k := 0; k < reps; k++ {
		d, _ := postE22(local, query)
		localTotal += d
	}
	localNs := localTotal.Nanoseconds() / int64(reps)

	// Scatter-gather over e22Workers in-process workers.
	workers := make([]string, e22Workers)
	for i := range workers {
		w := newE22Worker()
		defer w.Close()
		workers[i] = w.URL
	}
	coord := cluster.New(cluster.Config{
		Workers:   workers,
		Transport: &cluster.HTTPTransport{},
		MinCells:  1,
	})
	dist := httptest.NewServer(server.New(bench.MustSession(), server.Config{Workers: 1, Coordinator: coord}))
	defer dist.Close()
	postE22(dist, query) // warm coordinator and worker caches
	var distTotal time.Duration
	for k := 0; k < reps; k++ {
		d, qr := postE22(dist, query)
		distTotal += d
		if qr.Mode != "distributed" {
			fmt.Fprintf(os.Stderr, "aqlbench: e22 scatter ran in mode %q, want distributed\n", qr.Mode)
			os.Exit(1)
		}
	}
	distNs := distTotal.Nanoseconds() / int64(reps)
	ratio := float64(localNs) / float64(distNs)

	// Tail latency: shard 0's first attempt always straggles (a
	// deterministic ChaosTransport stall — the benchmark analogue of a
	// slow replica; the worker is delayed, not working). Unhedged, every
	// query eats the stall; hedged, a second dispatch races it after
	// hedgeAfter and wins.
	tq := e22TailQuery(tailN)
	tail := func(hedge time.Duration) ([]time.Duration, int64) {
		chaos := &cluster.ChaosTransport{Inner: &cluster.HTTPTransport{}}
		// The schedule is keyed (shard, attempt) and attempt numbers
		// restart per query, so one entry covers every query's shard 0.
		chaos.Fail(0, 0, cluster.ChaosFault{Kind: cluster.FaultDelay, Delay: stragglerDelay})
		c := cluster.New(cluster.Config{
			Workers:    workers,
			Transport:  chaos,
			MinCells:   1,
			HedgeAfter: hedge,
		})
		ts := httptest.NewServer(server.New(bench.MustSession(), server.Config{Workers: 1, Coordinator: c}))
		defer ts.Close()
		postE22(ts, tq) // warm-up, not counted
		lat := make([]time.Duration, tailQ)
		var wins int64
		for k := range lat {
			d, qr := postE22(ts, tq)
			lat[k] = d
			if stragglerHedgeWon(qr) {
				wins++
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat, wins
	}
	unhedged, _ := tail(0)
	hedged, wins := tail(hedgeAfter)

	clusterResults = &clusterReport{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       e22Workers,
		LocalNs:       localNs,
		DistNs:        distNs,
		Ratio:         ratio,
		TailQueries:   tailQ,
		UnhedgedP50Ns: percentile(unhedged, 0.5).Nanoseconds(),
		UnhedgedP99Ns: percentile(unhedged, 0.99).Nanoseconds(),
		HedgedP50Ns:   percentile(hedged, 0.5).Nanoseconds(),
		HedgedP99Ns:   percentile(hedged, 0.99).Nanoseconds(),
		HedgeWins:     wins,
	}

	r := clusterResults
	fmt.Printf("| metric | value |\n|---|---|\n")
	fmt.Printf("| single-node query (Workers=1), mean of %d | %v |\n", reps, time.Duration(r.LocalNs).Round(time.Microsecond))
	fmt.Printf("| scatter-gather over %d workers, mean of %d | %v |\n", e22Workers, reps, time.Duration(r.DistNs).Round(time.Microsecond))
	fmt.Printf("| local / distributed (GOMAXPROCS=%d) | %.2fx |\n", r.GOMAXPROCS, r.Ratio)
	fmt.Printf("| straggler (%v stall on one shard), unhedged p50 / p99 of %d | %v / %v |\n",
		stragglerDelay, tailQ, time.Duration(r.UnhedgedP50Ns).Round(time.Microsecond), time.Duration(r.UnhedgedP99Ns).Round(time.Microsecond))
	fmt.Printf("| hedged (hedge-after %v) p50 / p99 | %v / %v |\n",
		hedgeAfter, time.Duration(r.HedgedP50Ns).Round(time.Microsecond), time.Duration(r.HedgedP99Ns).Round(time.Microsecond))
	fmt.Printf("| hedge wins | %d of %d |\n", r.HedgeWins, tailQ)
}
