package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// perLayer are the traced run's metrics, in output order. Times and counts
// are per request of the replayed slice (its set-up requests included);
// ratios are over the slice.
var perLayer = []metricDef{
	{"server.plan_hit_ratio", "ratio"},
	{"server.overhead_us_per_req", "us"},
	{"parser.parse_us", "us"},
	{"desugar.desugar_us", "us"},
	{"env.macro_us", "us"},
	{"env.setval_us", "us"},
	{"typecheck.infer_us", "us"},
	{"opt.optimize_us", "us"},
	{"opt.rule_firings", "count"},
	{"opt.node_ratio", "ratio"},
	{"compile.program_us", "us"},
	{"compile.exec_ms", "ms"},
	{"compile.ns_per_step", "ns"},
	{"compile.steps_per_req", "count"},
	{"compile.cells_per_req", "count"},
	{"compile.exec_alloc_kb", "KiB"},
	{"tile.misses_per_req", "count"},
	{"tile.evictions_per_req", "count"},
	{"tile.prefetch_useful_ratio", "ratio"},
	{"tile.scanned_per_returned", "ratio"},
	{"netcdf.slab_reads_per_req", "count"},
	{"netcdf.read_kb_per_req", "KiB"},
	{"exchange.render_us", "us"},
	{"exchange.render_kb", "KiB"},
	{"exchange.decode_us", "us"},
	{"trace.report_us", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"ledger.residual_frac", "ratio"},
}

// serverSpans are the server's own code between the layers: request
// decoding, id minting, normalization, the plan-cache map, argument
// checks and response encoding.
var serverSpans = []string{"server.decode", "server.admit", "server.normalize", "server.plan_cache", "server.bind", "server.encode"}

// prepareSpans are the prepare pipeline's layers.
var prepareSpans = []string{"parser.parse", "desugar.desugar", "env.macro", "typecheck.infer", "opt.optimize", "compile.program"}

// ledgerResidual is the stated bound on |HTTP wall − (Σ layer self times +
// server overhead)| as a share of the HTTP wall.
const ledgerResidual = 0.25

// tracedSlice is how many timed ops the traced run replays after the
// set-up sequence: about half a second of serial work.
func tracedSlice(sp spec, nops int) int { return min(nops, max(sp.rate/2, 200)) }

// ledger is the traced run's outcome: the per-layer metrics and what the
// self-check and guards need.
type ledger struct {
	metrics   map[string]metric
	httpUS    float64 // untraced HTTP wall per request
	plainUS   float64 // untraced layer replay wall per request
	tracedUS  float64 // traced layer replay wall per request
	layersUS  float64 // Σ layer self times per request, server spans excluded
	overUS    float64 // server overhead per request
	residual  float64 // signed (http − layers − overhead) / http
	execShare float64 // compile.exec self time / traced wall
	prepShare float64 // prepare spans' self time / traced wall
	spans     []span
	attempted int
	failed    int
	firstErr  string
}

// runTraced runs the closed loop once (for the server's plan-cache and
// admission figures and the guards), then replays the set-up sequence and a
// slice of the timed sequence three times: serially over HTTP, through the
// layers untraced, and through the layers with spans.
func runTraced(w *workload, sp spec, clients int, spansPath string) (*result, error) {
	in, err := setUp(w, clients)
	if err != nil {
		return nil, err
	}
	t := timed(in, w, clients)
	in.close()
	printGuards(w, t.guards)
	fmt.Printf("server.queue_wait_ms %.6f ms (admission wait per query in the closed loop)\n", t.queueMS)

	ops := append(append([]op(nil), w.Setup...), w.Ops[:tracedSlice(sp, len(w.Ops))]...)
	l, err := traceLayers(w, ops, clients)
	if err != nil {
		return nil, err
	}
	l.metrics["server.plan_hit_ratio"] = metric{t.hitRatio, "ratio"}
	printGuards(w, tracedGuards(w, l))
	fmt.Printf("replay walls: http %.2f us/req, layers untraced %.2f, traced %.2f\n", l.httpUS, l.plainUS, l.tracedUS)
	fmt.Printf("ledger: http %.2f us/req = layers %.2f + server overhead %.2f + residual %.2f (%.1f%%)\n",
		l.httpUS, l.layersUS, l.overUS, l.httpUS-l.layersUS-l.overUS, 100*l.residual)
	printTable(w.Name, "per-layer", l.metrics)
	if spansPath == "" {
		spansPath = filepath.Join(".bench_build", "spans-"+w.Name+".json")
	}
	if l.firstErr != "" {
		fmt.Println("first failure:", l.firstErr)
	}
	if t.res.failed > 0 {
		fmt.Println("first failure:", t.res.firstErr)
	}
	failed := t.res.failed + l.failed
	return &result{Correct: failed == 0, Attempted: len(w.Ops) + l.attempted, Failed: failed, Metrics: l.metrics, gcs: t.gcs}, writeSpans(spansPath, l)
}

// tracedGuards are the checks the traced run adds: the ledger residual,
// and the span shares behind the kernel and adhoc guards.
func tracedGuards(w *workload, l *ledger) []guard {
	gs := []guard{{fmt.Sprintf("ledger_residual<=%.2f", ledgerResidual), l.residual, math.Abs(l.residual) <= ledgerResidual}}
	switch w.Name {
	case "kernel":
		gs = append(gs, guard{"traced_exec_share>0.5", l.execShare, l.execShare > 0.5})
	case "adhoc":
		gs = append(gs, guard{"traced_prepare_share>0.5", l.prepShare, l.prepShare > 0.5})
	}
	return gs
}

// writeSpans writes the traced replay's spans as one JSON array.
func writeSpans(path string, l *ledger) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// traceLayers replays ops over HTTP, untraced through the layers, and
// traced through the layers, each on a fresh session. The three replays
// are interleaved op by op, rotating which goes first, so drift in the
// machine's speed and the garbage collector's work fall on all three
// alike.
func traceLayers(w *workload, ops []op, clients int) (*ledger, error) {
	l := &ledger{}
	in, err := start(w, clients)
	if err != nil {
		return nil, err
	}
	defer in.close()
	plain, err := newLayered(w, nil)
	if err != nil {
		return nil, err
	}
	defer plain.sess.Close()
	tr := &tracer{t0: time.Now()}
	traced, err := newLayered(w, tr)
	if err != nil {
		return nil, err
	}
	defer traced.sess.Close()

	var httpWall time.Duration
	sendHTTP := func(o *op) {
		d, out := in.send(o)
		httpWall += d
		l.attempted++
		if out.err != "" {
			if l.failed == 0 {
				l.firstErr = out.err
			}
			l.failed++
		}
	}
	runtime.GC()
	tiles0 := traced.sess.TileCache().Stats()
	var transport time.Duration
	for i := range ops {
		o := &ops[i]
		switch i % 3 {
		case 0:
			sendHTTP(o)
			plain.step(o)
			traced.step(o)
		case 1:
			plain.step(o)
			traced.step(o)
			sendHTTP(o)
		default:
			traced.step(o)
			sendHTTP(o)
			plain.step(o)
		}
		d, err := roundTrip(in)
		if err != nil {
			return nil, err
		}
		transport += d
	}
	tiles := traced.sess.TileCache().Stats()
	for _, r := range []*replayer{plain, traced} {
		l.attempted += r.ops
		if r.failed > 0 && l.failed == 0 {
			l.firstErr = r.firstErr
		}
		l.failed += r.failed
	}
	l.spans = tr.spans

	n := float64(traced.ops)
	self := tr.selfTimes(-1)
	sum := func(names ...string) float64 {
		var s int64
		for _, name := range names {
			s += self[name]
		}
		return float64(s)
	}
	us := func(names ...string) float64 { return sum(names...) / n / 1e3 }
	// The ledger counts requests only: the NetCDF binding (request -1)
	// precedes the HTTP replay's requests too.
	var layerNS float64
	for name, ns := range tr.selfTimes(0) {
		if name != "request" {
			layerNS += float64(ns)
		}
	}
	l.httpUS = float64(httpWall) / n / 1e3
	l.plainUS = float64(plain.wall) / n / 1e3
	l.tracedUS = float64(traced.wall) / n / 1e3
	l.overUS = us(serverSpans...) + float64(transport)/n/1e3
	l.layersUS = layerNS/n/1e3 - us(serverSpans...)
	l.residual = (l.httpUS - l.layersUS - l.overUS) / l.httpUS
	l.execShare = sum("compile.exec") / float64(traced.wall)
	l.prepShare = sum(prepareSpans...) / float64(traced.wall)

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	l.metrics = map[string]metric{
		"server.overhead_us_per_req": {l.overUS, "us"},
		"parser.parse_us":            {us("parser.parse"), "us"},
		"desugar.desugar_us":         {us("desugar.desugar"), "us"},
		"env.macro_us":               {us("env.macro"), "us"},
		"env.setval_us":              {us("env.setval"), "us"},
		"typecheck.infer_us":         {us("typecheck.infer"), "us"},
		"opt.optimize_us":            {us("opt.optimize"), "us"},
		"opt.rule_firings":           {ratio(float64(traced.firings), float64(traced.prepares)), "count"},
		"opt.node_ratio":             {ratio(float64(traced.nodesAfter), float64(traced.nodesBefore)), "ratio"},
		"compile.program_us":         {us("compile.program"), "us"},
		"compile.exec_ms":            {us("compile.exec") / 1e3, "ms"},
		"compile.ns_per_step":        {ratio(sum("compile.exec"), float64(traced.steps)), "ns"},
		"compile.steps_per_req":      {float64(traced.steps) / n, "count"},
		"compile.cells_per_req":      {float64(traced.cells) / n, "count"},
		"compile.exec_alloc_kb":      {float64(traced.execAlloc) / 1024 / n, "KiB"},
		"tile.misses_per_req":        {float64(tiles.TileMisses-tiles0.TileMisses) / n, "count"},
		"tile.evictions_per_req":     {float64(tiles.Evictions-tiles0.Evictions) / n, "count"},
		"tile.prefetch_useful_ratio": {ratio(float64(tiles.PrefetchUseful-tiles0.PrefetchUseful), float64(tiles.Prefetches-tiles0.Prefetches)), "ratio"},
		"tile.scanned_per_returned":  {ratio(float64(tiles.BytesScanned-tiles0.BytesScanned), float64(tiles.BytesReturned-tiles0.BytesReturned)), "ratio"},
		"netcdf.slab_reads_per_req":  {float64(traced.slabReads) / n, "count"},
		"netcdf.read_kb_per_req":     {float64(traced.readBytes) / 1024 / n, "KiB"},
		"exchange.render_us":         {us("exchange.render"), "us"},
		"exchange.render_kb":         {float64(traced.renderBytes) / 1024 / n, "KiB"},
		"exchange.decode_us":         {us("exchange.decode"), "us"},
		"trace.report_us":            {us("trace.report"), "us"},
		"trace.overhead_ratio":       {float64(traced.wall) / float64(plain.wall), "ratio"},
		"ledger.residual_frac":       {math.Abs(l.residual), "ratio"},
	}
	return l, nil
}

// newLayered returns a replayer on a fresh session configured like the
// workload's, with its NetCDF variable bound.
func newLayered(w *workload, tr *tracer) (*replayer, error) {
	sess, err := newSession(w, false)
	if err != nil {
		return nil, err
	}
	r := newReplayer(sess, tr)
	if err := r.bindReadVals(w); err != nil {
		sess.Close()
		return nil, err
	}
	return r, nil
}

// emptyQuery is a POST /query the server rejects right after decoding it.
var emptyQuery = []byte(`{"query": " "}`)

// roundTrip times one minimal POST /query, which the server rejects after
// decoding: the transport's and the handler's fixed share of a request's
// wall. The traced run sends one after every op, so the sample sees the
// same scheduler and garbage-collector conditions as the ops.
func roundTrip(in *instance) (time.Duration, error) {
	t0 := time.Now()
	resp, err := in.client.Post(in.ts.URL+"/query", "application/json", bytes.NewReader(emptyQuery))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		return 0, fmt.Errorf("POST /query with an empty query: status %d, %v", resp.StatusCode, err)
	}
	return d, nil
}
