// Command perfbench is the repository's benchmark: it serves AQL through
// aqld's real HTTP handler and drives POST /query and POST /val with a
// closed loop of one client, checking every answer. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it also replays a slice of
// the workload through each layer's public functions, timed from outside
// the program, and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
	"unsafe"

	"github.com/aqldb/aql/internal/object"
)

// metricDef names one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run, in output order.
// failed_frac is printed too but kept out of the JSON result, whose
// metrics must never read 0; the result's failed field carries it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "req/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"alloc_kb_per_req", "KiB"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MiB"},
}

// clients is the closed loop's client count. One client leaves the other
// cores to the garbage collector and the HTTP stack. With nproc clients on a
// shared 2-core host, every request also waited on the other client's work,
// and kernel's p50_ms spread by over a quarter across runs of the same code.
const clients = 1

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// minOps keeps at least 11 samples beyond p99 in the calm quarter of a
// run's windows.
const minOps = 4400

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	gcs uint32 // GC cycles during the timed loop, for the meta line
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: kernel, adhoc, ooc or mixed")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "nominal run length; sets the fixed number of operations")
	traced := fs.Int("trace", 0, "1: also run the traced layer replay and print per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1: write the recorded spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload kernel|adhoc|ooc|mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	// Inputs that must be files (the NetCDF variable) live in a scratch
	// directory under the working directory, removed on exit.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err == nil {
		defer os.RemoveAll(dir)
		dir, err = filepath.Abs(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	nops := max(*seconds*sp.rate, minOps)
	w, err := sp.gen(*seed, nops, dir)
	if err == nil {
		err = w.encode()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: generate:", err)
		return 1
	}

	var res *result
	if *traced == 1 {
		res, err = runTraced(w, sp, clients, *spans)
	} else {
		res, err = runEndToEnd(w, clients)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printMeta(*name, *seed, len(w.Ops), clients, res.gcs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runEndToEnd sets the workload up setupReps times (timing each), keeps the
// last instance, and replays the timed sequence on it.
func runEndToEnd(w *workload, clients int) (*result, error) {
	var setups []float64
	var in *instance
	for r := 0; r < setupReps; r++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		in, err = setUp(w, clients)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.close()
	m := timed(in, w, clients)
	printGuards(w, m.guards)
	printTable(w.Name, "end-to-end", m.metrics)
	fmt.Printf("failed_frac %.6f ratio (%d of %d)\n", float64(m.res.failed)/float64(len(w.Ops)), m.res.failed, len(w.Ops))
	if m.res.failed > 0 {
		fmt.Println("first failure:", m.res.firstErr)
	}
	out := map[string]metric{"setup_s": {median(setups), "s"}}
	for _, d := range endToEnd[1:] {
		out[d.name] = m.metrics[d.name]
	}
	return &result{Correct: m.res.failed == 0, Attempted: len(w.Ops), Failed: m.res.failed, Metrics: out, gcs: m.gcs}, nil
}

// timedRun is one measured replay of the timed sequence.
type timedRun struct {
	res     loopResult
	metrics map[string]metric
	guards  []guard
	// hitRatio and queueMS are the plan cache and admission figures of the
	// closed loop, reused by the traced run's server metrics.
	hitRatio float64
	queueMS  float64
	gcs      uint32
}

// timed runs the timed sequence on a set-up instance after a GC, and
// derives the end-to-end metrics and the workload guards from it.
func timed(in *instance, w *workload, clients int) timedRun {
	runtime.GC()
	cs0 := in.srv.CacheStats()
	ts0 := in.sess.TileCache().Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res := in.loop(w.Ops, clients)
	runtime.ReadMemStats(&ms1)
	cs1 := in.srv.CacheStats()
	ts1 := in.sess.TileCache().Stats()

	n := float64(len(w.Ops))
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	t := timedRun{res: res, gcs: ms1.NumGC - ms0.NumGC}
	// The time metrics come from the loop's calm windows. A window's
	// latencies are those of its stretch of the sequence, which with one
	// client are exactly the ops it completed.
	calm := calmWindows(res.windows)
	var qps, cpuMS, p50s []float64
	var tail []time.Duration
	var calmSteal int64
	for _, k := range calm {
		win := res.windows[k]
		qps = append(qps, float64(win.ops)/win.wall.Seconds())
		cpuMS = append(cpuMS, ms(win.cpu)/float64(win.ops))
		s := append([]time.Duration(nil), res.lat[k*win.ops:(k+1)*win.ops]...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		p50s = append(p50s, ms(percentile(s, 0.50)))
		tail = append(tail, s...)
		calmSteal += win.steal
	}
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	t.metrics = map[string]metric{
		"qps":              {median(qps), "req/s"},
		"p50_ms":           {median(p50s), "ms"},
		"p99_ms":           {ms(percentile(tail, 0.99)), "ms"},
		"alloc_kb_per_req": {float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / n, "KiB"},
		"cpu_ms_per_req":   {median(cpuMS), "ms"},
		"peak_rss_mb":      {peakRSSMiB(), "MiB"},
	}
	lookups := (cs1.Hits - cs0.Hits) + (cs1.Misses - cs0.Misses)
	if lookups > 0 {
		t.hitRatio = float64(cs1.Hits-cs0.Hits) / float64(lookups)
	}
	if res.queries > 0 {
		t.queueMS = float64(res.queueNS) / 1e6 / float64(res.queries)
	}
	evalShare := float64(res.evalNS) / float64(max(res.wallNS, 1))
	prepShare := float64(res.prepNS) / float64(max(res.wallNS, 1))
	t.guards = workloadGuards(w, t.hitRatio, evalShare, prepShare, res.writes,
		ts1.TileMisses-ts0.TileMisses, ts1.Evictions-ts0.Evictions)
	var steal int64
	for _, win := range res.windows {
		steal += win.steal
	}
	fmt.Printf("loop: %d ops (%d queries, %d writes) in %.3fs (%.1f req/s overall), %d clients, host steal %d ticks (%d in the %d calm windows of %d), plan cache hit ratio %.4f, eval share %.3f, prepare share %.3f, queue wait %.4f ms/query, %d GC cycles\n",
		len(w.Ops), res.queries, res.writes, res.wall.Seconds(), n/res.wall.Seconds(), clients, steal, calmSteal, len(calm), len(res.windows),
		t.hitRatio, evalShare, prepShare, t.queueMS, t.gcs)
	return t
}

// guard is one check that a workload still exercises its layer.
type guard struct {
	name  string
	value float64
	ok    bool
}

// workloadGuards checks that each workload still does its job: without
// them a later change could show a gain on a workload that quietly stopped
// exercising the layer it exists for. The shares are of the server's own
// report wall, as its report phases divide it.
func workloadGuards(w *workload, hitRatio, evalShare, prepShare float64, writes int, tileMisses, evictions int64) []guard {
	switch w.Name {
	case "kernel":
		return []guard{
			{"plan_hit_ratio>=0.99", hitRatio, hitRatio >= 0.99},
			{"exec_share>0.5", evalShare, evalShare > 0.5},
		}
	case "adhoc":
		return []guard{
			{"plan_hit_ratio==0", hitRatio, hitRatio == 0},
			{"prepare_share>0.5", prepShare, prepShare > 0.5},
		}
	case "ooc":
		ratio := float64(int64(w.VarCells)*int64(unsafe.Sizeof(object.Value{}))) / float64(w.TileBudget)
		return []guard{
			{"var_over_budget>=4", ratio, ratio >= 4},
			{"tile_misses>0", float64(tileMisses), tileMisses > 0},
			{"tile_evictions>0", float64(evictions), evictions > 0},
		}
	case "mixed":
		return []guard{
			{"0<plan_hit_ratio<1", hitRatio, hitRatio > 0 && hitRatio < 1},
			{"writes>0", float64(writes), writes > 0},
		}
	}
	return nil
}

func printGuards(w *workload, gs []guard) {
	for _, g := range gs {
		status := "ok"
		if !g.ok {
			status = "FAILED"
		}
		fmt.Printf("guard %s %s: %.4g %s\n", w.Name, g.name, g.value, status)
	}
}

func printTable(workload, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s %s metrics:\n", workload, kind)
	for _, n := range names {
		fmt.Printf("  %-30s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printMeta prints the run's machine fingerprint and shape.
func printMeta(workload string, seed int64, ops, clients int, gcs uint32) {
	meta := map[string]any{
		"gc_cycles":  gcs,
		"workload":   workload,
		"seed":       seed,
		"ops":        ops,
		"clients":    clients,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	b, _ := json.Marshal(meta) // a map of strings and numbers always marshals
	fmt.Println("meta", string(b))
}

// calmWindows returns, in order, the indexes of the windows of ws in which
// the host stole no more CPU time per second than in the calmest quarter of
// them: at least a quarter of the windows, and all of them when the host
// stole nothing. The benchmark shares its host: while the host runs other
// work on this machine's CPUs, requests stall for milliseconds, which can
// triple a run's p99 and cut its throughput by a third. Time metrics taken
// over the calm windows measure the program rather than its neighbours.
// Steal is a rate, so a window that is slow for the program's own reasons
// is not less likely to be chosen.
func calmWindows(ws []window) []int {
	rate := func(i int) float64 { return float64(ws[i].steal) / ws[i].wall.Seconds() }
	rates := make([]float64, len(ws))
	for i := range ws {
		rates[i] = rate(i)
	}
	sort.Float64s(rates)
	limit := rates[max(len(ws)/4, 1)-1]
	var calm []int
	for i := range ws {
		if rate(i) <= limit {
			calm = append(calm, i)
		}
	}
	return calm
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
