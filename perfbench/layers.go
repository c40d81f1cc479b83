package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/compile"
	"github.com/aqldb/aql/internal/desugar"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/parser"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/server"
	"github.com/aqldb/aql/internal/tile"
	"github.com/aqldb/aql/internal/trace"
	"github.com/aqldb/aql/internal/typecheck"
	"github.com/aqldb/aql/internal/types"
)

// The server's request caps, mirrored so the replay decodes /val bodies
// and arguments under the same limits.
var valLimits = exchange.Limits{MaxBytes: 16 << 20, MaxDepth: 10_000}

// span is one timed call into a layer. Spans of one request share Req;
// Parent indexes the enclosing span (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer records spans in memory. A nil tracer records nothing, which is
// how the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	req   int
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes sums each span name's self time (duration minus the part its
// children cover) over requests with Req >= minReq.
func (t *tracer) selfTimes(minReq int) map[string]int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]int64{}
	for i, s := range t.spans {
		if s.Req >= minReq {
			out[s.Name] += s.End - s.Start - child[i]
		}
	}
	return out
}

// lplan is the replay's prepared plan, as the server caches it.
type lplan struct {
	prog   *compile.Program
	typ    *types.Type
	params map[string]*types.Type
}

// replayer sends a workload's ops through the layers' public functions in
// the order aqld's handlers call them (server.handleQuery → runQuery →
// plan/prepare → bindArgs → Execute → WriteString, and handleValSet),
// keeping its own plan map keyed like the server's cache.
type replayer struct {
	sess  *repl.Session
	tr    *tracer
	plans map[string]*lplan
	order []string // plan keys in insertion order, for eviction at capacity
	stats *trace.PlanStatsStore
	qid   int

	ops         int // HTTP ops replayed
	prepares    int
	firings     int
	nodesBefore int
	nodesAfter  int
	steps       int64
	cells       int64
	execAlloc   uint64
	renderBytes int64
	slabReads   int64
	readBytes   int64
	failed      int
	firstErr    string
	wall        time.Duration // Σ per-op wall of HTTP ops
}

func newReplayer(sess *repl.Session, tr *tracer) *replayer {
	return &replayer{sess: sess, tr: tr, plans: map[string]*lplan{}, stats: trace.NewPlanStatsStore(0)}
}

// in times f as a span named name.
func (r *replayer) in(name string, f func()) {
	i := r.tr.begin(name)
	f()
	r.tr.end(i)
}

func (r *replayer) fail(err error) {
	if r.failed == 0 {
		r.firstErr = err.Error()
	}
	r.failed++
}

// bindReadVals binds the workload's NetCDF variable the way a readval
// statement does — reader call, value typing, environment binding. Its
// spans (request -1) count in the layer metrics but not in the ledger: the
// HTTP replay's session binds the variable before any request.
func (r *replayer) bindReadVals(w *workload) error {
	if w.NCPath == "" {
		return nil
	}
	if r.tr != nil {
		r.tr.req = -1
	}
	root := r.tr.begin("request")
	defer r.tr.end(root)
	reader, err := r.sess.Env.Reader("NETCDF")
	if err != nil {
		return err
	}
	var v object.Value
	r.in("netcdf.open", func() {
		v, err = reader(object.Tuple(object.String_(w.NCPath), object.String_(w.NCVar)))
	})
	if err != nil {
		return err
	}
	var typ *types.Type
	r.in("typecheck.infer", func() { typ, err = typecheck.TypeOf(v) })
	if err != nil {
		return err
	}
	r.in("env.setval", func() { r.sess.Env.SetVal("W", v, typ) })
	r.in("trace.report", func() {
		io := r.sess.IOFileDelta()
		r.slabReads += io.SlabReads
		r.readBytes += io.BytesRead
	})
	return nil
}

// step sends one op.
func (r *replayer) step(o *op) {
	if r.tr != nil {
		r.tr.req = r.ops
	}
	t0 := time.Now()
	root := r.tr.begin("request")
	if o.write() {
		r.write(o)
	} else {
		r.query(o)
	}
	r.tr.end(root)
	r.wall += time.Since(t0)
	r.ops++
}

// write mirrors handleValSet.
func (r *replayer) write(o *op) {
	var v object.Value
	var err error
	r.in("exchange.decode", func() { v, err = exchange.ReadLimits(bytes.NewReader(o.body), valLimits) })
	if err != nil {
		r.fail(err)
		return
	}
	var typ *types.Type
	r.in("typecheck.infer", func() { typ, err = typecheck.TypeOf(v) })
	if err != nil {
		r.fail(err)
		return
	}
	var epoch uint64
	r.in("env.setval", func() {
		r.sess.Env.SetVal(o.Val, v, typ)
		epoch = r.sess.Env.Epoch()
	})
	r.in("server.plan_cache", func() {
		for k := range r.plans {
			if !strings.HasSuffix(k, "@e"+strconv.FormatUint(epoch, 10)) {
				delete(r.plans, k)
			}
		}
	})
	r.in("server.encode", func() {
		_, err = json.Marshal(map[string]any{"name": o.Val, "type": typ.String(), "epoch": epoch})
	})
	if err == nil && digest(typ.String()) != o.Want {
		err = fmt.Errorf("/val/%s typed %s, not the expected type", o.Val, typ)
	}
	if err != nil {
		r.fail(err)
	}
}

// query mirrors handleQuery and runQuery. The admission slot is free by
// construction in a serial replay, so admission is not called.
func (r *replayer) query(o *op) {
	var req server.QueryRequest
	var err error
	r.in("server.decode", func() {
		err = json.NewDecoder(bytes.NewReader(o.body)).Decode(&req)
		if err == nil && strings.TrimSpace(req.Query) == "" {
			err = errors.New("empty query")
		}
	})
	if err != nil {
		r.fail(err)
		return
	}
	var id string
	var tc trace.TraceContext
	r.in("server.admit", func() {
		r.qid++
		id = fmt.Sprintf("q%06d", r.qid)
		tc = trace.NewTraceContext()
	})
	var norm string
	r.in("server.normalize", func() { norm = server.NormalizeQuery(req.Query) })
	var rec *trace.Recorder
	r.in("trace.report", func() {
		rec = trace.NewRecorder(trace.MultiSink{r.sess.Fleet, r.sess.Flight})
		rec.Begin(norm)
		rec.RecordID(id)
		rec.RecordTraceID(tc.TraceID)
		rec.RecordQueueWait(0)
	})

	var key string
	var p *lplan
	r.in("server.plan_cache", func() {
		key = norm + "@e" + strconv.FormatUint(r.sess.Env.Epoch(), 10)
		p = r.plans[key]
	})
	hit := p != nil
	if !hit {
		p, err = r.prepare(norm, rec)
		if err != nil {
			r.in("trace.report", func() { rec.End(err) })
			r.fail(err)
			return
		}
		r.in("server.plan_cache", func() { r.cachePut(key, p) })
	}
	r.in("trace.report", func() { rec.RecordCached(hit) })

	args, err := r.bind(p, req.Args)
	if err != nil {
		r.in("trace.report", func() { rec.End(err) })
		r.fail(err)
		return
	}

	var v object.Value
	var counters eval.Counters
	var ctx context.Context
	var tiles *tile.Collector
	var phase trace.Span
	// net/http hands the handler a cancellable request context; the
	// engine polls it, so the replay executes under one too.
	reqCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.in("trace.report", func() {
		ctx, tiles = tile.WithCollector(reqCtx)
		phase = rec.StartPhase(trace.PhaseEval)
	})
	a0 := heapAllocs()
	r.in("compile.exec", func() {
		v, counters, err = p.prog.Execute(ctx, compile.ExecOpts{Args: args})
	})
	r.execAlloc += heapAllocs() - a0
	r.steps += counters.Steps
	r.cells += counters.Cells
	var rep *trace.QueryReport
	r.in("trace.report", func() {
		phase.End()
		rec.RecordEngine("compiled")
		rec.RecordMode("")
		rec.RecordShards(nil)
		rec.RecordEval(trace.EvalCounters{Steps: counters.Steps, Cells: counters.Cells,
			Tabulations: counters.Tabs, SetOps: counters.SetOps, Iterations: counters.Iters})
		io := repl.TileIOCounters(tiles.Snapshot())
		fio := r.sess.IOFileDelta()
		r.slabReads += fio.SlabReads
		r.readBytes += fio.BytesRead
		io.Add(fio)
		rec.RecordIO(io)
		rec.JoinExplain(p.prog.Estimates(), 0)
		rep = rec.End(err)
		r.stats.Observe(key, rep)
	})
	if err != nil {
		r.fail(err)
		return
	}
	var text string
	r.in("exchange.render", func() { text, err = exchange.WriteString(v) })
	if err != nil {
		r.fail(err)
		return
	}
	r.renderBytes += int64(len(text))
	r.in("server.encode", func() {
		_, err = json.Marshal(&server.QueryResponse{ID: id, TraceID: tc.TraceID, Cached: hit, Type: p.typ.String(),
			Value: text, WallNS: int64(rep.Wall), Phases: rep.Phases, Eval: rep.Eval})
	})
	if err == nil && digest(text) != o.Want {
		err = fmt.Errorf("query %q args %v: wrong answer %.80q", o.Query, o.Args, text)
	}
	if err != nil {
		r.fail(err)
	}
}

// prepare mirrors server.prepare: each phase runs under its recorder phase,
// as the server times it.
func (r *replayer) prepare(norm string, rec *trace.Recorder) (*lplan, error) {
	env := r.sess.Env
	phase := func(name, layer string, f func()) {
		var sp trace.Span
		r.in("trace.report", func() { sp = rec.StartPhase(name) })
		r.in(layer, f)
		r.in("trace.report", func() { sp.End() })
	}
	r.prepares++
	var se parser.Expr
	var core ast.Expr
	var err error
	phase(trace.PhaseParse, "parser.parse", func() { se, err = parser.ParseExpr(norm) })
	if err != nil {
		return nil, err
	}
	phase(trace.PhaseDesugar, "desugar.desugar", func() { core, err = desugar.Expr(se) })
	if err != nil {
		return nil, err
	}
	phase(trace.PhaseMacro, "env.macro", func() { core = env.ExpandMacros(core) })
	var typ *types.Type
	var params map[string]*types.Type
	phase(trace.PhaseTypecheck, "typecheck.infer", func() { typ, params, err = typecheck.InferParams(core, env.GlobalTypes()) })
	if err != nil {
		return nil, err
	}
	var optimized ast.Expr
	phase(trace.PhaseOptimize, "opt.optimize", func() {
		before := ast.CountNodes(core)
		optimized = env.Optimizer.OptimizeTraced(core, func(phase, rule string, nb, na int) {
			rec.RuleFired(phase, rule, nb, na)
			r.firings++
		})
		after := ast.CountNodes(optimized)
		rec.RecordNodes(before, after)
		r.nodesBefore += before
		r.nodesAfter += after
	})
	var prog *compile.Program
	phase(trace.PhaseCompile, "compile.program", func() {
		prog = compile.NewProgram(optimized, env.Globals(), eval.Limits{})
	})
	return &lplan{prog: prog, typ: typ, params: params}, nil
}

// cachePut stores a plan, evicting the oldest once the server's default
// capacity is reached. Oldest-first matches the server's LRU for these
// workloads: their few repeated plans never approach the capacity.
func (r *replayer) cachePut(key string, p *lplan) {
	for len(r.plans) >= server.DefaultCacheSize && len(r.order) > 0 {
		delete(r.plans, r.order[0])
		r.order = r.order[1:]
	}
	r.plans[key] = p
	r.order = append(r.order, key)
}

// bind mirrors the server's strict argument binding: every placeholder
// bound, no extra arguments, each value decoded and unified with the
// placeholder's inferred type.
func (r *replayer) bind(p *lplan, args map[string]string) (map[string]object.Value, error) {
	if len(p.params) == 0 && len(args) == 0 {
		return nil, nil
	}
	var names []string
	var err error
	r.in("server.bind", func() {
		names = make([]string, 0, len(p.params))
		for name := range p.params {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if _, ok := args[name]; !ok {
				err = fmt.Errorf("missing argument for parameter $%s", name)
			}
		}
		if len(args) != len(names) && err == nil {
			err = errors.New("argument names no parameter")
		}
	})
	if err != nil {
		return nil, err
	}
	sub := types.Subst{}
	out := make(map[string]object.Value, len(names))
	for _, name := range names {
		var v object.Value
		r.in("exchange.decode", func() {
			v, err = exchange.ReadLimits(strings.NewReader(args[name]), exchange.Limits{MaxBytes: 1 << 20, MaxDepth: 10_000})
		})
		if err != nil {
			return nil, err
		}
		var at *types.Type
		r.in("typecheck.infer", func() { at, err = typecheck.TypeOf(v) })
		if err != nil {
			return nil, err
		}
		r.in("server.bind", func() { err = sub.Unify(sub.Apply(p.params[name]), at) })
		if err != nil {
			return nil, err
		}
		out[name] = v
	}
	return out, nil
}

// heapAllocs reads the cumulative heap allocation counter without stopping
// the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
