package compile

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// The tabulation kernel. A tabulation [[ e | i1 < b1, ..., ik < bk ]] runs
// in two pieces: the prologue evaluates the bounds into a shape and charges
// the whole array's cells, and the element loop evaluates the head over a
// contiguous row-major range of that shape. The compiled ArrayTab node runs
// both over the whole element space; a Program's PlanShards runs only the
// prologue, and ExecuteRange only the element loop over one shard (see
// range.go). All three share this code, so local and distributed runs agree
// on values, ⊥ and errors, and charge identical counters.

// minChunk is the smallest per-worker range worth a goroutine; tabulations
// spawn at most ceil(size/minChunk) workers even when GOMAXPROCS is larger.
const minChunk = 2048

// tabCode is a compiled tabulation: the bound expressions, the frame slots
// of the index variables, and the head.
type tabCode struct {
	bounds   []compiledExpr
	idxSlots []int
	head     compiledExpr
	// spanID is the tabulation's span id (-1 when unprofiled), resolved at
	// compile time so the fan-out can attach per-worker ranges and busy
	// times to it.
	spanID int
}

// compileTab compiles n's pieces: the bounds in the enclosing scope, the
// head with the index variables bound.
func (c *compiler) compileTab(n *ast.ArrayTab) *tabCode {
	t := &tabCode{
		bounds:   make([]compiledExpr, len(n.Bounds)),
		idxSlots: make([]int, len(n.Idx)),
		spanID:   -1,
	}
	for j, b := range n.Bounds {
		t.bounds[j] = c.compile(b)
	}
	for j, name := range n.Idx {
		t.idxSlots[j] = c.bind(name)
	}
	t.head = c.compile(n.Head)
	c.unbind(len(n.Idx))
	if id, ok := c.prof.ID(n); ok {
		t.spanID = id
	}
	return t
}

// eval is the compiled ArrayTab node: the prologue, then the element loop
// over the whole element space. A ⊥ element poisons the whole tabulation
// but does not stop the scan, exactly as in the interpreter.
func (t *tabCode) eval(fr *frame) (object.Value, error) {
	shape, size, bot, err := t.prologue(fr)
	if err != nil || bot.IsBottom() {
		return bot, err
	}
	data, r := t.elements(fr, shape, 0, size)
	if r.err != nil {
		return object.Value{}, r.err
	}
	if r.bottomOff >= 0 {
		return data[r.bottomOff], nil
	}
	return object.Value{Kind: object.KArray, Shape: shape, Data: data}, nil
}

// prologue runs a tabulation up to its element loop: the node's step, the
// bounds in order (a ⊥ bound is the tabulation's value, returned as the
// third result), size saturation, and the whole-array cell charge. Cells
// are charged before anything is allocated — the fail-fast path for huge
// tabulations under a cell budget. The shape checks mirror
// object.Tabulate's, so diagnostics are identical to the interpreter's.
func (t *tabCode) prologue(fr *frame) ([]int, int64, object.Value, error) {
	m := fr.m
	if err := m.step(); err != nil {
		return nil, 0, object.Value{}, err
	}
	m.tabs.Add(1)
	shape := make([]int, len(t.bounds))
	size := int64(1)
	for j, b := range t.bounds {
		v, err := b(fr)
		if err != nil {
			return nil, 0, object.Value{}, err
		}
		if v.IsBottom() {
			return nil, 0, v, nil
		}
		n, err := v.AsNat()
		if err != nil {
			return nil, 0, object.Value{}, fmt.Errorf("eval: tabulation bound %d: %w", j+1, err)
		}
		shape[j] = int(n)
		if n > 0 && size > math.MaxInt64/n {
			size = math.MaxInt64 // saturate; the charge below will trip
		} else {
			size *= n
		}
	}
	if err := m.chargeCells(size); err != nil {
		return nil, 0, object.Value{}, err
	}
	isize := 1
	for _, n := range shape {
		if n < 0 {
			return nil, 0, object.Value{}, fmt.Errorf("object: negative dimension length %d", n)
		}
		if n > 0 && isize > int(^uint(0)>>1)/n {
			return nil, 0, object.Value{}, fmt.Errorf("object: tabulation shape %v overflows", shape)
		}
		isize *= n
	}
	return shape, size, object.Value{}, nil
}

// scanResult is the outcome of an element loop: the row-major offset of the
// first ⊥ element (-1 when none; the ⊥ itself is stored among the values),
// and the error that stopped the loop with its offset.
type scanResult struct {
	bottomOff int64
	err       error
	errOff    int64
}

// elements runs the element loop over the row-major offsets [start, end) of
// shape, returning the end-start values and the scan's outcome. Ranges of
// at least machine.threshold elements fan out across workers, unless the
// machine is itself a worker (tabulations inside a worker run serially).
func (t *tabCode) elements(fr *frame, shape []int, start, end int64) ([]object.Value, scanResult) {
	data := make([]object.Value, end-start)
	m := fr.m
	if n := end - start; n >= m.threshold && n <= math.MaxInt64/2 && m.workers > 1 && !m.inWorker() {
		return data, t.fanOut(fr, shape, data, start, end)
	}
	return data, t.scan(fr, shape, start, data, nil)
}

// scan is the element loop: it binds the index variables by slot store and
// evaluates the head for each of the len(out) offsets from lo, writing the
// results to out. A ⊥ element is recorded but does not stop the scan; an
// error does. failed, when non-nil, is the fan-out's shared abort flag: the
// scan stops early once it is set, and sets it on a resource error.
func (t *tabCode) scan(fr *frame, shape []int, lo int64, out []object.Value, failed *atomic.Bool) scanResult {
	r := scanResult{bottomOff: -1, errOff: -1}
	idx := unflatten(int(lo), shape)
	slots := fr.slots
	for i := range out {
		off := lo + int64(i)
		if failed != nil && failed.Load() {
			break
		}
		for j, s := range t.idxSlots {
			slots[s] = object.Nat(int64(idx[j]))
		}
		v, err := t.head(fr)
		if err != nil {
			r.err, r.errOff = err, off
			if failed != nil && isResourceErr(err) {
				failed.Store(true)
			}
			break
		}
		if v.IsBottom() && r.bottomOff < 0 {
			r.bottomOff = off
		}
		out[i] = v
		advance(idx, shape)
	}
	return r
}

// fanOut splits [start, end) into contiguous sub-ranges and scans each on
// its own goroutine. Soundness: a tabulation head is a pure function of the
// index valuation (and the enclosing frame, which workers copy), so
// elements can be computed in any order into disjoint regions of data.
//
// Determinism is preserved exactly:
//
//   - Each worker owns a contiguous row-major range, so "first ⊥ in
//     row-major order" — the interpreter's result for a tabulation with an
//     erroneous element — is the lowest-offset bottom across workers.
//   - A non-resource error (unbound variable, kind mismatch) does not stop
//     the other workers: every worker finishes its range or fails at its
//     own lowest offset, and the lowest-offset error wins, matching the
//     interpreter's scan order. Resource errors (budget, cancellation) DO
//     stop everyone early via the failed flag; their payload is
//     timing-dependent anyway, and aborting fast is the point.
//
// Counters are exact: each worker counts on a forked machine and flushes
// into the parent at join, so the post-join totals equal a serial run's.
// Under profiling, each fork carries its own span context merged back the
// same way, and the tabulation's span receives one WorkerSpan per worker
// recording its range, busy time and steps.
func (t *tabCode) fanOut(fr *frame, shape []int, data []object.Value, start, end int64) scanResult {
	m := fr.m
	size := end - start
	nw := int64(m.workers)
	if max := (size + minChunk - 1) / minChunk; nw > max {
		nw = max
	}
	chunk := (size + nw - 1) / nw

	type worker struct {
		m      *machine
		lo, hi int64
		r      scanResult
		busy   time.Duration
	}
	workers := make([]worker, nw)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := range workers {
		wk := &workers[w]
		wk.lo = start + int64(w)*chunk
		wk.hi = min(wk.lo+chunk, end)
		wk.r = scanResult{bottomOff: -1, errOff: -1}
		if wk.lo >= wk.hi {
			continue
		}
		wk.m = m.fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wk.m.flush()
			slots := make([]object.Value, len(fr.slots))
			copy(slots, fr.slots)
			t0 := time.Now()
			wk.r = t.scan(&frame{m: wk.m, slots: slots}, shape, wk.lo, data[wk.lo-start:wk.hi-start], &failed)
			wk.busy = time.Since(t0)
		}()
	}
	wg.Wait()

	if m.prof != nil && t.spanID >= 0 {
		spans := make([]eval.WorkerSpan, 0, nw)
		for w, wk := range workers {
			if wk.m == nil {
				continue
			}
			spans = append(spans, eval.WorkerSpan{
				Worker: w,
				Start:  int(wk.lo),
				End:    int(wk.hi),
				Busy:   wk.busy,
				Steps:  wk.m.steps.Load(),
			})
		}
		m.prof.RecordWorkers(t.spanID, spans)
	}

	// Workers cover disjoint ascending ranges, so the first hit wins.
	for _, wk := range workers {
		if wk.r.err != nil {
			return wk.r
		}
	}
	for _, wk := range workers {
		if wk.r.bottomOff >= 0 {
			return wk.r
		}
	}
	return scanResult{bottomOff: -1, errOff: -1}
}

// isResourceErr reports whether err is a *eval.ResourceError — the class of
// failures where aborting sibling workers early is preferable to finishing
// the scan for a deterministic lowest-offset error.
func isResourceErr(err error) bool {
	_, ok := err.(*eval.ResourceError)
	return ok
}

// unflatten converts a row-major offset into a multi-index for shape.
func unflatten(off int, shape []int) []int {
	idx := make([]int, len(shape))
	for d := len(shape) - 1; d >= 0; d-- {
		if shape[d] > 0 {
			idx[d] = off % shape[d]
			off /= shape[d]
		}
	}
	return idx
}

// advance steps idx to the next row-major position within shape.
func advance(idx, shape []int) {
	for d := len(shape) - 1; d >= 0; d-- {
		idx[d]++
		if idx[d] < shape[d] {
			return
		}
		idx[d] = 0
	}
}
