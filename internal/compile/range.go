package compile

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// Range-restricted execution: the prepared-plan half of distributed
// scatter-gather (internal/cluster). A program whose top-level expression is
// a tabulation [[ e | i1 < b1, ..., ik < bk ]] can be executed in two
// separable pieces that together charge exactly the counters of a
// single-node run:
//
//   - PlanShards evaluates the tabulation prologue — the node's own step,
//     the bounds, and the whole-array cell charge — yielding the shape a
//     coordinator partitions into contiguous row-major shards.
//   - ExecuteRange evaluates the element loop over one such shard
//     [start, end), charging only the head evaluations of that range.
//
// Both run the pieces of the one tabulation kernel (tabulate.go) that the
// program's own Execute runs, compiled once, at the same recursion depths,
// so a distributed run trips exactly the budgets a local one does.
//
// The decomposition is exactly-once by construction: elements are pure in
// the index valuation, ranges are disjoint, and a failed or abandoned
// attempt contributes nothing (its counters are discarded; re-executing a
// range recomputes identical values and identical counts). Summing the
// planning counters with each range's counters therefore reproduces a
// serial run's totals no matter how ranges were retried, hedged or moved
// between workers.

// letBinding is one peeled top-level let: the desugared App{Lam, bound}
// shape the optimizer's let-hoisting wraps around a tabulation.
type letBinding struct {
	name  string
	bound ast.Expr
}

// letCode is a compiled let binding: evaluate code, store the value at slot.
type letCode struct {
	slot int
	code compiledExpr
}

// shardCode is the range-partitionable view of a Program: the compiled let
// chain and the tabulation beneath it, sharing the program's one frame
// layout.
type shardCode struct {
	lets []letCode
	tab  *tabCode
}

// compileShard compiles a let chain over a tabulation in the program's own
// resolve pass. Let bindings compile in order, each earlier binding in
// scope for the later ones and for the tabulation itself.
func (c *compiler) compileShard(lets []letBinding, tab *ast.ArrayTab) *shardCode {
	sc := &shardCode{}
	for _, l := range lets {
		code := c.compile(l.bound)
		sc.lets = append(sc.lets, letCode{slot: c.bind(l.name), code: code})
	}
	sc.tab = c.compileTab(tab)
	c.unbind(len(lets))
	return sc
}

// Rangeable reports whether the program's top-level expression is a
// tabulation (possibly under top-level let bindings), i.e. whether
// PlanShards/ExecuteRange are available.
func (p *Program) Rangeable() bool { return p.shard != nil }

// run is the whole program: the let chain, then the tabulation over its
// whole element space.
func (sc *shardCode) run(fr *frame) (object.Value, error) {
	if bot, err := sc.enter(fr); err != nil || bot.IsBottom() {
		return bot, err
	}
	return sc.tab.eval(fr)
}

// enter establishes the let bindings in fr and enters the tabulation node,
// charging exactly what compiled code for the App{Lam, bound} chain
// charges: per binding, the App node's depth level and step, the Lam's
// depth level and closure-creation step, then the bound expression one
// level below the App. A ⊥ binding is returned as the chain's value (App
// short-circuits on a ⊥ argument without entering the body). The levels
// entered stay entered until machine.reset: the tabulation's bounds and
// head then run at the depths a compiled run of the chain gives them.
func (sc *shardCode) enter(fr *frame) (object.Value, error) {
	m := fr.m
	for _, l := range sc.lets {
		if err := m.enter(); err != nil { // the App node
			return object.Value{}, err
		}
		if err := m.step(); err != nil {
			return object.Value{}, err
		}
		if err := m.enter(); err != nil { // the Lam node
			return object.Value{}, err
		}
		err := m.step()
		m.leave()
		if err != nil {
			return object.Value{}, err
		}
		v, err := l.code(fr)
		if err != nil {
			return object.Value{}, err
		}
		if v.IsBottom() {
			return v, nil
		}
		fr.slots[l.slot] = v
	}
	return object.Value{}, m.enter() // the tabulation node
}

// ShardPlan is the result of evaluating a tabulation's prologue: the shape
// to partition, and the work that evaluation charged.
type ShardPlan struct {
	Shape []int
	// Size is product(Shape): the row-major element space to partition.
	Size int64
	// Bottom is set (IsBottom) when a bound evaluated to ⊥; the query's
	// result is that ⊥ and there is nothing to shard.
	Bottom object.Value
	// Counters is the prologue's work: the tabulation node's step, the
	// bound evaluations, and the whole-array cell charge. Adding every
	// range's counters to it reproduces a single-node run's totals.
	Counters eval.Counters
}

// PlanShards evaluates the let chain and the tabulation prologue under ctx
// and opts, through the same code as Execute, so a distributed run's merged
// counters and failure behaviour match a local one's.
func (p *Program) PlanShards(ctx context.Context, opts ExecOpts) (*ShardPlan, error) {
	if p.shard == nil {
		return nil, errNotRangeable
	}
	m := p.newMachine(ctx, opts)
	defer m.reset()
	fr := &frame{m: m, slots: make([]object.Value, p.maxSlots)}
	var shape []int
	var size int64
	bot, err := p.shard.enter(fr)
	if err == nil && !bot.IsBottom() {
		shape, size, bot, err = p.shard.tab.prologue(fr)
	}
	if err != nil {
		return nil, err
	}
	return &ShardPlan{Shape: shape, Size: size, Bottom: bot, Counters: m.counters()}, nil
}

// RangeResult is one contiguous row-major slice of a tabulation's elements.
type RangeResult struct {
	// Values holds the end-start elements of the range, in row-major order.
	Values []object.Value
	// BottomOff is the absolute offset of the first ⊥ element within the
	// range (-1 when none); Bottom is that element. A ⊥ poisons the whole
	// tabulation, but the scan still completes the range — exactly as a
	// whole-array scan does — so counters stay execution-order independent.
	BottomOff int64
	Bottom    object.Value
	// Counters is the work the range's head evaluations charged.
	Counters eval.Counters
}

// RangeError wraps a deterministic evaluation error with the row-major
// offset at which it occurred, so a scatter-gather merge can select the
// error a serial scan would have hit first (the lowest offset: bottoms
// never stop the scan, so the serial scan always reaches the lowest-offset
// erroring element).
type RangeError struct {
	Off int64
	Err error
}

func (e *RangeError) Error() string { return e.Err.Error() }
func (e *RangeError) Unwrap() error { return e.Err }

// ExecuteRange evaluates the tabulation head over offsets [start, end) of
// the given shape, charging exactly the counters a serial scan of those
// offsets charges. The shape is a parameter — not re-derived from the
// bounds — so a worker executing a shard does not repeat (or re-count) the
// coordinator's prologue. The range runs through the element loop of the
// whole-array kernel, so ranges of at least the parallel threshold fan out
// across local workers with the same exact totals and first-⊥ and
// lowest-offset-error determinism.
//
// When the program's shardable core sits under let bindings, each range
// execution re-establishes them (elements are pure, so the values are
// identical to the coordinator's) but reports head-only counters: the let
// work was already counted once, in PlanShards, so merged totals still
// reproduce a single-node run's exactly. The re-evaluation does consume
// this execution's budgets — budgets apply per shard by design.
func (p *Program) ExecuteRange(ctx context.Context, opts ExecOpts, shape []int, start, end int64) (*RangeResult, error) {
	if p.shard == nil {
		return nil, errNotRangeable
	}
	size := int64(1)
	for _, n := range shape {
		if n < 0 {
			return nil, fmt.Errorf("compile: negative dimension in shape %v", shape)
		}
		if n > 0 && size > math.MaxInt64/int64(n) {
			return nil, fmt.Errorf("compile: shape %v overflows", shape)
		}
		size *= int64(n)
	}
	if start < 0 || end < start || end > size {
		return nil, fmt.Errorf("compile: range [%d, %d) outside element space of size %d", start, end, size)
	}
	m := p.newMachine(ctx, opts)
	defer m.reset()
	fr := &frame{m: m, slots: make([]object.Value, p.maxSlots)}
	bot, err := p.shard.enter(fr)
	if err != nil {
		return nil, err
	}
	if bot.IsBottom() {
		// Unreachable under a correct coordinator — PlanShards reports a ⊥
		// binding before any shard is dispatched — but report the poison
		// coherently rather than scanning a meaningless range.
		data := make([]object.Value, end-start)
		for i := range data {
			data[i] = bot
		}
		return &RangeResult{Values: data, Bottom: bot, BottomOff: start}, nil
	}
	base := m.counters()
	data, r := p.shard.tab.elements(fr, shape, start, end)
	if r.err != nil {
		return nil, &RangeError{Off: r.errOff, Err: r.err}
	}
	res := &RangeResult{Values: data, BottomOff: r.bottomOff, Counters: subCounters(m.counters(), base)}
	if r.bottomOff >= 0 {
		res.Bottom = data[r.bottomOff-start]
	}
	return res, nil
}

// errNotRangeable rejects PlanShards/ExecuteRange on a program whose
// top-level expression is not a tabulation.
var errNotRangeable = errors.New("compile: program is not range-partitionable")

// subCounters subtracts b fieldwise from a; used to report head-only work
// for ranges whose let prologue was already counted by PlanShards.
func subCounters(a, b eval.Counters) eval.Counters {
	return eval.Counters{
		Steps:  a.Steps - b.Steps,
		Cells:  a.Cells - b.Cells,
		Tabs:   a.Tabs - b.Tabs,
		SetOps: a.SetOps - b.SetOps,
		Iters:  a.Iters - b.Iters,
	}
}
