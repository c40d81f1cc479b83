package compile

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/aqldb/aql/internal/ast"
	"github.com/aqldb/aql/internal/eval"
	"github.com/aqldb/aql/internal/object"
)

// rangeTab builds [[ (i*j + i + 7) % 93 | i < r, j < c ]]: a 2-D
// tabulation, so range execution must reconstruct multi-indices from flat
// row-major offsets at arbitrary shard boundaries.
func rangeTab(r, c int64) *ast.ArrayTab {
	return &ast.ArrayTab{
		Head: &ast.Arith{
			Op: ast.OpMod,
			L: &ast.Arith{Op: ast.OpAdd,
				L: &ast.Arith{Op: ast.OpMul, L: v("i"), R: v("j")},
				R: &ast.Arith{Op: ast.OpAdd, L: v("i"), R: nat(7)}},
			R: nat(93),
		},
		Idx:    []string{"i", "j"},
		Bounds: []ast.Expr{nat(r), nat(c)},
	}
}

// splitRange cuts [0, size) into n contiguous pieces (the first size%n get
// the extra element), mirroring how a coordinator shards an element space.
func splitRange(size int64, n int) [][2]int64 {
	var out [][2]int64
	base, rem := size/int64(n), size%int64(n)
	off := int64(0)
	for i := 0; i < n; i++ {
		l := base
		if int64(i) < rem {
			l++
		}
		if l == 0 {
			continue
		}
		out = append(out, [2]int64{off, off + l})
		off += l
	}
	return out
}

// TestRangeDifferential: PlanShards + ExecuteRange over any contiguous
// partition reassembles to byte-identical values and exactly the counters
// of a whole-program Execute — the contract distributed scatter-gather
// (internal/cluster) is built on. Exercised over several shard counts,
// including degenerate 1-shard and per-row shards, and over both the serial
// and parallel range kernels.
func TestRangeDifferential(t *testing.T) {
	const r, c = 37, 53
	ctx := context.Background()
	p := NewProgram(rangeTab(r, c), nil, eval.Limits{})
	if !p.Rangeable() {
		t.Fatal("tabulation program not Rangeable")
	}

	wantVal, wantCounters, err := p.Execute(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("reference Execute: %v", err)
	}
	if wantVal.Kind != object.KArray {
		t.Fatalf("reference value kind = %v, want array", wantVal.Kind)
	}

	for _, tc := range []struct {
		name     string
		shards   int
		execOpts ExecOpts
	}{
		{"one-shard", 1, ExecOpts{Threshold: -1}},
		{"three-shards", 3, ExecOpts{Threshold: -1}},
		{"seven-shards", 7, ExecOpts{Threshold: -1}},
		{"per-row-shards", r, ExecOpts{Threshold: -1}},
		{"parallel-kernel", 3, ExecOpts{Threshold: 1, Workers: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := p.PlanShards(ctx, ExecOpts{})
			if err != nil {
				t.Fatalf("PlanShards: %v", err)
			}
			if plan.Size != r*c {
				t.Fatalf("plan size = %d, want %d", plan.Size, r*c)
			}
			merged := plan.Counters
			data := make([]object.Value, plan.Size)
			for _, rg := range splitRange(plan.Size, tc.shards) {
				res, err := p.ExecuteRange(ctx, tc.execOpts, plan.Shape, rg[0], rg[1])
				if err != nil {
					t.Fatalf("ExecuteRange [%d,%d): %v", rg[0], rg[1], err)
				}
				if res.BottomOff >= 0 {
					t.Fatalf("unexpected ⊥ at offset %d", res.BottomOff)
				}
				copy(data[rg[0]:rg[1]], res.Values)
				merged.Steps += res.Counters.Steps
				merged.Cells += res.Counters.Cells
				merged.Tabs += res.Counters.Tabs
				merged.SetOps += res.Counters.SetOps
				merged.Iters += res.Counters.Iters
			}
			got := object.Value{Kind: object.KArray, Shape: plan.Shape, Data: data}
			if !object.Equal(got, wantVal) {
				t.Errorf("reassembled value differs from Execute's")
			}
			if merged != wantCounters {
				t.Errorf("merged counters = %+v, want %+v", merged, wantCounters)
			}
		})
	}
}

// TestRangeFirstBottom: per-offset ⊥ payloads (out-of-bounds subscripts)
// surface in each shard as (BottomOff, Bottom); the minimum offset across
// shards must be the ⊥ a serial whole-program run returns, with an
// identical diagnostic.
func TestRangeFirstBottom(t *testing.T) {
	const valid, total = 40, 100
	data := make([]object.Value, valid)
	for i := range data {
		data[i] = object.Nat(int64(i))
	}
	globals := map[string]object.Value{"A": object.Vector(data...)}
	tab := &ast.ArrayTab{
		Head:   &ast.Subscript{Arr: v("A"), Index: v("i")},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(total)},
	}
	ctx := context.Background()
	p := NewProgram(tab, globals, eval.Limits{})

	want, wantCounters, err := p.Execute(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("reference Execute: %v", err)
	}
	if !want.IsBottom() {
		t.Fatalf("reference result = %v, want ⊥", want.Kind)
	}

	plan, err := p.PlanShards(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	merged := plan.Counters
	bestOff := int64(-1)
	var best object.Value
	// Scan shards out of order to prove merge order doesn't matter.
	ranges := splitRange(plan.Size, 4)
	for i := len(ranges) - 1; i >= 0; i-- {
		rg := ranges[i]
		res, err := p.ExecuteRange(ctx, ExecOpts{}, plan.Shape, rg[0], rg[1])
		if err != nil {
			t.Fatalf("ExecuteRange [%d,%d): %v", rg[0], rg[1], err)
		}
		if res.BottomOff >= 0 && (bestOff < 0 || res.BottomOff < bestOff) {
			bestOff, best = res.BottomOff, res.Bottom
		}
		merged.Steps += res.Counters.Steps
		merged.Cells += res.Counters.Cells
		merged.Tabs += res.Counters.Tabs
		merged.SetOps += res.Counters.SetOps
		merged.Iters += res.Counters.Iters
	}
	if bestOff != valid {
		t.Fatalf("first ⊥ offset = %d, want %d", bestOff, valid)
	}
	if best.String() != want.String() {
		t.Errorf("merged ⊥ = %s, want %s", best, want)
	}
	if merged != wantCounters {
		t.Errorf("merged counters = %+v, want %+v", merged, wantCounters)
	}
}

// TestRangeErrorOffset: a deterministic head error (arithmetic on a
// non-numeric element) is reported as a RangeError carrying the row-major
// offset it occurred at, so a merge can pick the lowest offset — the error
// a serial scan hits first.
func TestRangeErrorOffset(t *testing.T) {
	const good, total = 25, 60
	data := make([]object.Value, total)
	for i := range data {
		if i < good {
			data[i] = object.Nat(int64(i))
		} else {
			data[i] = object.Bool(true)
		}
	}
	globals := map[string]object.Value{"A": object.Vector(data...)}
	tab := &ast.ArrayTab{
		Head: &ast.Arith{Op: ast.OpAdd,
			L: &ast.Subscript{Arr: v("A"), Index: v("i")}, R: nat(0)},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(total)},
	}
	ctx := context.Background()
	p := NewProgram(tab, globals, eval.Limits{})

	_, _, wantErr := p.Execute(ctx, ExecOpts{})
	if wantErr == nil {
		t.Fatal("reference Execute succeeded, want error")
	}

	plan, err := p.PlanShards(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	// A shard that contains the erroring offset fails with that offset...
	_, err = p.ExecuteRange(ctx, ExecOpts{}, plan.Shape, 0, plan.Size)
	var re *RangeError
	if !errors.As(err, &re) {
		t.Fatalf("ExecuteRange err = %v, want *RangeError", err)
	}
	if re.Off != good {
		t.Errorf("error offset = %d, want %d", re.Off, good)
	}
	if re.Error() != wantErr.Error() {
		t.Errorf("error = %q, want %q", re.Error(), wantErr.Error())
	}
	// ...and one that excludes it succeeds.
	if _, err := p.ExecuteRange(ctx, ExecOpts{}, plan.Shape, 0, good); err != nil {
		t.Errorf("ExecuteRange over clean prefix: %v", err)
	}
}

// TestPlanShardsBottomBound: a bound that evaluates to ⊥ makes the whole
// tabulation that ⊥; PlanShards reports it (with counters) instead of a
// shape, and a whole-program Execute agrees.
func TestPlanShardsBottomBound(t *testing.T) {
	tab := &ast.ArrayTab{
		Head:   v("i"),
		Idx:    []string{"i"},
		Bounds: []ast.Expr{&ast.Arith{Op: ast.OpDiv, L: nat(1), R: nat(0)}},
	}
	ctx := context.Background()
	p := NewProgram(tab, nil, eval.Limits{})

	want, wantCounters, err := p.Execute(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("reference Execute: %v", err)
	}
	if !want.IsBottom() {
		t.Fatalf("reference result kind = %v, want ⊥", want.Kind)
	}
	plan, err := p.PlanShards(ctx, ExecOpts{})
	if err != nil {
		t.Fatalf("PlanShards: %v", err)
	}
	if !plan.Bottom.IsBottom() {
		t.Fatal("plan.Bottom not set for ⊥ bound")
	}
	if plan.Bottom.String() != want.String() {
		t.Errorf("plan ⊥ = %s, want %s", plan.Bottom, want)
	}
	if plan.Counters != wantCounters {
		t.Errorf("plan counters = %+v, want %+v", plan.Counters, wantCounters)
	}
}

// TestExecuteRangeValidation: malformed ranges and non-rangeable programs
// are rejected up front.
func TestExecuteRangeValidation(t *testing.T) {
	ctx := context.Background()
	p := NewProgram(rangeTab(4, 4), nil, eval.Limits{})
	if _, err := p.ExecuteRange(ctx, ExecOpts{}, []int{4, 4}, 8, 20); err == nil {
		t.Error("range past element space accepted")
	}
	if _, err := p.ExecuteRange(ctx, ExecOpts{}, []int{4, 4}, -1, 2); err == nil {
		t.Error("negative start accepted")
	}
	q := NewProgram(nat(1), nil, eval.Limits{})
	if q.Rangeable() {
		t.Error("literal program claims Rangeable")
	}
	if _, err := q.PlanShards(ctx, ExecOpts{}); err == nil {
		t.Error("PlanShards on non-rangeable program succeeded")
	}
	if _, err := q.ExecuteRange(ctx, ExecOpts{}, []int{1}, 0, 1); err == nil {
		t.Error("ExecuteRange on non-rangeable program succeeded")
	}
}

// TestRangeDepthParity: under a MaxDepth limit, PlanShards + ExecuteRange
// over the whole element space trip exactly when Execute does, with the
// same typed error — the lets, the prologue and the head run at the depths
// a local execution gives them, so a cluster cannot answer a query that
// fails locally (or the reverse). Execute itself must agree with the
// interpreter. Covers a bare tabulation and one under a peeled let chain.
func TestRangeDepthParity(t *testing.T) {
	letTab := &ast.ArrayTab{
		Head: &ast.Arith{Op: ast.OpMod,
			L: &ast.Arith{Op: ast.OpAdd,
				L: &ast.Arith{Op: ast.OpMul, L: v("i"), R: v("c")},
				R: v("d")},
			R: nat(101)},
		Idx:    []string{"i"},
		Bounds: []ast.Expr{nat(30)},
	}
	plans := map[string]ast.Expr{
		"rangeTab": rangeTab(3, 4),
		"lets": letsOver(letTab,
			[2]any{"c", ast.Expr(&ast.Arith{Op: ast.OpMul, L: nat(6), R: nat(7)})},
			[2]any{"d", ast.Expr(&ast.Arith{Op: ast.OpAdd, L: v("c"), R: nat(3)})},
		),
	}
	ctx := context.Background()
	for name, expr := range plans {
		for depth := 1; depth <= 8; depth++ {
			t.Run(fmt.Sprintf("%s/depth=%d", name, depth), func(t *testing.T) {
				lim := eval.Limits{MaxDepth: depth}
				p := NewProgram(expr, nil, lim)
				want, _, wantErr := p.Execute(ctx, ExecOpts{})
				// Execute runs the shard view's pieces; hold it to the
				// interpreter under the same limit.
				in := eval.New(nil)
				in.Limits = lim
				if iv, ierr := in.EvalExpr(ctx, expr); fmt.Sprint(ierr) != fmt.Sprint(wantErr) || iv.String() != want.String() {
					t.Fatalf("Execute = (%s, %v), interpreter = (%s, %v)", want, wantErr, iv, ierr)
				}

				var got object.Value
				plan, err := p.PlanShards(ctx, ExecOpts{})
				if err == nil && !plan.Bottom.IsBottom() {
					var res *RangeResult
					res, err = p.ExecuteRange(ctx, ExecOpts{}, plan.Shape, 0, plan.Size)
					if err == nil {
						got = object.Value{Kind: object.KArray, Shape: plan.Shape, Data: res.Values}
					}
				}

				if (wantErr == nil) != (err == nil) {
					t.Fatalf("Execute err = %v, shard path err = %v", wantErr, err)
				}
				if wantErr == nil {
					if !object.Equal(got, want) {
						t.Errorf("shard path value differs from Execute's")
					}
					return
				}
				var wre, gre *eval.ResourceError
				if !errors.As(wantErr, &wre) || !errors.As(err, &gre) {
					t.Fatalf("errors not ResourceErrors: Execute %v, shard path %v", wantErr, err)
				}
				if wre.Kind != gre.Kind || wre.Limit != gre.Limit {
					t.Errorf("shard path tripped %s/%d, Execute %s/%d", gre.Kind, gre.Limit, wre.Kind, wre.Limit)
				}
			})
		}
	}
}
