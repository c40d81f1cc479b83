package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/aqldb/aql/internal/exchange"
	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/typecheck"
)

// generate builds and encodes a workload with its files under a fresh
// directory, returning the workload and the directory.
func generate(t *testing.T, sp spec, seed int64, nops int) (*workload, string) {
	t.Helper()
	dir := t.TempDir()
	w, err := sp.gen(seed, nops, dir)
	if err != nil {
		t.Fatalf("%s: generate: %v", sp.name, err)
	}
	if err := w.encode(); err != nil {
		t.Fatalf("%s: encode: %v", sp.name, err)
	}
	return w, dir
}

// fingerprint is everything the program is sent: bodies, expected
// answers, and the bytes of any input file.
func fingerprint(t *testing.T, w *workload) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, seq := range [][]op{w.Setup, w.Ops} {
		for _, o := range seq {
			b.Write(o.body)
			fmt.Fprintf(&b, "\x00%s\x00%d\x00", o.Val, o.Want)
		}
	}
	if w.NCPath != "" {
		data, err := os.ReadFile(w.NCPath)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
	}
	return b.Bytes()
}

// The same seed gives byte-identical requests, expected answers and input
// files; another seed gives other ones.
func TestGeneratorDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, _ := generate(t, sp, 7, 300)
		b, _ := generate(t, sp, 7, 300)
		c, _ := generate(t, sp, 8, 300)
		if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
			t.Errorf("%s: seed 7 generated two different sequences", sp.name)
		}
		if bytes.Equal(fingerprint(t, a), fingerprint(t, c)) {
			t.Errorf("%s: seeds 7 and 8 generated the same sequence", sp.name)
		}
		if len(a.Ops) != 300 {
			t.Errorf("%s: %d ops, want 300", sp.name, len(a.Ops))
		}
	}
}

// A sample of the closed-form expected answers must be what the reference
// interpreter computes. Rebinds are applied in sequence order, so every
// sampled read sees the environment its answer was computed against.
func TestExpectedAnswersOnInterp(t *testing.T) {
	samples := map[string]int{"kernel": 4, "adhoc": 48, "ooc": 12, "mixed": 24}
	for _, sp := range specs {
		w, _ := generate(t, sp, 11, 240)
		sess, err := repl.New()
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SetEngine(repl.EngineInterp); err != nil {
			t.Fatal(err)
		}
		if w.NCPath != "" {
			if _, err := sess.Exec(w.readval()); err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
		}
		ops := append(append([]op(nil), w.Setup...), w.Ops...)
		stride := max(len(ops)/samples[sp.name], 1)
		checked := 0
		for i, o := range ops {
			if o.write() {
				v, err := exchange.ReadString(o.Text)
				if err != nil {
					t.Fatalf("%s: op %d: %v", sp.name, i, err)
				}
				typ, err := typecheck.TypeOf(v)
				if err != nil {
					t.Fatalf("%s: op %d: %v", sp.name, i, err)
				}
				if digest(typ.String()) != o.Want {
					t.Errorf("%s: op %d: %s typed %s, not the expected type", sp.name, i, o.Val, typ)
				}
				sess.Env.SetVal(o.Val, v, typ)
				continue
			}
			if i%stride != 0 {
				continue
			}
			p, err := sess.Prepare(o.Query)
			if err != nil {
				t.Fatalf("%s: op %d: prepare %q: %v", sp.name, i, o.Query, err)
			}
			args := map[string]object.Value{}
			for name, text := range o.Args {
				if args[name], err = exchange.ReadString(text); err != nil {
					t.Fatal(err)
				}
			}
			v, err := p.Exec(context.Background(), args)
			if err != nil {
				t.Fatalf("%s: op %d: %q: %v", sp.name, i, o.Query, err)
			}
			got, err := exchange.WriteString(v)
			if err != nil {
				t.Fatal(err)
			}
			if digest(got) != o.Want {
				t.Errorf("%s: op %d: %q args %v: interp answers %.200s, not the expected answer", sp.name, i, o.Query, o.Args, got)
			}
			checked++
		}
		sess.Close()
		if checked < samples[sp.name]/2 {
			t.Errorf("%s: only %d answers checked", sp.name, checked)
		}
	}
}

// Each workload still exercises the layer it exists for, and the traced
// run's layer self times plus the server overhead account for the HTTP
// wall within the stated residual.
func TestGuardsAndLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, sp := range specs {
		w, _ := generate(t, sp, 5, 400)
		in, err := setUp(w, clients)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		run := timed(in, w, clients)
		in.close()
		if run.res.failed > 0 {
			t.Errorf("%s: %d wrong answers, first: %s", sp.name, run.res.failed, run.res.firstErr)
		}
		for _, g := range run.guards {
			if !g.ok {
				t.Errorf("%s: guard %s failed at %.4g", sp.name, g.name, g.value)
			}
		}
		ops := append(append([]op(nil), w.Setup...), w.Ops[:tracedSlice(sp, len(w.Ops))]...)
		l, err := traceLayers(w, ops, clients)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if l.failed > 0 {
			t.Errorf("%s: traced replays: %d wrong answers, first: %s", sp.name, l.failed, l.firstErr)
		}
		for _, g := range tracedGuards(w, l) {
			if !g.ok {
				t.Errorf("%s: guard %s failed at %.4g (http %.1f us/req, layers %.1f, server overhead %.1f)",
					sp.name, g.name, g.value, l.httpUS, l.layersUS, l.overUS)
			}
		}
		for _, d := range perLayer {
			if _, ok := l.metrics[d.name]; !ok && d.name != "server.plan_hit_ratio" {
				t.Errorf("%s: traced run has no %s", sp.name, d.name)
			}
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program
// prints, with the same units.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(specs))
	}
	for i := range min(len(bf.Workloads), len(specs)) {
		if bf.Workloads[i].Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, specs[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		file []struct{ Name, Unit string }
		prog []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.file), len(c.prog))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", c.kind, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
