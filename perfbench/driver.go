package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/aqldb/aql/internal/repl"
	"github.com/aqldb/aql/internal/server"
	"github.com/aqldb/aql/internal/trace"
)

// instance is one served session: aqld's handler (server.New over a
// repl.Session, default server.Config, compiled engine) on a loopback
// listener, and the HTTP client that drives it.
type instance struct {
	sess   *repl.Session
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

// newSession builds the workload's session: the standard environment, the
// workload's tile-cache configuration, and, with readval when bind is set,
// its NetCDF variable.
func newSession(w *workload, bind bool) (*repl.Session, error) {
	sess, err := repl.New()
	if err != nil {
		return nil, err
	}
	if w.TileBudget > 0 {
		sess.SetTileConfig(w.TileCells, w.TileBudget, false)
	}
	if bind && w.NCPath != "" {
		if _, err := sess.Exec(w.readval()); err != nil {
			sess.Close()
			return nil, fmt.Errorf("%s: %w", w.readval(), err)
		}
	}
	return sess, nil
}

// start serves a fresh session for w without sending any request.
func start(w *workload, clients int) (*instance, error) {
	sess, err := newSession(w, true)
	if err != nil {
		return nil, err
	}
	srv := server.New(sess, server.Config{})
	ts := httptest.NewServer(srv)
	tr := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &instance{sess: sess, srv: srv, ts: ts, client: &http.Client{Transport: tr}}, nil
}

func (in *instance) close() {
	in.client.CloseIdleConnections()
	in.ts.Close()
	in.sess.Close()
}

// setUp starts an instance and replays the workload's set-up sequence on
// it: input loads through POST /val, then warm-up requests. Every set-up
// answer is checked; a wrong one fails the run.
func setUp(w *workload, clients int) (*instance, error) {
	in, err := start(w, clients)
	if err != nil {
		return nil, err
	}
	res := in.loop(w.Setup, clients)
	if res.failed > 0 {
		in.close()
		return nil, fmt.Errorf("set-up: %d of %d requests failed, first: %s", res.failed, len(w.Setup), res.firstErr)
	}
	return in, nil
}

// outcome is what one request returned, as far as the benchmark checks it.
type outcome struct {
	err     string // empty when the answer is right
	queueNS int64
	evalNS  int64
	prepNS  int64
	wallNS  int64 // the server's own report wall
}

// send issues one op and returns its latency (request sent to response body
// read) and outcome. The answer is checked after the clock stops.
func (in *instance) send(o *op) (time.Duration, outcome) {
	url := in.ts.URL + "/query"
	if o.write() {
		url = in.ts.URL + "/val/" + o.Val
	}
	t0 := time.Now()
	resp, err := in.client.Post(url, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return time.Since(t0), outcome{err: "transport: " + err.Error()}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, outcome{err: "transport: " + err.Error()}
	}
	if resp.StatusCode != http.StatusOK {
		return d, outcome{err: fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))}
	}
	return d, check(o, body)
}

// queryReply is the part of a POST /query response the benchmark reads.
type queryReply struct {
	Value       string            `json:"value"`
	WallNS      int64             `json:"wall_ns"`
	Phases      []trace.PhaseTime `json:"phases"`
	QueueWaitNS int64             `json:"queue_wait_ns"`
}

// check compares a response's text with the op's expected answer.
func check(o *op, body []byte) outcome {
	if o.write() {
		var r struct {
			Name string `json:"name"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return outcome{err: "decode /val reply: " + err.Error()}
		}
		if r.Name != o.Val || digest(r.Type) != o.Want {
			return outcome{err: fmt.Sprintf("/val/%s replied %s : %s, not the expected type", o.Val, r.Name, r.Type)}
		}
		return outcome{}
	}
	var r queryReply
	if err := json.Unmarshal(body, &r); err != nil {
		return outcome{err: "decode /query reply: " + err.Error()}
	}
	out := outcome{queueNS: r.QueueWaitNS, wallNS: r.WallNS}
	for _, p := range r.Phases {
		if p.Name == trace.PhaseEval {
			out.evalNS += int64(p.Wall)
		} else {
			out.prepNS += int64(p.Wall)
		}
	}
	if digest(r.Value) != o.Want {
		out.err = fmt.Sprintf("query %q args %v: wrong answer %.80q", o.Query, o.Args, r.Value)
	}
	return out
}

// loopResult aggregates one closed-loop replay.
type loopResult struct {
	lat      []time.Duration // per op, in sequence order
	windows  []window        // consecutive windows of equally many completions
	wall     time.Duration
	failed   int
	firstErr string
	queries  int
	writes   int
	queueNS  int64
	evalNS   int64
	prepNS   int64
	wallNS   int64 // Σ server report wall of queries
}

// windowCount is how many windows a loop is cut into; the time metrics
// come from its calm windows (calmWindows).
const windowCount = 40

// window is one stretch of a loop: its completed ops, wall, process CPU
// time and the host's steal ticks.
type window struct {
	ops       int
	wall, cpu time.Duration
	steal     int64
}

// loop replays ops in a closed loop: each of clients goroutines takes the
// next op of the sequence as soon as its previous request has completed.
// A rebind waits until every earlier read has finished and holds back
// every later one until it has, so each read sees exactly the version of
// the environment its expected answer was computed against.
func (in *instance) loop(ops []op, clients int) loopResult {
	res := loopResult{lat: make([]time.Duration, len(ops))}
	outs := make([]outcome, len(ops))
	per := max(len(ops)/windowCount, 1) // completions per window
	marks := make([]window, len(ops)/per+1)
	var (
		next      int
		mu        sync.Mutex   // orders taking an op with acquiring rw for it
		rw        sync.RWMutex // reads share it; a rebind holds it alone
		completed int
		markMu    sync.Mutex // guards completed and marks
		wg        sync.WaitGroup
	)
	t0 := time.Now()
	marks[0] = window{cpu: cpuTime(), steal: stealTicks()}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i == len(ops) {
					mu.Unlock()
					return
				}
				next++
				o := &ops[i]
				if o.write() {
					rw.Lock()
				} else {
					rw.RLock()
				}
				mu.Unlock()
				res.lat[i], outs[i] = in.send(o)
				markMu.Lock()
				if completed++; completed%per == 0 {
					marks[completed/per] = window{wall: time.Since(t0), cpu: cpuTime(), steal: stealTicks()}
				}
				markMu.Unlock()
				if o.write() {
					rw.Unlock()
				} else {
					rw.RUnlock()
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	for k := 1; k <= len(ops)/per; k++ {
		res.windows = append(res.windows, window{per, marks[k].wall - marks[k-1].wall, marks[k].cpu - marks[k-1].cpu, marks[k].steal - marks[k-1].steal})
	}
	for i, o := range outs {
		if o.err != "" {
			if res.failed == 0 {
				res.firstErr = o.err
			}
			res.failed++
		}
		if ops[i].write() {
			res.writes++
			continue
		}
		res.queries++
		res.queueNS += o.queueNS
		res.evalNS += o.evalNS
		res.prepNS += o.prepNS
		res.wallNS += o.wallNS
	}
	return res
}
