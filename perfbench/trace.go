package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/atoms"
	"repro/internal/md"
	"repro/internal/serve"
)

// span is one timed call across a layer boundary. Parent is the index of
// the span that caused it (-1 for a root); Op groups the spans of one
// timestep or request.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's origin
	Parent     int
	Op         int
	Thread     int
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use (the serve workload records from HTTP handler
// goroutines).
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	on     bool
}

// newTracer returns a tracer that records nothing until setOn(true).
func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index (-1 when not recording).
func (t *tracer) begin(name string, parent, op, thread int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, Thread: thread})
	return len(t.spans) - 1
}

// end closes span i and returns its duration (0 when i is -1).
func (t *tracer) end(i int) time.Duration {
	if i < 0 {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return now - t.spans[i].Start
}

// setOn switches recording on or off (the trace run alternates untraced
// and traced windows to measure the tracing overhead).
func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// count returns the number of spans recorded so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the durations of every closed span with the given name
// (milliseconds), in recording order.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	t.mu.Lock()
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		ev := map[string]any{
			"name": s.Name, "ph": "X", "pid": 1, "tid": s.Thread,
			"ts": float64(s.Start) / 1e3, "dur": float64(s.End-s.Start) / 1e3,
			"args": map[string]int{"id": i, "parent": s.Parent, "op": s.Op},
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteByte(',')
		}
		w.Write(b)
	}
	t.mu.Unlock()
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mdScope tracks the open step span of a single-goroutine MD loop, so that
// force decorators can parent their spans to it.
type mdScope struct {
	tr   *tracer
	step int // open md.step span (-1 outside a step)
	op   int // current step number
}

// tracedForce wraps a force backend with a span per call. It forwards
// every optional interface md.Simulation type-asserts on its potential —
// InPlacePotential (always), Close, and PipelinedPotential through
// tracedPipelined — so the traced engine takes the same path as the
// untraced one.
type tracedForce struct {
	inner md.InPlacePotential
	name  string
	sc    *mdScope
}

func (p *tracedForce) EnergyForces(sys *atoms.System) (float64, [][3]float64) {
	f := make([][3]float64, sys.NumAtoms())
	return p.EnergyForcesInto(sys, f), f
}

func (p *tracedForce) EnergyForcesInto(sys *atoms.System, forces [][3]float64) float64 {
	i := p.sc.tr.begin(p.name, p.sc.step, p.sc.op, 0)
	e := p.inner.EnergyForcesInto(sys, forces)
	p.sc.tr.end(i)
	return e
}

func (p *tracedForce) Close() {
	if c, ok := p.inner.(interface{ Close() }); ok {
		c.Close()
	}
}

// tracedPipelined is tracedForce for a md.PipelinedPotential backend.
type tracedPipelined struct {
	tracedForce
	pp md.PipelinedPotential
}

func (p *tracedPipelined) EnergyForcesOverlap(sys *atoms.System, forces [][3]float64, ready func([]int32)) float64 {
	i := p.sc.tr.begin(p.name, p.sc.step, p.sc.op, 0)
	e := p.pp.EnergyForcesOverlap(sys, forces, ready)
	p.sc.tr.end(i)
	return e
}

// traceForces decorates pot so every force call records a span named
// name, keeping the pipelined fast path when pot offers it.
func traceForces(pot md.InPlacePotential, name string, sc *mdScope) md.InPlacePotential {
	tf := tracedForce{inner: pot, name: name, sc: sc}
	if pp, ok := pot.(md.PipelinedPotential); ok {
		return &tracedPipelined{tracedForce: tf, pp: pp}
	}
	return &tf
}

// reqKey carries the benchmark's request identity from the HTTP layer to
// the service layer, so the two spans of one request can be paired.
type reqKey struct{}

// reqInfo is the per-request context value set by tracedHandler.
type reqInfo struct {
	op   int
	span int
}

// tracedAPI wraps serve.API with a span per service call.
type tracedAPI struct {
	api serve.API
	tr  *tracer
}

var _ serve.API = (*tracedAPI)(nil)

func (a *tracedAPI) open(ctx context.Context) int {
	ri, _ := ctx.Value(reqKey{}).(*reqInfo)
	if ri == nil {
		return a.tr.begin("serve.service", -1, -1, 1)
	}
	return a.tr.begin("serve.service", ri.span, ri.op, 1)
}

func (a *tracedAPI) EnergyForces(ctx context.Context, tenant string, req *serve.EnergyForcesRequest) (*serve.EnergyForcesResponse, error) {
	i := a.open(ctx)
	resp, err := a.api.EnergyForces(ctx, tenant, req)
	a.tr.end(i)
	return resp, err
}

func (a *tracedAPI) Trajectory(ctx context.Context, tenant string, req *serve.TrajectoryRequest) (*serve.TrajectoryResponse, error) {
	i := a.open(ctx)
	resp, err := a.api.Trajectory(ctx, tenant, req)
	a.tr.end(i)
	return resp, err
}

func (a *tracedAPI) Stats() serve.Stats { return a.api.Stats() }
