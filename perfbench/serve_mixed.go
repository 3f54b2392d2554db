package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/md"
	"repro/internal/serve"
)

// serve-mixed: serve.NewService (two workers, the production H/O model)
// behind serve.NewHTTPHandler on loopback, kept busy by two keep-alive
// client connections (one tenant each) in a closed loop. The mix is the
// load generator's four shapes (three periodic water boxes and an open
// cluster) plus ~8 % short trajectories, with a no-op UpdateParams after a
// fixed number of requests: each one bumps the weight version, so plans
// are evicted and recompiled while outputs stay bit-identical. It is the
// only workload that runs admission, bucketing, registry leases, weight
// swaps and the JSON wire.
var serveMixed = &workload{
	name: "serve-mixed",
	params: map[string]any{
		"model": "core.DefaultConfig(H,O) random weights, seed 5", "service_workers": serveWorkers,
		"connections": serveConns, "shapes": "water 2x2x2, 3x2x2, 3x3x3 (periodic), 2x2x1 open cluster",
		"mix_block": "1 trajectory + 3 requests of each shape, shuffled", "trajectory_steps": serveTrajSteps,
		"trajectory": "2x2x2 box, dt 0.25 fs, 200 K", "swap_every_requests": serveSwapEvery,
	},
	prepare: func(*config) error { return nil }, // inputs are cheap; generated in-process
}

const (
	serveWorkers = 2
	serveConns   = 2
	// Each block of the request mix holds one trajectory and
	// servePerShape energy/force requests of each of the four shapes
	// (1 in 13, ~8 % trajectories), in a seeded order, so every seed sees
	// the same composition.
	servePerShape = 3
	// serveTrajSteps is the length of a trajectory request: short enough
	// that a trajectory costs about as much as the largest energy/force
	// request.
	serveTrajSteps = 4
	// serveSwapEvery is the cadence of the no-op weight swaps, in
	// completed requests. A cadence in requests rather than seconds gives
	// every run the same number of swaps per request served.
	serveSwapEvery = 100
	// serveNominalRate (req/s) fixes the tail percentile: the rate
	// measured on a 2-core Xeon when the benchmark was defined.
	serveNominalRate = 50
	// serveMixLen is the length of the request sequence, longer than a run
	// can finish, so the composition does not depend on the achieved rate.
	serveMixLen = 13 * 1000
	// serveProfiled bounds the requests the traced run replays on the
	// profiled evaluator (ten mix blocks).
	serveProfiled = 130
)

func init() { serveMixed.run = runServeMixed }

// reqKind distinguishes the two request types of the mix.
type reqKind int

const (
	kindEF reqKind = iota
	kindTraj
)

// serveInputs are the request shapes, their pre-encoded bodies and the
// serial-evaluator reference answers.
type serveInputs struct {
	systems []*atoms.System
	efBody  [][]byte
	trajReq serve.TrajectoryRequest
	traj    []byte
	refE    []float64
	refF    [][][3]float64
	refTraj []float64
}

const trajShape = 0 // trajectories run on the 2x2x2 box

func newServeInputs(seed uint64) (*serveInputs, error) {
	// The shapes are fixed (the load generator's construction); the seed
	// drives the mix order and the trajectory velocities.
	rng := rand.New(rand.NewPCG(7, 9))
	in := &serveInputs{systems: []*atoms.System{
		data.WaterBox(rng, 2, 2, 2),
		data.WaterBox(rng, 3, 2, 2),
		data.WaterBox(rng, 3, 3, 3),
	}}
	cl := data.WaterBox(rng, 2, 2, 1).Clone()
	cl.PBC = false
	in.systems = append(in.systems, cl)

	m := waterModel()
	ev := core.NewEvaluator(m)
	ev.Scratch.Workers = 1
	defer ev.Close()
	for _, sys := range in.systems {
		body, err := json.Marshal(serve.EnergyForcesRequest{System: specOf(sys)})
		if err != nil {
			return nil, err
		}
		in.efBody = append(in.efBody, body)
		e, f := ev.EnergyForces(sys)
		in.refE = append(in.refE, e)
		in.refF = append(in.refF, f)
	}
	in.trajReq = serve.TrajectoryRequest{System: specOf(in.systems[trajShape]), Steps: serveTrajSteps, Dt: 0.25, TempK: 200, Seed: seed}
	body, err := json.Marshal(in.trajReq)
	if err != nil {
		return nil, err
	}
	in.traj = body
	in.refTraj = referenceTrajectory(in.systems[trajShape], &in.trajReq, m)
	return in, nil
}

// trajectorySeedStream is the second word of the service's trajectory
// velocity seed (serve: "the velocity stream is a pure function of
// (temp_k, seed)").
const trajectorySeedStream = 0x616c6c6567726f

// referenceTrajectory integrates the trajectory request on a fresh
// single-worker serial evaluator.
func referenceTrajectory(sys *atoms.System, req *serve.TrajectoryRequest, m *core.Model) []float64 {
	ev := core.NewEvaluator(m)
	ev.Scratch.Workers = 1
	defer ev.Close()
	sim := md.NewSim(sys.Clone(), ev, req.Dt)
	sim.InitVelocities(req.TempK, rand.New(rand.NewPCG(req.Seed, trajectorySeedStream)))
	out := []float64{sim.Energy}
	for i := 0; i < req.Steps; i++ {
		sim.Step()
		out = append(out, sim.Energy)
	}
	return out
}

func specOf(sys *atoms.System) serve.SystemSpec {
	spec := serve.SystemSpec{Species: make([]int, sys.NumAtoms()), Pos: append([][3]float64(nil), sys.Pos...), Cell: sys.Cell, PBC: sys.PBC}
	for i, sp := range sys.Species {
		spec.Species[i] = int(sp)
	}
	return spec
}

// planned is one request of the mix.
type planned struct {
	kind  reqKind
	shape int
}

// mix returns n requests of the workload's mix: blocks of one trajectory
// and servePerShape energy/force requests per shape, each block shuffled.
func mix(rng *rand.Rand, n int) []planned {
	var out []planned
	for len(out) < n {
		block := []planned{{kind: kindTraj, shape: trajShape}}
		for shape := 0; shape < 4; shape++ {
			for k := 0; k < servePerShape; k++ {
				block = append(block, planned{kind: kindEF, shape: shape})
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// outcome is one request's measured life: sent and done times, and
// whether it succeeded with a bitwise-correct answer.
type outcome struct {
	kind         reqKind
	sent, done   time.Time
	status       int
	ok, mismatch bool
}

func (o *outcome) latencyMs() float64 { return ms(o.done.Sub(o.sent)) }

// server is one running service behind its HTTP handler on loopback.
type server struct {
	svc     *serve.Service
	srv     *http.Server
	base    string
	clients []*http.Client
	served  chan error
}

// startServer builds the service and the HTTP binding, opens the client
// connections and warms every shape and the trajectory path on each (plan
// compiles): the span setup_s measures. tr (may be nil) decorates the API
// and the handler.
func startServer(m *core.Model, in *serveInputs, tr *tracer) (*server, error) {
	svc, err := serve.NewService(serve.Config{Model: m, Workers: serveWorkers, TenantInFlight: 8, QueueDepth: 1024})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	var api serve.API = svc
	if tr != nil {
		api = &tracedAPI{api: svc, tr: tr}
	}
	h := serve.NewHTTPHandler(api)
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	s := &server{svc: svc, srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	for i := 0; i < serveConns; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}})
	}
	for ci := range s.clients {
		for shape := range in.systems {
			if o := s.do(ci, -1, planned{kindEF, shape}, in); !o.ok || o.mismatch {
				s.close()
				return nil, fmt.Errorf("warm-up request (shape %d) failed: status %d", shape, o.status)
			}
		}
		if o := s.do(ci, -1, planned{kindTraj, trajShape}, in); !o.ok || o.mismatch {
			s.close()
			return nil, fmt.Errorf("warm-up trajectory failed: status %d", o.status)
		}
	}
	return s, nil
}

// close stops the HTTP server, drains the service and waits for both.
func (s *server) close() {
	s.srv.Close()
	<-s.served
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.svc.Close()
}

// opHeader carries the request's index in the run to the traced handler.
const opHeader = "X-Perfbench-Op"

// do sends one request on connection ci and checks the answer against the
// reference bitwise.
func (s *server) do(ci, op int, p planned, in *serveInputs) outcome {
	o := outcome{kind: p.kind, sent: time.Now()}
	path, body := "/v1/energy-forces", in.efBody[p.shape]
	if p.kind == kindTraj {
		path, body = "/v1/trajectory", in.traj
	}
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		o.done = time.Now()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TenantHeader, "tenant-"+strconv.Itoa(ci))
	req.Header.Set(opHeader, strconv.Itoa(op))
	resp, err := s.clients[ci].Do(req)
	if err != nil {
		o.done = time.Now()
		return o
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	o.done = time.Now()
	o.status = resp.StatusCode
	if err != nil || resp.StatusCode != http.StatusOK {
		return o
	}
	o.ok = true
	if p.kind == kindEF {
		var r serve.EnergyForcesResponse
		o.mismatch = json.Unmarshal(raw, &r) != nil || !sameEF(&r, in.refE[p.shape], in.refF[p.shape])
	} else {
		var r serve.TrajectoryResponse
		o.mismatch = json.Unmarshal(raw, &r) != nil || !sameSeries(r.Energies, in.refTraj)
	}
	return o
}

func sameEF(r *serve.EnergyForcesResponse, e float64, f [][3]float64) bool {
	if r.Energy != e || len(r.Forces) != len(f) {
		return false
	}
	for i := range f {
		if r.Forces[i] != f[i] {
			return false
		}
	}
	return true
}

func sameSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// closedLoop keeps every connection busy with back-to-back requests from
// the mix until d has elapsed, swapping the weights after every
// serveSwapEvery requests taken, and returns the outcomes, the achieved
// request rate and each swap's duration (ms).
func (s *server) closedLoop(plan []planned, in *serveInputs, d time.Duration, opBase int) ([]outcome, float64, []float64) {
	var (
		mu    sync.Mutex
		next  int
		out   []outcome
		swaps []float64
	)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range s.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i > 0 && i%serveSwapEvery == 0 {
					t0 := time.Now()
					s.svc.UpdateParams(func(*core.Model) {})
					mu.Lock()
					swaps = append(swaps, ms(time.Since(t0)))
					mu.Unlock()
				}
				o := s.do(ci, opBase+i, plan[i%len(plan)], in)
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	return out, float64(len(out)) / time.Since(start).Seconds(), swaps
}

// latencies returns each request's latency (ms); a refused or failed
// request misses every latency limit.
func latencies(outs []outcome) []float64 {
	lat := make([]float64, 0, len(outs))
	for i := range outs {
		if outs[i].ok {
			lat = append(lat, outs[i].latencyMs())
		} else {
			lat = append(lat, math.Inf(1))
		}
	}
	return lat
}

func runServeMixed(c *config) (*result, error) {
	in, err := newServeInputs(c.seed)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceServeMixed(c, in)
	}
	res := newResult()
	s, err := buildTimed(res, waterModel,
		func(m *core.Model) (*server, error) { return startServer(m, in, nil) },
		func(s *server) { s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	plan := mix(rand.New(rand.NewPCG(c.seed, 0x10ad)), serveMixLen)
	outs, rate, swaps := s.closedLoop(plan, in, c.window(), 0)
	lat := latencies(outs)
	res.e2e["throughput_per_s"] = rate
	res.e2e["latency_iqm_ms"] = iqm(append([]float64(nil), lat...))
	pct, v := tail(lat, int(serveNominalRate*c.seconds))
	res.e2e["latency_tail_ms"] = v
	res.info["requests"] = len(outs)
	res.info["latency_p50_ms"] = median(lat)
	res.info["tail_percentile"] = pct
	res.info["swaps"] = len(swaps)
	res.info["server_stats"] = s.svc.Stats()
	countRequests(res, outs)
	return res, nil
}

// countRequests adds every request to attempted, refused or failed ones to
// failed, and checks that every answered request was bitwise correct.
func countRequests(res *result, all []outcome) {
	failed, mismatched := 0, 0
	for i := range all {
		if !all[i].ok {
			failed++
		} else if all[i].mismatch {
			mismatched++
		}
	}
	res.attempted += len(all)
	res.failed += failed + mismatched
	res.addCheck("responses_bitwise", failed == 0 && mismatched == 0,
		"%d requests, %d refused or failed, %d differ from the serial evaluator reference", len(all), failed, mismatched)
}

// tracedHandler wraps the HTTP handler with a server-side span per
// request and hands the request's identity to the service span through
// the context.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil {
			op = -1
		}
		i := tr.begin("serve.http", -1, op, 2)
		ctx := context.WithValue(r.Context(), reqKey{}, &reqInfo{op: op, span: i})
		h.ServeHTTP(w, r.WithContext(ctx))
		tr.end(i)
	})
}

// traceServeMixed is the traced run: the closed loop runs twice, once
// untraced and once with spans at the HTTP handler and the service API;
// the service counters are read around the traced half; then the traced
// half's request mix is replayed on a profiled single-worker evaluator
// for the plan breakdown.
func traceServeMixed(c *config, in *serveInputs) (*result, error) {
	res := newResult()
	tr := newTracer()
	s, err := startServer(waterModel(), in, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	plan := mix(rand.New(rand.NewPCG(c.seed, 0x10ad)), serveMixLen)
	plain, traced := splitWindow(c)
	outs0, rate0, _ := s.closedLoop(plan, in, plain, 0)

	st0 := s.svc.Stats()
	tr.setOn(true)
	outs, rate, swaps := s.closedLoop(plan, in, traced, len(outs0))
	tr.setOn(false)
	st1 := s.svc.Stats()

	svcMs, httpMs := spanByOp(tr, "serve.service"), spanByOp(tr, "serve.http")
	var service, clientHTTP, handlerSelf, residual, ef, traj []float64
	for i := range outs {
		o := &outs[i]
		if !o.ok {
			continue
		}
		op := len(outs0) + i
		sv, hs := svcMs[op], httpMs[op]
		rt := o.latencyMs()
		service = append(service, sv)
		clientHTTP = append(clientHTTP, rt-sv)
		handlerSelf = append(handlerSelf, hs-sv)
		residual = append(residual, rt-hs)
		if o.kind == kindEF {
			ef = append(ef, rt)
		} else {
			traj = append(traj, rt)
		}
	}
	l := res.layer
	nominal := int(serveNominalRate * traced.Seconds())
	l["serve.service_p50_ms"] = median(append([]float64(nil), service...))
	_, l["serve.service_tail_ms"] = tail(append([]float64(nil), service...), nominal)
	l["serve.http_ms"] = median(clientHTTP)
	reg0, reg1 := st0.Registry, st1.Registry
	if look := (reg1.Hits - reg0.Hits) + (reg1.Misses - reg0.Misses); look > 0 {
		l["serve.registry_hit_frac"] = float64(reg1.Hits-reg0.Hits) / float64(look)
	}
	l["serve.compiles"] = float64(reg1.Compiles - reg0.Compiles)
	l["serve.evictions"] = float64(reg1.Evictions - reg0.Evictions)
	l["serve.swap_ms"] = mean(swaps)
	l["serve.rejected"] = float64((st1.RejectedQueueFull - st0.RejectedQueueFull) + (st1.RejectedTenantCap - st0.RejectedTenantCap))
	l["serve.ef_p50_ms"] = median(ef)
	l["serve.traj_p50_ms"] = median(traj)
	l["attr.op_wall_ms"] = mean(latencies(outs))
	l["attr.http_self_ms"] = mean(handlerSelf)
	l["attr.serve_self_ms"] = mean(service)
	l["attr.residual_ms"] = mean(residual)
	l["trace.overhead_frac"] = overhead(rate0, rate)
	l["trace.spans"] = float64(tr.count())
	profileServedMix(l, in, plan[:min(len(outs), serveProfiled)])
	countRequests(res, append(outs0, outs...))
	return res, writeTrace(c, tr, res)
}

// spanByOp maps each request index to the duration (ms) of its span with
// the given name.
func spanByOp(tr *tracer, name string) map[int]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[int]float64{}
	for _, s := range tr.spans {
		if s.Name == name && s.End >= 0 && s.Op >= 0 {
			out[s.Op] = ms(s.End - s.Start)
		}
	}
	return out
}

// profileServedMix replays a request mix on a profiled single-worker
// evaluator — the same compiled plans the service workers replay — and
// fills the core.* and plan.* metrics per request.
func profileServedMix(l map[string]float64, in *serveInputs, plan []planned) {
	if len(plan) == 0 {
		return
	}
	ev := core.NewEvaluator(waterModel())
	ev.Scratch.Workers = 1
	defer ev.Close()
	for _, sys := range in.systems { // compile outside the profile
		ev.EnergyForces(sys)
	}
	var kp core.KernelProfile
	ev.Scratch.Profile = &kp
	var forceMs []float64
	pairs := 0
	for _, p := range plan {
		t0 := time.Now()
		if p.kind == kindEF {
			ev.EnergyForces(in.systems[p.shape])
		} else {
			sim := md.NewSim(in.systems[trajShape].Clone(), ev, in.trajReq.Dt)
			sim.Run(in.trajReq.Steps)
		}
		forceMs = append(forceMs, ms(time.Since(t0)))
		pairs += ev.PairWork()
	}
	n := float64(len(plan))
	fillForceStats(l, forceMs, pairs/len(plan), len(plan))
	fillPlanStats(l, &kp, n)
	l["core.unattributed_ms"] = mean(forceMs) - ms(kp.Total())/n
}
