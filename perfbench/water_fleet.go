package main

import (
	"bytes"
	"math/rand/v2"
	"net"
	"time"

	allegro "repro"
	"repro/internal/atoms"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/domain"
	"repro/internal/md"
	"repro/internal/perfmodel"
	"repro/internal/transport"
	"repro/internal/units"
)

// water-fleet-tcp: a 1536-atom water box with the small allegro-md demo
// model, driven through domain.NewRemoteRuntime against two in-process
// RankServers over transport.NewTCP on loopback, with a Replicate every 10
// steps as allegro-md does by default. The tiny model leaves the wire
// protocol, rebuilds, migrations and the integrator a large share of each
// step: the paper's few-atoms-per-GPU strong-scaling regime. (The
// production model would make exchange <0.02 % of a step and hide this
// layer.)
var waterFleetTCP = &workload{
	name: "water-fleet-tcp",
	params: map[string]any{
		"box": "8x8x8 water (1536 atoms)", "model": "allegro-md -demo-model (H,O), seed 5",
		"grid": "2x1x1", "workers_per_rank": 1, "transport": "tcp loopback, ranks in-process",
		"replicate_every": fleetReplicateEvery, "thermostat": "Langevin 300 K", "dt_fs": 0.5,
	},
}

const (
	fleetReplicateEvery = 10
	// fleetSerialSteps is the length of the serial comparison run of the
	// traced run (scaling efficiency and the serial-vs-decomposed count).
	fleetSerialSteps = 30
	// fleetNominalRate (steps/s) fixes the tail percentile: the rate
	// measured on a 2-core Xeon when the benchmark was defined.
	fleetNominalRate = 10
)

var fleetGrid = [3]int{2, 1, 1}

var fleetStart = &mdStart{
	workload: waterFleetTCP,
	build:    func() *atoms.System { return data.WaterBox(rand.New(rand.NewPCG(21, 22)), 8, 8, 8) },
	// The in-process runtime computes the same trajectory bit for bit, so
	// it equilibrates the start state.
	newSim: func(sys *atoms.System, seed uint64) (*allegro.Simulation, error) {
		return newFleetReplaySim(sys, demoModel(), seed)
	},
	baseSteps: 200,
	seedSteps: 20,
}

func init() {
	waterFleetTCP.prepare = fleetStart.prepare
	waterFleetTCP.run = runWaterFleet
}

// demoModel is allegro-md's -demo-model: a small deterministic
// randomly-initialized H/O model.
func demoModel() *core.Model {
	cfg := core.DefaultConfig([]units.Species{units.H, units.O})
	cfg.LMax = 1
	cfg.NumLayers = 2
	cfg.NumChannels = 2
	cfg.LatentDim = 8
	cfg.TwoBodyHidden = []int{8}
	cfg.LatentHidden = []int{8}
	cfg.EdgeHidden = 4
	cfg.NumBessel = 4
	cfg.DefaultCutoff = 3.0
	cfg.AvgNumNeighbors = 10
	m, err := core.New(cfg, nil, rand.New(rand.NewPCG(5, 0xA11E)))
	if err != nil {
		panic(err) // a fixed valid configuration: only a bug gets here
	}
	m.SetScaleShift(1.5, []float64{-0.5, -1.5})
	return m
}

func mdOptions(seed uint64) []md.SimOption {
	return []md.SimOption{md.WithTimestep(0.5), md.WithTemperature(300), md.WithSeed(seed)}
}

// newFleetReplaySim is the in-process runtime on the fleet's grid.
func newFleetReplaySim(sys *atoms.System, m *core.Model, seed uint64) (*allegro.Simulation, error) {
	return allegro.NewSimulation(sys, m,
		allegro.WithGrid(fleetGrid[0], fleetGrid[1], fleetGrid[2]),
		allegro.WithWorkers(1),
		allegro.WithTimestep(0.5),
		allegro.WithTemperature(300),
		allegro.WithSeed(seed),
	)
}

// fleet is one running remote fleet: a loopback TCP world of two rank
// servers and the driver, all in this process.
type fleet struct {
	tr    transport.Transport
	rr    *domain.RemoteRuntime
	sim   *md.Simulation
	serve chan error // one Serve result per rank server
	nr    int
}

// startFleet binds the loopback world, starts the rank servers and
// performs the rendezvous. wrap (may be nil) decorates the force backend.
func startFleet(sys *atoms.System, m *core.Model, seed uint64, wrap func(md.InPlacePotential) md.InPlacePotential) (*fleet, error) {
	nr := fleetGrid[0] * fleetGrid[1] * fleetGrid[2]
	lns := make([]net.Listener, nr+1)
	hosts := make([]string, nr+1)
	closeAll := func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		lns[r], hosts[r] = ln, ln.Addr().String()
	}
	members := make([]transport.Transport, nr+1)
	for r := range members {
		t, err := transport.NewTCP(transport.TCPConfig{Rank: r, Hosts: hosts, Listener: lns[r]})
		if err != nil {
			for _, mt := range members[:r] {
				mt.Close()
			}
			closeAll()
			return nil, err
		}
		members[r] = t
	}
	f := &fleet{tr: transport.NewGroup(members...), serve: make(chan error, nr), nr: nr}
	for r := 0; r < nr; r++ {
		ep, err := f.tr.Endpoint(r)
		if err != nil {
			f.tr.Close()
			return nil, err
		}
		go func() {
			srv, err := domain.NewRankServer(ep, nil)
			if err != nil {
				f.serve <- err
				return
			}
			defer srv.Close()
			f.serve <- srv.Serve()
		}()
	}
	rr, err := domain.NewRemoteRuntime(m, sys, domain.RemoteOptions{
		Grid: fleetGrid, Skin: allegro.DefaultSkin, WorkersPerRank: 1, Transport: f.tr,
	})
	if err != nil {
		f.tr.Close()
		f.wait()
		return nil, err
	}
	f.rr = rr
	var pot md.InPlacePotential = rr
	if wrap != nil {
		pot = wrap(rr)
	}
	f.sim, err = md.NewSimulation(sys, pot, mdOptions(seed)...)
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// step advances one MD step and records a replication point at the
// cadence; it returns the replication time (0 when none was due) and the
// fleet's sticky error. sc (may be nil) spans the replication.
func (f *fleet) step(sc *mdScope) (time.Duration, error) {
	f.sim.Step()
	if err := f.rr.Err(); err != nil {
		return 0, err
	}
	at := f.sim.Report().Step
	if at%fleetReplicateEvery != 0 {
		return 0, nil
	}
	span := -1
	if sc != nil {
		span = sc.tr.begin("domain.replicate", sc.step, sc.op, 0)
	}
	t0 := time.Now()
	err := f.rr.Replicate(uint64(at), f.sim.System().Pos, f.sim.Velocities())
	d := time.Since(t0)
	if sc != nil {
		sc.tr.end(span)
	}
	return d, err
}

// close shuts the fleet down and waits for every rank server to exit.
func (f *fleet) close() error {
	f.rr.Close() // broadcasts shutdown and closes the transport
	return f.wait()
}

func (f *fleet) wait() error {
	var first error
	for i := 0; i < f.nr; i++ {
		if err := <-f.serve; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// startFleetResumed starts a fleet and brings it to the first timed step:
// the span setup_s measures (bind, rendezvous, plan compiles, warm-up).
func startFleetResumed(sys *atoms.System, m *core.Model, seed uint64, ckpt []byte, wrap func(md.InPlacePotential) md.InPlacePotential) (*fleet, error) {
	f, err := startFleet(sys, m, seed, wrap)
	if err != nil {
		return nil, err
	}
	if err := f.sim.Resume(bytes.NewReader(ckpt)); err != nil {
		f.close()
		return nil, err
	}
	// A replication point at the start state, as allegro-md records one.
	if err := f.rr.Replicate(uint64(f.sim.Report().Step), f.sim.System().Pos, f.sim.Velocities()); err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < warmSteps; i++ {
		if _, err := f.step(nil); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func runWaterFleet(c *config) (*result, error) {
	ckpt, err := fleetStart.load(c)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceWaterFleet(c, ckpt)
	}
	res := newResult()
	f, err := buildTimed(res,
		func() mdInputs { return mdInputs{fleetStart.build(), demoModel()} },
		func(in mdInputs) (*fleet, error) { return startFleetResumed(in.sys, in.m, c.seed, ckpt, nil) },
		func(f *fleet) { f.close() })
	if err != nil {
		return nil, err
	}
	var stepErr error
	durs, wall := timedSteps(c.window(), func() {
		if stepErr != nil {
			return
		}
		if _, err := f.step(nil); err != nil {
			stepErr = err
		}
	})
	mdEndToEnd(res, durs, wall, int(fleetNominalRate*c.seconds))
	total := f.sim.Report().Step
	final := append([][3]float64(nil), f.sim.System().Pos...)
	finalE := f.sim.Report().PotentialEnergy
	closeErr := f.close()
	if stepErr != nil {
		res.failed++
	}
	res.addCheck("fleet_ran_clean", stepErr == nil && closeErr == nil, "step error %v, shutdown error %v", stepErr, closeErr)
	if stepErr != nil {
		return res, nil
	}
	replay, err := replayInProcess(c, ckpt, total, nil, 0)
	if err != nil {
		return nil, err
	}
	checkReplayBitwise(res, final, finalE, replay)
	return res, nil
}

// replayRun is an in-process replay of the fleet trajectory.
type replayRun struct {
	pos      [][3]float64
	energy   float64
	snapshot [][3]float64 // positions at the snapshot step (nil if none)
	forceMs  []float64    // force-call wall times (traced replays)
}

// replayInProcess runs the same trajectory on the in-process runtime from
// the start state and keeps the positions and energy at step total. When
// snapAt > 0 it also keeps the positions snapAt steps after the start
// (running past total if needed); sc (may be nil) traces its force calls.
func replayInProcess(c *config, ckpt []byte, total int, sc *mdScope, snapAt int) (*replayRun, error) {
	sys := fleetStart.build()
	m := demoModel()
	rt, err := domain.NewRuntime(m, sys, domain.RuntimeOptions{Grid: fleetGrid, Skin: allegro.DefaultSkin, WorkersPerRank: 1})
	if err != nil {
		return nil, err
	}
	var pot md.InPlacePotential = rt
	if sc != nil {
		pot = traceForces(rt, "domain.force", sc)
	}
	sim, err := md.NewSimulation(sys, pot, mdOptions(c.seed)...)
	if err != nil {
		rt.Close()
		return nil, err
	}
	defer sim.Close()
	if err := sim.Resume(bytes.NewReader(ckpt)); err != nil {
		return nil, err
	}
	out := &replayRun{}
	start := sim.Report().Step
	if sc != nil {
		sc.tr.setOn(true)
		defer sc.tr.setOn(false)
	}
	end := max(total, start+snapAt)
	for {
		at := sim.Report().Step
		if at == total {
			out.pos = append([][3]float64(nil), sys.Pos...)
			out.energy = sim.Report().PotentialEnergy
		}
		if snapAt > 0 && at == start+snapAt {
			out.snapshot = append([][3]float64(nil), sys.Pos...)
		}
		if at >= end {
			break
		}
		sim.Step()
	}
	if sc != nil {
		out.forceMs = sc.tr.durations("domain.force")
	}
	return out, nil
}

func checkReplayBitwise(res *result, final [][3]float64, finalE float64, replay *replayRun) {
	bad := 0
	for i := range final {
		if final[i] != replay.pos[i] {
			bad++
		}
	}
	res.addCheck("fleet_matches_inprocess", bad == 0 && finalE == replay.energy,
		"%d of %d final positions differ from the in-process replay; energy %.17g vs %.17g", bad, len(final), finalE, replay.energy)
}

// traceWaterFleet is the traced run: fleet force calls and replication
// points are spanned, LinkStats are read around the traced window, and two
// comparison runs follow — the in-process replay (force-time overhead of
// the remote path, plus the bitwise check) and a single-thread serial run
// of the same problem (scaling efficiency, and the count of atoms whose
// positions differ from the decomposed trajectory by accumulation order).
func traceWaterFleet(c *config, ckpt []byte) (*result, error) {
	res := newResult()
	tr := newTracer()
	sc := &mdScope{tr: tr, step: -1}
	f, err := startFleetResumed(fleetStart.build(), demoModel(), c.seed, ckpt,
		func(p md.InPlacePotential) md.InPlacePotential { return traceForces(p, "domain.remote_force", sc) })
	if err != nil {
		return nil, err
	}
	var stepErr error
	var replMs []float64
	recording := false
	step := func() {
		if stepErr != nil {
			return
		}
		d, err := f.step(sc)
		if err != nil {
			stepErr = err
		}
		if d > 0 && recording {
			replMs = append(replMs, ms(d))
		}
	}
	plain, traced := splitWindow(c)
	d0, w0 := timedSteps(plain, step)
	links0 := linkStats(f.tr)
	st0 := f.rr.Stats()
	tr.setOn(true)
	recording = true
	var split rebuildSplit
	steps, wall := tracedSteps(traced, sc, func() { split.step(f.rr.Stats, step) })
	tr.setOn(false)
	links1 := linkStats(f.tr)
	st1 := f.rr.Stats()
	total := f.sim.Report().Step
	final := append([][3]float64(nil), f.sim.System().Pos...)
	finalE := f.sim.Report().PotentialEnergy
	closeErr := f.close()
	res.addCheck("fleet_ran_clean", stepErr == nil && closeErr == nil, "step error %v, shutdown error %v", stepErr, closeErr)
	if stepErr != nil {
		return res, nil
	}
	remote := tr.durations("domain.remote_force")
	n := float64(len(steps))

	// In-process replay of the same trajectory, its force calls traced on
	// a second tracer so the two sets of spans stay apart.
	rsc := &mdScope{tr: newTracer(), step: -1}
	replay, err := replayInProcess(c, ckpt, total, rsc, fleetSerialSteps)
	if err != nil {
		return nil, err
	}
	checkReplayBitwise(res, final, finalE, replay)

	serialMs, mismatch, err := serialComparison(c, ckpt, replay.snapshot)
	if err != nil {
		return nil, err
	}
	res.info["serial_vs_decomposed_differing_atoms"] = mismatch

	l := res.layer
	stepMs, remoteMs := mean(steps), mean(remote)
	replPerStep := sumOf(replMs) / n
	l["md.step_self_ms"] = stepMs - remoteMs - replPerStep
	l["domain.remote_force_p50_ms"] = median(remote)
	l["domain.remote_overhead_ms"] = median(remote) - median(replay.forceMs)
	l["domain.force_p50_ms"] = median(replay.forceMs)
	l["domain.replicate_ms"] = mean(replMs)
	fleetStepSec := wall.Seconds() / n
	l["domain.scaling_eff"] = serialMs / 1e3 / (float64(f.nr) * fleetStepSec)
	fillDomainStats(l, st0, st1, len(final), f.nr)
	split.fill(l)
	fillLinkStats(l, links0, links1, n)
	l["attr.op_wall_ms"] = ms(wall) / n
	l["attr.md_self_ms"] = stepMs - remoteMs - replPerStep
	l["attr.domain_self_ms"] = remoteMs + replPerStep
	l["attr.residual_ms"] = ms(wall)/n - stepMs
	l["trace.overhead_frac"] = overhead(float64(len(d0))/w0.Seconds(), n/wall.Seconds())
	l["trace.spans"] = float64(tr.count())
	res.attempted += len(d0) + len(steps)

	// The cluster model's prediction for this fleet, calibrated from the
	// serial run's per-atom time and the measured links: information next
	// to the measured rate, not a metric.
	mach := perfmodel.CalibrateMachine(cluster.Perlmutter(), perfmodel.Measurement{
		Atoms: len(final), TimePerAtom: serialMs / 1e3 / float64(len(final)), Mode: "compiled",
	})
	mach = perfmodel.CalibrateMachineTransport(mach, links1)
	mach.GPUsPerNode = f.nr
	mach.SaturationAtoms = 0
	mach.Halo = demoModel().Cuts.Max() + allegro.DefaultSkin
	mach.Density = float64(len(final)) / fleetStart.build().Volume()
	res.info["fleet_steps_per_s_measured"] = n / wall.Seconds()
	res.info["fleet_steps_per_s_predicted"] = mach.StepsPerSecond(cluster.Water("water-fleet-tcp", len(final)), 1)
	res.info["serial_step_ms"] = serialMs
	return res, writeTrace(c, tr, res)
}

// serialComparison runs the same problem single-threaded on the serial
// backend for fleetSerialSteps and returns its mean step time and the
// number of atoms whose positions differ from the decomposed trajectory at
// that step (accumulation order differs; reported, not asserted).
func serialComparison(c *config, ckpt []byte, decomposed [][3]float64) (float64, int, error) {
	sys := fleetStart.build()
	sim, err := allegro.NewSimulation(sys, demoModel(), allegro.WithWorkers(1),
		allegro.WithTimestep(0.5), allegro.WithTemperature(300), allegro.WithSeed(c.seed))
	if err != nil {
		return 0, 0, err
	}
	defer sim.Close()
	if err := sim.Resume(bytes.NewReader(ckpt)); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for i := 0; i < fleetSerialSteps; i++ {
		sim.Step()
	}
	stepMs := ms(time.Since(t0)) / fleetSerialSteps
	diff := 0
	for i := range decomposed {
		if decomposed[i] != sys.Pos[i] {
			diff++
		}
	}
	return stepMs, diff, nil
}

// linkStats snapshots the transport's per-link counters.
func linkStats(t transport.Transport) []transport.LinkStats {
	if sr, ok := t.(transport.StatsReporter); ok {
		return sr.LinkStats()
	}
	return nil
}

// fillLinkStats sets the transport.* metrics from two LinkStats snapshots
// taken around n steps.
func fillLinkStats(l map[string]float64, a, b []transport.LinkStats, n float64) {
	key := func(s transport.LinkStats) [2]int { return [2]int{s.Src, s.Dst} }
	before := map[[2]int]transport.LinkStats{}
	for _, s := range a {
		before[key(s)] = s
	}
	var frames, bytes int64
	for _, s := range b {
		p := before[key(s)]
		frames += s.FramesSent - p.FramesSent
		bytes += s.BytesSent - p.BytesSent
	}
	l["transport.frames_per_step"] = float64(frames) / n
	l["transport.bytes_per_step"] = float64(bytes) / n
	lat, bw := perfmodel.SummarizeLinks(b)
	l["transport.latency_us"] = lat * 1e6
	l["transport.bandwidth_mbps"] = bw / 1e6
}
