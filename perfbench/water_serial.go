package main

import (
	"bytes"
	"math"
	"math/rand/v2"

	allegro "repro"
	"repro/internal/atoms"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/md"
	"repro/internal/units"
)

// water-serial: the plain single-threaded baseline on the default user
// path (allegro.NewSimulation, serial backend, one worker, exact engine).
// Kernel and plan time dominate; no exchange, reuse or HTTP runs. It is
// the only workload whose traced run reads the per-kernel breakdown
// (core.KernelProfile needs the serial, single-worker evaluator).
var waterSerial = &workload{
	name: "water-serial",
	params: map[string]any{
		"box": "4x4x4 water (192 atoms)", "model": "core.DefaultConfig(H,O) random weights, seed 5",
		"backend": "serial, WithWorkers(1)", "thermostat": "Langevin 300 K", "dt_fs": 0.5,
	},
}

var waterSerialStart = &mdStart{
	workload: waterSerial,
	build:    func() *atoms.System { return data.WaterBox(rand.New(rand.NewPCG(11, 12)), 4, 4, 4) },
	newSim: func(sys *atoms.System, seed uint64) (*allegro.Simulation, error) {
		return newWaterSerialSim(sys, waterModel(), seed)
	},
	baseSteps: 200,
	seedSteps: 20,
}

// waterSerialNominalRate (steps/s) fixes the tail percentile: the rate
// measured on a 2-core Xeon when the benchmark was defined.
const waterSerialNominalRate = 6

func init() {
	waterSerial.prepare = waterSerialStart.prepare
	waterSerial.run = runWaterSerial
}

// waterModel is the production H/O model of the serving tier and the
// serial baseline: core.DefaultConfig with seeded random weights.
func waterModel() *core.Model {
	m, err := core.New(core.DefaultConfig([]units.Species{units.H, units.O}), nil, rand.New(rand.NewPCG(5, 0xA11E)))
	if err != nil {
		panic(err) // a fixed valid configuration: only a bug gets here
	}
	return m
}

func waterSerialOptions(seed uint64) []allegro.Option {
	return []allegro.Option{
		allegro.WithWorkers(1),
		allegro.WithTimestep(0.5),
		allegro.WithTemperature(300),
		allegro.WithSeed(seed),
	}
}

func newWaterSerialSim(sys *atoms.System, m *core.Model, seed uint64) (*allegro.Simulation, error) {
	return allegro.NewSimulation(sys, m, waterSerialOptions(seed)...)
}

func runWaterSerial(c *config) (*result, error) {
	ckpt, err := waterSerialStart.load(c)
	if err != nil {
		return nil, err
	}
	if c.trace {
		return traceWaterSerial(c, ckpt)
	}
	res := newResult()
	sim, err := buildTimed(res,
		func() mdInputs { return mdInputs{waterSerialStart.build(), waterModel()} },
		func(in mdInputs) (*allegro.Simulation, error) {
			return startSim(func() (*allegro.Simulation, error) { return newWaterSerialSim(in.sys, in.m, c.seed) }, ckpt)
		}, func(s *allegro.Simulation) { s.Close() })
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	durs, wall := timedSteps(c.window(), sim.Step)
	mdEndToEnd(res, durs, wall, int(waterSerialNominalRate*c.seconds))
	checkSerialFinalState(res, sim.Simulation, waterModel())
	return res, nil
}

// startSim constructs a simulation, resumes the start state and runs the
// warm-up steps: the span setup_s measures.
func startSim(build func() (*allegro.Simulation, error), ckpt []byte) (*allegro.Simulation, error) {
	sim, err := build()
	if err != nil {
		return nil, err
	}
	if err := sim.Resume(bytes.NewReader(ckpt)); err != nil {
		sim.Close()
		return nil, err
	}
	for i := 0; i < warmSteps; i++ {
		sim.Step()
	}
	return sim, nil
}

// checkSerialFinalState compares the engine's energy and forces at the
// final state bitwise against a fresh single-worker evaluator, and checks
// that the temperature is physical.
func checkSerialFinalState(res *result, sim *md.Simulation, m *core.Model) {
	ev := core.NewEvaluator(m)
	ev.Scratch.Workers = 1
	defer ev.Close()
	e, f := ev.EnergyForces(sim.System())
	rep := sim.Report()
	checkForcesBitwise(res, rep.PotentialEnergy, sim.Forces(), e, f)
	checkTemperature(res, rep.Temperature)
}

func checkForcesBitwise(res *result, e float64, f [][3]float64, refE float64, refF [][3]float64) {
	bad := 0
	for i := range refF {
		if f[i] != refF[i] {
			bad++
		}
	}
	res.addCheck("final_forces_bitwise", bad == 0 && e == refE,
		"%d of %d force rows differ, energy %.17g vs fresh evaluator %.17g", bad, len(refF), e, refE)
}

func checkTemperature(res *result, t float64) {
	res.addCheck("temperature_in_range", !math.IsNaN(t) && !math.IsInf(t, 0) && t > 100 && t < 1000,
		"T = %.1f K (want 100..1000)", t)
	res.info["final_temperature_k"] = t
}

// traceWaterSerial is the traced run: the same engine assembled from its
// parts, with the force backend decorated and the evaluator's kernel
// profile on during the traced half.
func traceWaterSerial(c *config, ckpt []byte) (*result, error) {
	res := newResult()
	tr := newTracer()
	sc := &mdScope{tr: tr, step: -1}
	sys := waterSerialStart.build()
	m := waterModel()
	ev := core.NewEvaluator(m)
	ev.Scratch.Workers = 1
	sim, err := md.NewSimulation(sys, traceForces(ev, "core.force", sc),
		md.WithTimestep(0.5), md.WithTemperature(300), md.WithSeed(c.seed))
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	if err := sim.Resume(bytes.NewReader(ckpt)); err != nil {
		return nil, err
	}
	for i := 0; i < warmSteps; i++ {
		sim.Step()
	}

	plain, traced := splitWindow(c)
	tr.setOn(false)
	d0, w0 := timedSteps(plain, sim.Step)
	tr.setOn(true)
	var kp core.KernelProfile
	ev.Scratch.Profile = &kp
	steps, wall := tracedSteps(traced, sc, sim.Step)
	ev.Scratch.Profile = nil

	forces := tr.durations("core.force")
	stepMs := mean(steps)
	forceMs := mean(forces)
	n := float64(len(steps))
	l := res.layer
	l["md.step_self_ms"] = stepMs - forceMs
	fillForceStats(l, forces, ev.PairWork(), int(waterSerialNominalRate*c.seconds/2))
	fillPlanStats(l, &kp, n)
	planPerStep := ms(kp.Total()) / n
	l["core.unattributed_ms"] = forceMs - planPerStep
	l["attr.op_wall_ms"] = ms(wall) / n
	l["attr.md_self_ms"] = stepMs - forceMs
	l["attr.core_self_ms"] = forceMs - planPerStep
	l["attr.plan_self_ms"] = planPerStep
	l["attr.residual_ms"] = ms(wall)/n - stepMs
	l["trace.overhead_frac"] = overhead(float64(len(d0))/w0.Seconds(), n/wall.Seconds())
	l["trace.spans"] = float64(tr.count())
	res.attempted += len(d0) + len(steps)
	checkSerialFinalState(res, sim, m)
	return res, writeTrace(c, tr, res)
}

// fillForceStats sets the core.* force-call metrics from force span
// durations (ms) and the evaluator's padded pair count.
func fillForceStats(l map[string]float64, forces []float64, pairWork, nominal int) {
	l["core.force_p50_ms"] = median(append([]float64(nil), forces...))
	_, l["core.force_tail_ms"] = tail(append([]float64(nil), forces...), nominal)
	l["core.pair_work"] = float64(pairWork)
	if fm := mean(forces); fm > 0 {
		l["core.pairs_per_s"] = float64(pairWork) / (fm / 1e3)
	}
}

// fillPlanStats sets the plan.* metrics (per compiled replay) from a kernel
// profile accumulated over ops steps or requests.
func fillPlanStats(l map[string]float64, kp *core.KernelProfile, ops float64) {
	r := float64(kp.Replays)
	if r == 0 || ops == 0 {
		return
	}
	l["plan.linear_fwd_ms"] = ms(kp.Linear) / r
	l["plan.tp_fwd_ms"] = ms(kp.TP) / r
	l["plan.linear_bwd_ms"] = ms(kp.BwdLin) / r
	l["plan.tp_bwd_ms"] = ms(kp.BwdTP) / r
	l["plan.env_rows_ms"] = ms(kp.EnvRows) / r
	l["plan.radial_ms"] = ms(kp.Radial) / r
	l["plan.other_ms"] = ms(kp.Other) / r
	l["plan.replays_per_step"] = r / ops
}
