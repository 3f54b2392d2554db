package main

import (
	"time"

	"repro/internal/atoms"
	"repro/internal/core"
)

// Every MD workload repeats its set-up this many times and reports the
// median (set-up time is noisy, and a later change that moves work into
// set-up must show).
const setupReps = 3

// warmSteps are the steps each set-up runs after construction, so plan
// compiles and buffer growth land in setup_s, not in the timed window.
const warmSteps = 2

// mdInputs are one set-up's untimed inputs: the system to resume into and
// a freshly constructed model (so no model-level cache survives from an
// earlier set-up).
type mdInputs struct {
	sys *atoms.System
	m   *core.Model
}

// buildTimed constructs an engine setupReps times, timing each
// construction, and keeps the last one; it sets setup_s (the median) and
// rss_mb (the resident memory of the ready engine). inputs (untimed)
// generates one construction's inputs; everything build does counts as
// set-up.
func buildTimed[P, T any](res *result, inputs func() P, build func(P) (T, error), closeFn func(T)) (T, error) {
	var (
		last   T
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			closeFn(last)
		}
		in := inputs()
		t0 := time.Now()
		v, err := build(in)
		if err != nil {
			var zero T
			return zero, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		last = v
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["rss_mb"] = liveRSSMB()
	res.info["setup_runs_s"] = setups
	return last, nil
}

// timedSteps runs step until d has elapsed and returns each step's wall
// time (ms) and the window's wall time.
func timedSteps(d time.Duration, step func()) ([]float64, time.Duration) {
	var durs []float64
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		step()
		durs = append(durs, ms(time.Since(t0)))
	}
	return durs, time.Since(start)
}

// tracedSteps is timedSteps with an md.step span around every step; the
// force decorators parent their spans to it through sc.
func tracedSteps(d time.Duration, sc *mdScope, step func()) ([]float64, time.Duration) {
	var durs []float64
	start := time.Now()
	for time.Since(start) < d {
		sc.op++
		sc.step = sc.tr.begin("md.step", -1, sc.op, 0)
		step()
		durs = append(durs, ms(sc.tr.end(sc.step)))
		sc.step = -1
	}
	return durs, time.Since(start)
}

// mdEndToEnd fills the MD workloads' timing metrics from a timed window.
// nominal is the step count that fixes the tail percentile.
func mdEndToEnd(res *result, durs []float64, wall time.Duration, nominal int) {
	res.e2e["throughput_per_s"] = float64(len(durs)) / wall.Seconds()
	res.e2e["latency_iqm_ms"] = iqm(append([]float64(nil), durs...))
	pct, v := tail(append([]float64(nil), durs...), nominal)
	res.e2e["latency_tail_ms"] = v
	res.info["timed_steps"] = len(durs)
	res.info["step_p50_ms"] = median(append([]float64(nil), durs...))
	res.info["tail_percentile"] = pct
	res.attempted += len(durs)
}

// overhead is the fraction of throughput lost to tracing.
func overhead(untracedRate, tracedRate float64) float64 {
	if untracedRate <= 0 {
		return 0
	}
	return 1 - tracedRate/untracedRate
}

// splitWindow divides a trace run's window into its untraced and traced
// halves.
func splitWindow(c *config) (time.Duration, time.Duration) {
	h := c.window() / 2
	return h, c.window() - h
}
