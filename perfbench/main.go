// Command perfbench is the repository's benchmark: one process runs one
// named workload from a seed, checks that the program's outputs are
// correct, and prints every end-to-end metric (untraced run) or every
// per-layer metric (traced run). The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through run.sh from the repository root, which builds this
// package and generates the cached start states first:
//
//	bash perfbench/run.sh --workload protein-decomp --seed 3 --seconds 10 --trace 0
//
// See README.md for the workloads, the metric map and the recorded spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	stateDir string
	traceDir string
}

// window returns the measurement duration.
func (c *config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// check is one correctness check's outcome.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is what a workload run reports.
type result struct {
	e2e       map[string]float64
	layer     map[string]float64
	info      map[string]any
	checks    []check
	attempted int // timesteps, requests and checks attempted
	failed    int // of which failed
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// addCheck records a correctness check; a failed check counts as a failed
// attempt.
func (r *result) addCheck(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	r.attempted++
	if !ok {
		r.failed++
	}
}

// correct reports whether every check passed.
func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// workload is one named benchmark input (BENCHMARK.json and README.md say
// why each was chosen).
type workload struct {
	name    string
	params  map[string]any
	prepare func(c *config) error // input generation: cached, untimed
	run     func(c *config) (*result, error)
}

var workloads = []*workload{waterSerial, proteinDecomp, waterFleetTCP, serveMixed}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var c config
	var traceFlag int
	var prepare bool
	flag.StringVar(&c.workload, "workload", "", "workload name (water-serial, protein-decomp, water-fleet-tcp, serve-mixed)")
	flag.Uint64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measurement window, seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&prepare, "prepare", false, "only generate (and cache) the workload's start state")
	flag.StringVar(&c.stateDir, "state-dir", ".bench_build/perfbench-state", "directory of cached start states")
	flag.StringVar(&c.traceDir, "trace-dir", ".bench_build/perfbench-traces", "directory for Chrome trace files of traced runs")
	flag.Parse()
	c.trace = traceFlag == 1

	w := findWorkload(c.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", c.workload)
		os.Exit(2)
	}
	if c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	if err := os.MkdirAll(c.stateDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if prepare {
		t0 := time.Now()
		if err := w.prepare(&c); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: preparing %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Printf("perfbench: %s seed %d start state ready (%.1f s)\n", w.name, c.seed, time.Since(t0).Seconds())
		return
	}
	res, err := w.run(&c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !report(os.Stdout, &c, w, res) {
		os.Exit(1)
	}
}

// report prints the fingerprint, checks and metric table, then the final
// JSON line. It returns whether every check passed.
func report(out io.Writer, c *config, w *workload, res *result) bool {
	fp := fingerprint(c, w)
	printJSONLine(out, "fingerprint", fp)
	printJSONLine(out, "info", res.info)
	for _, ch := range res.checks {
		status := "ok"
		if !ch.ok {
			status = "FAIL"
		}
		fmt.Fprintf(out, "check %-28s %-4s %s\n", ch.name, status, ch.detail)
	}
	if !c.trace {
		res.e2e["ok_frac"] = 1 - float64(res.failed)/float64(res.attempted)
	}
	defs, vals := endToEnd, res.e2e
	if c.trace {
		defs, vals = perLayer, res.layer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(out, "metric %-32s %14.6g %-6s %s\n", d.name, v, d.unit, d.better)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	ok := res.correct()
	line, err := json.Marshal(map[string]any{
		"correct":   ok,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Fprintln(out, string(line))
	return ok
}

func printJSONLine(out io.Writer, tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(out, "%s {\"error\": %q}\n", tag, err.Error())
		return
	}
	fmt.Fprintf(out, "%s %s\n", tag, b)
}

// writeTrace writes the traced run's spans and notes the path in info.
func writeTrace(c *config, tr *tracer, res *result) error {
	if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
		return err
	}
	p := filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
	if err := tr.writeChrome(p); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	res.info["trace_file"] = p
	return nil
}
