package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/serve"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself
// depends on: the metric catalogue and the workload names.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestCatalogueMatchesBenchmarkFile keeps metrics.go and BENCHMARK.json in
// step: same names, units and better-directions, in the same order.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	compare := func(kind string, file []metricJSON, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(file), len(defs))
		}
		for i, d := range defs {
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", kind, i, f, d)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd)
	compare("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmokeEveryWorkload runs each workload briefly, untraced and traced,
// and checks that every metric of BENCHMARK.json is printed by name with
// its unit and better-direction, that the last line is the result object
// with exactly the keys correct/attempted/failed/metrics, and that every
// check passed. The protein and fleet start states are equilibrated for a
// few steps only (the smoke run checks the output, not the physics);
// water-serial keeps its full equilibration because its check asserts a
// physical temperature.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, s := range []*mdStart{proteinStart, fleetStart} {
		s.baseSteps, s.seedSteps = 4, 2
	}
	b := loadBenchmarkFile(t)
	states := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := &config{workload: w.name, seed: 1, seconds: 0.6, trace: traced, stateDir: states, traceDir: t.TempDir()}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			t.Run(strings.Join([]string{w.name, map[bool]string{false: "untraced", true: "traced"}[traced]}, "/"), func(t *testing.T) {
				if err := w.prepare(c); err != nil {
					t.Fatal(err)
				}
				res, err := w.run(c)
				if err != nil {
					t.Fatal(err)
				}
				set := res.e2e
				if traced {
					set = res.layer
				}
				for name := range set {
					if !slices.ContainsFunc(want, func(m metricJSON) bool { return m.Name == name }) {
						t.Errorf("workload sets metric %q, which BENCHMARK.json does not list", name)
					}
				}
				var out bytes.Buffer
				if !report(&out, c, w, res) {
					t.Errorf("checks failed:\n%s", out.String())
				}
				checkOutput(t, out.String(), want)
			})
		}
	}
}

// checkOutput verifies the metric table and the final JSON line.
func checkOutput(t *testing.T, out string, want []metricJSON) {
	t.Helper()
	table := map[string][]string{}
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 5 && f[0] == "metric" {
			table[f[1]] = f[2:]
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	for _, m := range want {
		row, ok := table[m.Name]
		if !ok {
			t.Errorf("metric %s not printed", m.Name)
			continue
		}
		if row[1] != m.Unit || row[2] != m.Better {
			t.Errorf("metric %s printed with unit %q, better %q; want %q, %q", m.Name, row[1], row[2], m.Unit, m.Better)
		}
	}
	var final map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		t.Fatalf("last line is not JSON: %q", last)
	}
	if len(final) != 4 || final["correct"] == nil || final["attempted"] == nil || final["failed"] == nil || final["metrics"] == nil {
		t.Fatalf("last line has keys other than correct/attempted/failed/metrics: %s", last)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(final["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("result carries %d metrics, want %d", len(metrics), len(want))
	}
	for _, m := range want {
		got, ok := metrics[m.Name]
		if !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("result metric %s = %+v, want a value in %s", m.Name, got, m.Unit)
		}
	}
	var attempted int
	if err := json.Unmarshal(final["attempted"], &attempted); err != nil || attempted < 1 {
		t.Errorf("attempted = %s, want a whole number >= 1", final["attempted"])
	}
}

// flip returns x with its last mantissa bit changed: the smallest
// corruption a bitwise check must catch.
func flip(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }

// Each correctness check must fire on one corrupted value.
func TestChecksFireOnOneCorruptedValue(t *testing.T) {
	forces := [][3]float64{{1, 2, 3}, {4, 5, 6}}
	cases := []struct {
		name string
		run  func(res *result, corrupt bool)
	}{
		{"final_forces_bitwise", func(res *result, corrupt bool) {
			f := [][3]float64{forces[0], forces[1]}
			if corrupt {
				f[1][2] = flip(f[1][2])
			}
			checkForcesBitwise(res, -3.5, f, -3.5, forces)
		}},
		{"temperature_in_range", func(res *result, corrupt bool) {
			temp := 305.0
			if corrupt {
				temp = math.NaN()
			}
			checkTemperature(res, temp)
		}},
		{"reuse_drift_bounded", func(res *result, corrupt bool) {
			s := perfmodel.DriftSample{RMSForceErrEvA: 0.08, EnergyErrEvAtom: 0.0003}
			if corrupt {
				s.RMSForceErrEvA = 0.21
			}
			checkDrift(res, s)
		}},
		{"fleet_matches_inprocess", func(res *result, corrupt bool) {
			final := [][3]float64{forces[0], forces[1]}
			if corrupt {
				final[0][1] = flip(final[0][1])
			}
			checkReplayBitwise(res, final, -7, &replayRun{pos: forces, energy: -7})
		}},
		{"responses_bitwise (trajectory)", func(res *result, corrupt bool) {
			resp := &serve.EnergyForcesResponse{Energy: 2, Forces: [][3]float64{forces[0], forces[1]}}
			traj := []float64{-1, -1.5}
			if corrupt {
				traj[1] = flip(traj[1])
			}
			o := outcome{ok: true, mismatch: !sameEF(resp, 2, forces) || !sameSeries(traj, []float64{-1, -1.5})}
			countRequests(res, []outcome{o})
		}},
		{"responses_bitwise (forces)", func(res *result, corrupt bool) {
			resp := &serve.EnergyForcesResponse{Energy: 2, Forces: [][3]float64{forces[0], forces[1]}}
			if corrupt {
				resp.Forces[1][0] = flip(resp.Forces[1][0])
			}
			o := outcome{ok: true, mismatch: !sameEF(resp, 2, forces)}
			countRequests(res, []outcome{o})
		}},
	}
	for _, tc := range cases {
		clean, bad := newResult(), newResult()
		tc.run(clean, false)
		tc.run(bad, true)
		if !clean.correct() || clean.failed != 0 {
			t.Errorf("%s: fails on clean input: %+v", tc.name, clean.checks)
		}
		if bad.correct() || bad.failed == 0 {
			t.Errorf("%s: does not fire on one corrupted value: %+v", tc.name, bad.checks)
		}
		var out bytes.Buffer
		c := &config{workload: "water-serial", seed: 1, seconds: 1}
		if report(&out, c, waterSerial, bad) {
			t.Errorf("%s: report succeeded with a failed check", tc.name)
		}
	}
}
