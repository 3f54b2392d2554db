package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	allegro "repro"
	"repro/internal/atoms"
)

// mdStart describes how an MD workload's start state is generated. The
// random-weight models heat a freshly built box to thousands of kelvin
// within tens of steps and the Langevin thermostat needs ~200 steps to
// bring it back, so a timed window that starts cold would measure that
// transient. Generation therefore runs in two cached stages:
//
//   - base: the system built from fixed seeds, equilibrated for baseSteps
//     on the workload's own engine (once per workload parameters);
//   - seed: the base configuration with fresh Maxwell-Boltzmann velocities
//     drawn from --seed, decorrelated for seedSteps (once per seed).
//
// Both are md.Simulation checkpoints, restored with Resume.
type mdStart struct {
	workload  *workload
	build     func() *atoms.System
	newSim    func(sys *atoms.System, seed uint64) (*allegro.Simulation, error)
	baseSteps int
	seedSteps int
}

// baseSeed seeds the velocities and thermostat of the base equilibration.
const baseSeed = 1

func (s *mdStart) key() string {
	h := fnv.New32a()
	b, _ := json.Marshal(s.workload.params) // map keys marshal sorted
	h.Write(b)
	fmt.Fprintf(h, "/%d/%d", s.baseSteps, s.seedSteps)
	return fmt.Sprintf("%s-%08x", s.workload.name, h.Sum32())
}

func (s *mdStart) basePath(c *config) string {
	return filepath.Join(c.stateDir, s.key()+"-base.json")
}

func (s *mdStart) seedPath(c *config) string {
	return filepath.Join(c.stateDir, fmt.Sprintf("%s-seed%d.json", s.key(), c.seed))
}

// prepare generates whichever stage is missing.
func (s *mdStart) prepare(c *config) error {
	if !exists(s.basePath(c)) {
		sim, err := s.newSim(s.build(), baseSeed)
		if err != nil {
			return err
		}
		err = sim.Run(context.Background(), s.baseSteps)
		if err == nil {
			err = writeCheckpoint(s.basePath(c), sim)
		}
		sim.Close()
		if err != nil {
			return err
		}
	}
	if exists(s.seedPath(c)) {
		return nil
	}
	base, err := os.ReadFile(s.basePath(c))
	if err != nil {
		return err
	}
	sim, err := s.newSim(s.build(), c.seed)
	if err != nil {
		return err
	}
	defer sim.Close()
	vel := append([][3]float64(nil), sim.Velocities()...) // drawn from c.seed
	if err := sim.Resume(bytes.NewReader(base)); err != nil {
		return err
	}
	copy(sim.Velocities(), vel)
	if err := sim.Run(context.Background(), s.seedSteps); err != nil {
		return err
	}
	return writeCheckpoint(s.seedPath(c), sim)
}

// load returns the seed's start checkpoint.
func (s *mdStart) load(c *config) ([]byte, error) {
	b, err := os.ReadFile(s.seedPath(c))
	if err != nil {
		return nil, fmt.Errorf("start state missing (run through run.sh, which prepares it): %w", err)
	}
	return b, nil
}

func writeCheckpoint(path string, sim *allegro.Simulation) error {
	var buf bytes.Buffer
	if err := sim.Checkpoint(&buf); err != nil {
		return err
	}
	return writeFileAtomic(path, buf.Bytes())
}

// writeFileAtomic writes via a temporary file and a rename, so concurrent
// runs never read a partial state.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
