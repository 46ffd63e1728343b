package main

import (
	"fmt"
	"math/rand"

	"repro/internal/rtlil"
	"repro/internal/sim"
)

// The output check runs outside every timed region. A full equivalence
// proof of the larger cases takes minutes, so the check is seeded
// random simulation against the unoptimized original: 64-lane
// bit-parallel evaluation of every output port, over simBatches
// pattern batches for combinational modules and simCycles clock cycles
// from the all-zero reset state for register-bearing ones.
const (
	simBatches = 4
	simCycles  = 16
)

// waves holds one value per port bit and step, keyed by port name:
// waves[step][port][bit] is a 64-lane vector.
type waves []map[string][]uint64

// reference is one case's stimulus and the original module's
// responses to it.
type reference struct {
	stim, want waves
}

// newReference draws seeded stimulus for the module's input ports and
// records the module's output responses.
func newReference(m *rtlil.Module, rng *rand.Rand) (*reference, error) {
	steps := simBatches
	if m.StateBits() > 0 {
		steps = simCycles
	}
	stim := make(waves, steps)
	for i := range stim {
		stim[i] = map[string][]uint64{}
		for _, w := range m.Inputs() {
			lanes := make([]uint64, w.Width)
			for b := range lanes {
				lanes[b] = rng.Uint64()
			}
			stim[i][w.Name] = lanes
		}
	}
	want, err := respond(m, stim)
	if err != nil {
		return nil, err
	}
	return &reference{stim: stim, want: want}, nil
}

// respond simulates the module on the stimulus and returns its output
// ports' values per step. Sequential modules are stepped from reset.
func respond(m *rtlil.Module, stim waves) (waves, error) {
	bind := func(step map[string][]uint64) map[rtlil.SigBit]uint64 {
		in := map[rtlil.SigBit]uint64{}
		for _, w := range m.Inputs() {
			for b, v := range step[w.Name] {
				in[w.Bit(b)] = v
			}
		}
		return in
	}
	out := make(waves, len(stim))
	if m.StateBits() > 0 {
		s, err := sim.NewSequential(m)
		if err != nil {
			return nil, err
		}
		for i, step := range stim {
			vals := s.Step(bind(step))
			out[i] = map[string][]uint64{}
			for _, w := range m.Outputs() {
				out[i][w.Name] = s.Sig(vals, w.Bits())
			}
		}
		return out, nil
	}
	p, err := sim.NewParallel(m)
	if err != nil {
		return nil, err
	}
	for i, step := range stim {
		vals := p.Run(bind(step))
		out[i] = map[string][]uint64{}
		for _, w := range m.Outputs() {
			out[i][w.Name] = p.Sig(vals, w.Bits())
		}
	}
	return out, nil
}

// check simulates an optimized module on the reference stimulus and
// reports the first output that differs from the original's.
func (r *reference) check(m *rtlil.Module) error {
	got, err := respond(m, r.stim)
	if err != nil {
		return err
	}
	for i, want := range r.want {
		for port, lanes := range want {
			g, ok := got[i][port]
			if !ok || len(g) != len(lanes) {
				return fmt.Errorf("output %s missing or resized in the optimized module", port)
			}
			for b := range lanes {
				if g[b] != lanes[b] {
					return fmt.Errorf("output %s[%d] differs at step %d (lanes %#x, want %#x)", port, b, i, g[b], lanes[b])
				}
			}
		}
	}
	return nil
}
