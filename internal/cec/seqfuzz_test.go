package cec_test

// The differential k-induction fuzzer. Package cec_test (not cec) so it
// can drive the opt_dff pass through the registry without an import
// cycle (internal/opt imports internal/cec).
//
// Per seed it checks three contracts on a random sequential netlist:
//
//  1. opt_dff, run through the pass registry with verification on,
//     leaves a netlist CheckSequential still proves equivalent — and
//     plain BMC at depth k+2 agrees (an unsound "equivalent" fails).
//  2. Any counterexample the checker reports replays concretely on the
//     multi-cycle simulator.
//  3. An injected unsound rewrite (inverting one register's next-state
//     function) is never proven equivalent.
//
// Failing seeds are kept by the Go fuzzing corpus machinery under
// testdata/fuzz/FuzzKInduction.

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cec"
	"repro/internal/genbench"
	"repro/internal/opt"
	"repro/internal/rtlil"
	"repro/internal/sim"
)

// fuzzReplay drives both modules through a counterexample's input
// history and reports whether the named output bit differs at the
// reported cycle.
func fuzzReplay(t *testing.T, a, b *rtlil.Module, cex *cec.SeqNotEquivalentError) bool {
	t.Helper()
	parse := func(key, prefix string) (string, int) {
		s := strings.TrimPrefix(key, prefix)
		i := strings.LastIndex(s, "[")
		bit, err := strconv.Atoi(strings.TrimSuffix(s[i+1:], "]"))
		if err != nil {
			t.Fatalf("bad counterexample key %q: %v", key, err)
		}
		return s[:i], bit
	}
	lanes := func(m *rtlil.Module, in map[string]bool) map[rtlil.SigBit]uint64 {
		out := map[rtlil.SigBit]uint64{}
		for k, v := range in {
			name, bit := parse(k, "in:")
			w := m.Wire(name)
			if w == nil {
				t.Fatalf("module %s has no wire %s", m.Name, name)
			}
			var lane uint64
			if v {
				lane = 1
			}
			out[w.Bits()[bit]] = lane
		}
		return out
	}
	sa, err := sim.NewSequential(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sim.NewSequential(b)
	if err != nil {
		t.Fatal(err)
	}
	var va, vb map[rtlil.SigBit]uint64
	for _, in := range cex.Inputs {
		va = sa.Step(lanes(a, in))
		vb = sb.Step(lanes(b, in))
	}
	name, bit := parse(cex.Output, "out:")
	ga := sa.Sig(va, rtlil.SigSpec{a.Wire(name).Bits()[bit]})[0] & 1
	gb := sb.Sig(vb, rtlil.SigSpec{b.Wire(name).Bits()[bit]})[0] & 1
	return ga != gb
}

// simDiffers runs both modules for a few cycles of shared 64-lane
// random stimulus and reports whether any output ever differs.
func simDiffers(t *testing.T, a, b *rtlil.Module, seed int64) bool {
	t.Helper()
	sa, err := sim.NewSequential(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sim.NewSequential(b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eb))
	for cyc := 0; cyc < 24; cyc++ {
		ina := map[rtlil.SigBit]uint64{}
		inb := map[rtlil.SigBit]uint64{}
		for _, w := range a.Inputs() {
			for i := range w.Bits() {
				v := rng.Uint64()
				ina[w.Bits()[i]] = v
				inb[b.Wire(w.Name).Bits()[i]] = v
			}
		}
		va := sa.Step(ina)
		vb := sb.Step(inb)
		for _, w := range a.Outputs() {
			ga := sa.Sig(va, w.Bits())
			gb := sb.Sig(vb, b.Wire(w.Name).Bits())
			for i := range ga {
				if ga[i] != gb[i] {
					return true
				}
			}
		}
	}
	return false
}

func FuzzKInduction(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	// Regression: a netlist whose injected register inversion is
	// unobservable (XOR-path cancellation) — "equivalent" is correct.
	f.Add(int64(-26))
	spec, ok := opt.LookupPass("opt_dff")
	if !ok {
		f.Fatal("opt_dff not registered")
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		m := genbench.Generate(genbench.RandomSeqRecipe(seed), 1.0)
		if err := m.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced invalid module: %v", seed, err)
		}
		orig := m.Clone()
		pass, err := spec.Build(opt.Args{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.RunScript(opt.NewCtx(nil, opt.Config{}), m, pass)
		if err != nil {
			t.Fatalf("seed %d: opt_dff: %v", seed, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("seed %d: opt_dff left invalid module: %v", seed, err)
		}
		o := &cec.SeqOptions{Seed: seed + 7} // independent sim seed
		verdict := cec.CheckSequential(orig, m, o, nil)
		var cex *cec.SeqNotEquivalentError
		if errors.As(verdict, &cex) {
			if !fuzzReplay(t, orig, m, cex) {
				t.Fatalf("seed %d: counterexample does not replay: %v", seed, cex)
			}
			t.Fatalf("seed %d: opt_dff broke equivalence (counters %v): %v",
				seed, res.Details, cex)
		}
		// Cross-check the induction verdict against plain BMC at k+2:
		// a proof with a bounded counterexample is unsound.
		bmcErr := cec.BMC(orig, m, 4, o)
		if errors.As(bmcErr, &cex) {
			if verdict == nil {
				t.Fatalf("seed %d: induction proved equivalence but BMC refutes at cycle %d: %v",
					seed, cex.Cycle, cex)
			}
			t.Fatalf("seed %d: opt_dff broke equivalence within %d cycles: %v",
				seed, cex.Cycle, cex)
		}

		// Injected rewrite: invert one register's next-state function.
		// Random simulation establishes the ground truth first — the
		// inversion can be genuinely unobservable (XOR-path
		// cancellation in the generated netlist), in which case
		// "equivalent" is the right answer and only the BMC agreement
		// check applies.
		bad := orig.Clone()
		regs := bad.SeqCells()
		if len(regs) == 0 {
			return
		}
		ff := regs[int(uint64(seed)%uint64(len(regs)))]
		ff.SetPort("D", bad.Not(ff.Port("D")))
		observable := simDiffers(t, orig, bad, seed)
		badVerdict := cec.CheckSequential(orig, bad, o, nil)
		if observable && badVerdict == nil {
			t.Fatalf("seed %d: injected unsound rewrite on %s proven equivalent", seed, ff.Name)
		}
		if errors.As(badVerdict, &cex) && !fuzzReplay(t, orig, bad, cex) {
			t.Fatalf("seed %d: injected-rewrite counterexample does not replay: %v", seed, cex)
		}
		if badVerdict == nil {
			if berr := cec.BMC(orig, bad, 4, o); errors.As(berr, &cex) {
				t.Fatalf("seed %d: injected rewrite proven equivalent but BMC refutes at cycle %d",
					seed, cex.Cycle)
			}
		}
	})
}
