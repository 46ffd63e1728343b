package core

import (
	"math/rand"
	"testing"

	"repro/internal/cec"
	"repro/internal/rtlil"
)

// randomMuxModule mirrors the opt package fuzzer: muxtree-shaped random
// netlists with derived controls.
func randomMuxModule(rng *rand.Rand) *rtlil.Module {
	m := rtlil.NewModule("fuzz")
	var bits []rtlil.SigSpec
	var words []rtlil.SigSpec
	for i := 0; i < 3; i++ {
		bits = append(bits, m.AddInput(string(rune('s'+i)), 1).Bits())
	}
	for i := 0; i < 4; i++ {
		words = append(words, m.AddInput(string(rune('a'+i)), 3).Bits())
	}
	pickBit := func() rtlil.SigSpec { return bits[rng.Intn(len(bits))] }
	pickWord := func() rtlil.SigSpec { return words[rng.Intn(len(words))] }
	for i := 0; i < 12; i++ {
		switch rng.Intn(7) {
		case 0:
			bits = append(bits, m.Or(pickBit(), pickBit()))
		case 1:
			bits = append(bits, m.And(pickBit(), pickBit()))
		case 2:
			bits = append(bits, m.Not(pickBit()))
		case 3:
			bits = append(bits, m.Eq(pickWord(), rtlil.Const(uint64(rng.Intn(8)), 3)))
		case 4:
			words = append(words, m.Mux(pickWord(), pickWord(), pickBit()))
		case 5:
			bits = append(bits, m.Lt(pickWord(), pickWord()))
		case 6:
			sel := rtlil.Concat(pickBit(), pickBit())
			words = append(words, m.Pmux(pickWord(), []rtlil.SigSpec{pickWord(), pickWord()}, sel))
		}
	}
	y := m.AddOutput("y", 3)
	m.Connect(y.Bits(), words[len(words)-1])
	y2 := m.AddOutput("y2", 1)
	m.Connect(y2.Bits(), bits[len(bits)-1])
	return m
}

// TestFuzzSmartlyPreservesEquivalence drives the full smaRTLy pipeline
// over random muxtree netlists — the strongest soundness net in the
// suite, since random derived controls hit inference, simulation, SAT
// and restructuring in unplanned combinations.
func TestFuzzSmartlyPreservesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		m := randomMuxModule(rng)
		orig := m.Clone()
		if _, err := namedFlow(t, "full").Run(nil, m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: invalid after pipeline: %v", trial, err)
		}
		if err := cec.Check(orig, m, &cec.Options{RandomRounds: 2}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestFuzzSmartlyNeverWorseThanBaseline: on every random netlist the
// full pipeline's area is at most the baseline's (smaRTLy subsumes
// opt_muxtree).
func TestFuzzSmartlyNeverWorseThanBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	for trial := 0; trial < 30; trial++ {
		m := randomMuxModule(rng)
		base := m.Clone()
		full := m.Clone()
		if _, err := namedFlow(t, "yosys").Run(nil, base); err != nil {
			t.Fatal(err)
		}
		if _, err := namedFlow(t, "full").Run(nil, full); err != nil {
			t.Fatal(err)
		}
		ab, af := area(t, base), area(t, full)
		if af > ab {
			t.Errorf("trial %d: full (%d) worse than baseline (%d)", trial, af, ab)
		}
	}
}

// TestSatMuxIdempotent: a second run of the full pipeline must be a
// no-op.
func TestSatMuxIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	for trial := 0; trial < 10; trial++ {
		m := randomMuxModule(rng)
		if _, err := namedFlow(t, "full").Run(nil, m); err != nil {
			t.Fatal(err)
		}
		r, err := namedFlow(t, "full").Run(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if r.Changed {
			t.Errorf("trial %d: second run still changed the module (%s)", trial, r)
		}
	}
}
