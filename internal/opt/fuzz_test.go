package opt

import (
	"math/rand"
	"testing"

	"repro/internal/cec"
	"repro/internal/rtlil"
)

// randomMuxModule builds random netlists biased toward muxtree shapes:
// nested muxes with shared, derived or constant controls, eq-driven
// selects, and partially constant data — the structures the passes
// rewrite.
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
	// pickSel draws a mux select: one in four is the constant 0, 1 or x,
	// on which the walk takes or pushes path facts like on any bit.
	pickSel := func() rtlil.SigSpec {
		if rng.Intn(4) == 0 {
			return rtlil.ConstBits([]rtlil.State{rtlil.S0, rtlil.S1, rtlil.Sx}[rng.Intn(3)])
		}
		return pickBit()
	}

	for i := 0; i < 10; i++ {
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
			words = append(words, m.Mux(pickWord(), pickWord(), pickSel()))
		case 5:
			// Partially constant data word.
			w := pickWord()
			words = append(words, rtlil.Concat(w.Extract(0, 2), rtlil.Const(uint64(rng.Intn(2)), 1)))
		case 6:
			sel := rtlil.Concat(pickSel(), pickSel())
			words = append(words, m.Pmux(pickWord(), []rtlil.SigSpec{pickWord(), pickWord()}, sel))
		}
	}
	y := m.AddOutput("y", 3)
	m.Connect(y.Bits(), words[len(words)-1])
	y2 := m.AddOutput("y2", 1)
	m.Connect(y2.Bits(), bits[len(bits)-1])
	return m
}

// TestFuzzPassesPreserveEquivalence runs every baseline pass combination
// over many random muxtree-shaped netlists and proves each result
// equivalent to the original.
func TestFuzzPassesPreserveEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	combos := []struct {
		name   string
		passes func() []Pass
	}{
		{"expr", func() []Pass { return []Pass{ExprPass{}} }},
		{"muxtree", func() []Pass { return []Pass{MuxtreePass{}} }},
		{"clean", func() []Pass { return []Pass{CleanPass{}} }},
		{"expr_muxtree_clean", func() []Pass { return []Pass{ExprPass{}, MuxtreePass{}, CleanPass{}} }},
		{"fixpoint", func() []Pass { return []Pass{Fixpoint(0, ExprPass{}, MuxtreePass{}, CleanPass{})} }},
	}
	for trial := 0; trial < 40; trial++ {
		m := randomMuxModule(rng)
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid module: %v", trial, err)
		}
		for _, combo := range combos {
			work := m.Clone()
			if _, err := RunScript(nil, work, combo.passes()...); err != nil {
				t.Fatalf("trial %d %s: %v", trial, combo.name, err)
			}
			if err := work.Validate(); err != nil {
				t.Fatalf("trial %d %s: pass left invalid module: %v", trial, combo.name, err)
			}
			if err := cec.Check(m, work, &cec.Options{RandomRounds: 2}); err != nil {
				t.Fatalf("trial %d %s: %v", trial, combo.name, err)
			}
		}
	}
}

// TestFuzzPassesIdempotent: running a fixpoint pipeline twice must not
// change the circuit the second time.
func TestFuzzPassesIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 15; trial++ {
		m := randomMuxModule(rng)
		pipe := func() Pass { return Fixpoint(0, ExprPass{}, MuxtreePass{}, CleanPass{}) }
		if _, err := pipe().Run(nil, m); err != nil {
			t.Fatal(err)
		}
		r, err := pipe().Run(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if r.Changed {
			t.Errorf("trial %d: second fixpoint run still changed the module: %s", trial, r)
		}
	}
}
