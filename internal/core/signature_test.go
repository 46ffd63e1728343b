package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/genbench"
	"repro/internal/opt"
	"repro/internal/rtlil"
)

// refutationChecker is a walk oracle that answers through a filtered
// SmartOracle and, for every query the module signatures refute, asks
// a filter-off oracle over the same snapshot and facts. That oracle has
// an unlimited conflict budget and no input limit on SAT, so each of
// its stages gets its full say; it must answer Sx.
type refutationChecker struct {
	t        testing.TB
	filtered *SmartOracle
	ref      *SmartOracle
	refuted  int
}

func (c *refutationChecker) Values(facts *opt.PathFacts, bits []rtlil.SigBit, out []rtlil.State) {
	// One bit at a time, which the Oracle contract makes equal to the
	// batch, so each refutation is seen on its own.
	for i, bit := range bits {
		before := c.filtered.Stats.SimFiltered
		c.filtered.Values(facts, bits[i:i+1], out[i:i+1])
		if c.filtered.Stats.SimFiltered == before {
			continue
		}
		c.refuted++
		ref := []rtlil.State{rtlil.Sx}
		c.ref.Values(facts, bits[i:i+1], ref)
		if ref[0] != rtlil.Sx {
			c.t.Errorf("signatures refuted %v under facts %v=%v, but the unfiltered oracle answers %v",
				bit, facts.Bits(), facts.States(), ref[0])
		}
	}
}

// checkRefutations runs satmux's walk iterations over m with a
// refutationChecker as the oracle and returns how many queries the
// signatures refuted.
func checkRefutations(t testing.TB, m *rtlil.Module) int {
	t.Helper()
	refuted := 0
	for iter := 0; iter < 20; iter++ {
		ix := rtlil.NewIndex(m)
		c := &refutationChecker{
			t:        t,
			filtered: NewSmartOracle(ix, SatMuxOptions{}),
			ref: NewSmartOracle(ix, SatMuxOptions{
				DisableSimFilter: true, MaxConflicts: 1 << 40, SATInputLimit: 1 << 30,
			}),
		}
		r, err := (&opt.MuxtreeWalk{Oracle: c}).Run(opt.Background(), ix)
		if err != nil {
			t.Fatal(err)
		}
		refuted += c.refuted
		if !r.Changed {
			break
		}
	}
	return refuted
}

// divModule selects by |(a/b) & (a != b) over w-bit operands: with w = 3
// the control cone has 6 inputs and goes to the exhaustive sweep, which
// divides per lane like the signatures.
func divModule(w int) *rtlil.Module {
	m := rtlil.NewModule("divsel")
	a := m.AddInput("a", w).Bits()
	b := m.AddInput("b", w).Bits()
	q := m.NewWireHint("q", w)
	m.AddBinary(rtlil.CellDiv, "div0", a, b, q.Bits())
	ctrl := m.And(m.ReduceOr(q.Bits()), m.Ne(a, b))
	d0 := m.AddInput("d0", 2).Bits()
	d1 := m.AddInput("d1", 2).Bits()
	inner := m.Mux(d0, d1, ctrl)
	y := m.AddOutput("y", 2)
	m.AddMux("m_out", d1, inner, m.Or(ctrl, m.AddInput("e", 1).Bits()), y.Bits())
	return m
}

// dffFactModule selects by a register's Q bit, then, under each value of
// that fact, by q & a and q | a: under q=0 the first is constant 0 and
// the second free, under q=1 the reverse. A mask that dropped the Q
// fact would refute the constant one.
func dffFactModule() *rtlil.Module {
	m := rtlil.NewModule("dfffact")
	clk := m.AddInput("clk", 1).Bits()
	a := m.AddInput("a", 1).Bits()
	d := m.AddInput("d", 1).Bits()
	q := m.NewWireHint("q", 1).Bits()
	m.AddDff("ff", clk, d, q)
	x0 := m.AddInput("x0", 2).Bits()
	x1 := m.AddInput("x1", 2).Bits()
	x2 := m.AddInput("x2", 2).Bits()
	x3 := m.AddInput("x3", 2).Bits()
	lo := m.Mux(x0, x1, m.And(q, a))
	hi := m.Mux(x2, x3, m.Or(q, a))
	y := m.AddOutput("y", 2)
	m.AddMux("root", lo, hi, q, y.Bits())
	return m
}

// TestSignatureRefutationsSound: every query the module signatures
// refute is one the full unfiltered oracle leaves unknown, over the
// testdata modules, the benchmark recipes, satRecipe, random muxtree
// netlists and hand-built corner cases. Every generated input must see
// refutations, so a filter that silently switched off fails.
func TestSignatureRefutationsSound(t *testing.T) {
	expect := func(t *testing.T, name string, m *rtlil.Module) {
		t.Helper()
		if n := checkRefutations(t, m); n == 0 {
			t.Errorf("%s: the signatures refuted no query", name)
		}
	}
	t.Run("testdata", func(t *testing.T) {
		for _, m := range loadTestdataModules(t) {
			checkRefutations(t, m)
		}
	})
	t.Run("recipes", func(t *testing.T) {
		scale := 0.02
		if testing.Short() {
			scale = 0.005
		}
		for _, r := range genbench.Recipes() {
			expect(t, r.Name, genbench.Generate(r, scale))
		}
		for point := 0; point < 3; point++ {
			r := genbench.IndustrialRecipe(point)
			expect(t, fmt.Sprintf("%s point %d", r.Name, point), genbench.Generate(r, scale))
		}
		expect(t, satRecipe.Name, genbench.Generate(satRecipe, 0.25))
	})
	t.Run("random", func(t *testing.T) {
		total := 0
		for seed := int64(0); seed < 60; seed++ {
			total += checkRefutations(t, randomMuxModule(rand.New(rand.NewSource(seed))))
		}
		if total == 0 {
			t.Error("the signatures refuted no query on any random netlist")
		}
	})
	t.Run("handbuilt", func(t *testing.T) {
		// Muxes selected by the constant x: the walk pushes facts on the
		// x bit, which the mask must skip.
		expect(t, "x select", staleXModule(t))
		expect(t, "div exhaustive", divModule(3))
		expect(t, "div sat", unmappableModule(t))
		expect(t, "dff fact", dffFactModule())
	})
}

// FuzzSignatureRefutation checks the same invariant, query by query, on
// random muxtree netlists.
func FuzzSignatureRefutation(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 123} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkRefutations(t, randomMuxModule(rand.New(rand.NewSource(seed))))
	})
}
