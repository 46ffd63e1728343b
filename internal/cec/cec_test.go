package cec

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rtlil"
)

// demorganPair returns two modules computing ~(a&b) two different ways.
func demorganPair() (*rtlil.Module, *rtlil.Module) {
	a := rtlil.NewModule("a")
	{
		x := a.AddInput("x", 4).Bits()
		y := a.AddInput("y", 4).Bits()
		out := a.AddOutput("out", 4)
		a.Connect(out.Bits(), a.Not(a.And(x, y)))
	}
	b := rtlil.NewModule("b")
	{
		x := b.AddInput("x", 4).Bits()
		y := b.AddInput("y", 4).Bits()
		out := b.AddOutput("out", 4)
		b.Connect(out.Bits(), b.Or(b.Not(x), b.Not(y)))
	}
	return a, b
}

func TestEquivalentDeMorgan(t *testing.T) {
	a, b := demorganPair()
	if err := Check(a, b, nil); err != nil {
		t.Fatalf("De Morgan pair reported different: %v", err)
	}
}

func TestNotEquivalentCaughtBySim(t *testing.T) {
	a, _ := demorganPair()
	b := rtlil.NewModule("b")
	x := b.AddInput("x", 4).Bits()
	y := b.AddInput("y", 4).Bits()
	out := b.AddOutput("out", 4)
	b.Connect(out.Bits(), b.And(x, y)) // missing the NOT
	err := Check(a, b, nil)
	var ne *NotEquivalentError
	if !errors.As(err, &ne) {
		t.Fatalf("want NotEquivalentError, got %v", err)
	}
	if len(ne.Inputs) != 8 {
		t.Errorf("counterexample has %d inputs, want 8", len(ne.Inputs))
	}
	if !strings.Contains(ne.Error(), "out:") {
		t.Errorf("error message lacks output name: %s", ne.Error())
	}
}

// magicPair returns a mismatch so narrow random simulation is unlikely
// to find it: the modules differ only when a 32-bit input is exactly a
// magic constant.
func magicPair() (*rtlil.Module, *rtlil.Module) {
	build := func(diff bool) *rtlil.Module {
		m := rtlil.NewModule("m")
		x := m.AddInput("x", 32).Bits()
		out := m.AddOutput("out", 1)
		hit := m.Eq(x, rtlil.Const(0xdeadbeef, 32))
		if diff {
			m.Connect(out.Bits(), hit)
		} else {
			m.Connect(out.Bits(), rtlil.Const(0, 1))
		}
		return m
	}
	return build(true), build(false)
}

func TestNotEquivalentNeedsSAT(t *testing.T) {
	a, b := magicPair()
	err := Check(a, b, &Options{RandomRounds: 1})
	var ne *NotEquivalentError
	if !errors.As(err, &ne) {
		t.Fatalf("want NotEquivalentError, got %v", err)
	}
	// The counterexample must set x = 0xdeadbeef.
	var v uint64
	for i := 0; i < 32; i++ {
		key := "in:x[" + itoa(i) + "]"
		if ne.Inputs[key] {
			v |= 1 << uint(i)
		}
	}
	if v != 0xdeadbeef {
		t.Errorf("counterexample x = %#x, want 0xdeadbeef", v)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestInterfaceMismatch(t *testing.T) {
	a := rtlil.NewModule("a")
	a.AddInput("x", 2)
	a.AddOutput("y", 1)
	b := rtlil.NewModule("b")
	b.AddInput("x", 3) // different width
	b.AddOutput("y", 1)
	if err := Check(a, b, nil); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Errorf("interface mismatch not reported: %v", err)
	}
}

// flopModule returns a register whose next state is a mux; unoptimized,
// both mux branches pass through an extra identity mux.
func flopModule(optimized bool) *rtlil.Module {
	m := rtlil.NewModule("m")
	clk := m.AddInput("clk", 1).Bits()
	d := m.AddInput("d", 2).Bits()
	s := m.AddInput("s", 1).Bits()
	q := m.NewWire(2)
	var next rtlil.SigSpec
	if optimized {
		next = m.Mux(d, q.Bits(), s)
	} else {
		mid := m.Mux(d, d, s)
		next = m.Mux(mid, q.Bits(), s)
	}
	m.AddDff("state", clk, next, q.Bits())
	y := m.AddOutput("y", 2)
	m.Connect(y.Bits(), q.Bits())
	return m
}

// invertedD returns m with the flip-flop state's D inverted.
func invertedD(m *rtlil.Module) *rtlil.Module {
	ff := m.Cell("state")
	ff.SetPort("D", m.Not(ff.Port("D")))
	return m
}

func TestSequentialCut(t *testing.T) {
	if err := Check(flopModule(false), flopModule(true), nil); err != nil {
		t.Fatalf("equivalent sequential designs reported different: %v", err)
	}
	// Now a real sequential difference: invert D.
	a := flopModule(true)
	b := invertedD(flopModule(true))
	err := Check(a, b, nil)
	var ne *NotEquivalentError
	if !errors.As(err, &ne) {
		t.Fatalf("sequential difference missed: %v", err)
	}
	if !strings.Contains(ne.Output, "ff:state.D") {
		t.Errorf("mismatch should be on the dff D point, got %s", ne.Output)
	}
}

func TestRandomSelfEquivalence(t *testing.T) {
	// Any module is equivalent to its own clone.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		m := randomModule(rng)
		if err := Check(m, m.Clone(), &Options{RandomRounds: 1}); err != nil {
			t.Fatalf("trial %d: module differs from clone: %v", trial, err)
		}
	}
}

func randomModule(rng *rand.Rand) *rtlil.Module {
	m := rtlil.NewModule("r")
	sigs := []rtlil.SigSpec{
		m.AddInput("a", 3).Bits(),
		m.AddInput("b", 3).Bits(),
		m.AddInput("c", 1).Bits(),
	}
	pick := func() rtlil.SigSpec { return sigs[rng.Intn(len(sigs))] }
	for i := 0; i < 8; i++ {
		switch rng.Intn(5) {
		case 0:
			sigs = append(sigs, m.And(pick(), pick()))
		case 1:
			sigs = append(sigs, m.Or(pick(), pick()))
		case 2:
			sigs = append(sigs, m.Mux(pick(), pick(), pick().Extract(0, 1)))
		case 3:
			sigs = append(sigs, m.AddOp(pick(), pick()))
		case 4:
			sigs = append(sigs, m.Eq(pick(), pick()))
		}
	}
	last := sigs[len(sigs)-1]
	y := m.AddOutput("y", len(last))
	m.Connect(y.Bits(), last)
	return m
}

// TestCheckUnmappable: a cell the AIG mapper cannot encode is an error
// before simulation runs, never a verdict, even where simulation alone
// would refute the pair (as the reference checker does).
func TestCheckUnmappable(t *testing.T) {
	build := func(invert bool) *rtlil.Module {
		m := rtlil.NewModule("div")
		x := m.AddInput("x", 3).Bits()
		y := m.AddInput("y", 3).Bits()
		q := m.NewWire(3)
		m.AddBinary(rtlil.CellDiv, "div", x, y, q.Bits())
		o := m.AddOutput("o", 3)
		if invert {
			m.Connect(o.Bits(), m.Not(q.Bits()))
		} else {
			m.Connect(o.Bits(), q.Bits())
		}
		return m
	}
	a, b := build(false), build(true)
	err := Check(a, b, nil)
	if err == nil || !strings.Contains(err.Error(), "cec: mapping div") {
		t.Fatalf("verdict = %v, want the mapping error", err)
	}
	if errors.As(err, new(*NotEquivalentError)) {
		t.Fatalf("unmappable pair got a counterexample: %v", err)
	}
	if !errors.As(refCheck(a, b, nil), new(*NotEquivalentError)) {
		t.Fatalf("reference checker no longer refutes the pair by simulation")
	}
}

// FuzzCheck compares Check with the reference checker (DiffCheck) on
// random pairs: a random module against its clone, against a copy with
// one cell's output inverted, and against a second random module.
func FuzzCheck(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		m := randomModule(rng)
		for _, p := range []CheckPair{
			{"clone", m, m.Clone()},
			{"inverted", m, invertedCell(m.Clone(), rng)},
			{"other", m, randomModule(rng)},
		} {
			if _, _, diff := DiffCheck(p.A, p.B, nil); diff != "" {
				t.Fatalf("seed %d, %s: %s", seed, p.Name, diff)
			}
		}
	})
}
