package infer

import (
	"testing"

	"repro/internal/rtlil"
)

// want asserts the engine's view of each bit: a defined state means
// "known with that value", Sx means "unknown".
func want(t *testing.T, name string, e *Engine, bits rtlil.SigSpec, vals ...rtlil.State) {
	t.Helper()
	for i, b := range bits {
		got, ok := e.Value(b)
		if vals[i] == rtlil.Sx {
			if ok {
				t.Errorf("%s: %v = %v, want unknown", name, b, got)
			}
			continue
		}
		if !ok || got != vals[i] {
			t.Errorf("%s: %v = %v (known=%v), want %v", name, b, got, ok, vals[i])
		}
	}
}

const (
	s0 = rtlil.S0
	s1 = rtlil.S1
	sx = rtlil.Sx
)

// TestLogicBinBackward covers $logic_and and $logic_or at both output
// values: the output value that pins both operands reduces each to its
// value, the other forces one operand once the other is known.
func TestLogicBinBackward(t *testing.T) {
	build := func(typ rtlil.CellType) (*rtlil.Module, rtlil.SigSpec, rtlil.SigSpec, rtlil.SigBit) {
		m := rtlil.NewModule("m")
		a := m.AddInput("a", 2).Bits()
		b := m.AddInput("b", 3).Bits()
		y := m.AddOutput("y", 1).Bits()
		m.AddBinary(typ, "l", a, b, y)
		return m, a, b, y[0]
	}
	type assume struct {
		sig string // "a", "b" or "y"
		bit int
		v   rtlil.State
	}
	for _, tc := range []struct {
		name         string
		typ          rtlil.CellType
		facts        []assume
		wantA, wantB []rtlil.State
	}{
		// y=1 for && makes both operands nonzero: a single undetermined
		// bit beside known zeros is forced to 1.
		{"and y=1", rtlil.CellLogicAnd,
			[]assume{{"y", 0, s1}, {"a", 0, s0}, {"b", 0, s0}, {"b", 2, s0}},
			[]rtlil.State{s0, s1}, []rtlil.State{s0, s1, s0}},
		// y=0 for && with one operand known nonzero zeroes the other.
		{"and y=0, a nonzero", rtlil.CellLogicAnd,
			[]assume{{"y", 0, s0}, {"a", 1, s1}},
			[]rtlil.State{sx, s1}, []rtlil.State{s0, s0, s0}},
		{"and y=0, b nonzero", rtlil.CellLogicAnd,
			[]assume{{"y", 0, s0}, {"b", 2, s1}},
			[]rtlil.State{s0, s0}, []rtlil.State{sx, sx, s1}},
		// y=0 for || zeroes both operands.
		{"or y=0", rtlil.CellLogicOr,
			[]assume{{"y", 0, s0}},
			[]rtlil.State{s0, s0}, []rtlil.State{s0, s0, s0}},
		// y=1 for || with one operand known zero forces the other's
		// single undetermined bit.
		{"or y=1, a zero", rtlil.CellLogicOr,
			[]assume{{"y", 0, s1}, {"a", 0, s0}, {"a", 1, s0}, {"b", 0, s0}, {"b", 1, s0}},
			[]rtlil.State{s0, s0}, []rtlil.State{s0, s0, s1}},
		{"or y=1, b zero", rtlil.CellLogicOr,
			[]assume{{"y", 0, s1}, {"b", 0, s0}, {"b", 1, s0}, {"b", 2, s0}, {"a", 1, s0}},
			[]rtlil.State{s1, s0}, []rtlil.State{s0, s0, s0}},
		// Two undetermined bits: nothing to force.
		{"or y=1, two free bits", rtlil.CellLogicOr,
			[]assume{{"y", 0, s1}, {"a", 0, s0}, {"a", 1, s0}},
			[]rtlil.State{s0, s0}, []rtlil.State{sx, sx, sx}},
		// An operand already nonzero satisfies the force.
		{"and y=1, a satisfied", rtlil.CellLogicAnd,
			[]assume{{"y", 0, s1}, {"a", 0, s1}, {"b", 1, s1}},
			[]rtlil.State{s1, sx}, []rtlil.State{sx, s1, sx}},
	} {
		m, a, b, y := build(tc.typ)
		e := engineFor(m)
		for _, f := range tc.facts {
			switch f.sig {
			case "a":
				e.Assume(a[f.bit], f.v)
			case "b":
				e.Assume(b[f.bit], f.v)
			default:
				e.Assume(y, f.v)
			}
		}
		if !e.Propagate() {
			t.Errorf("%s: unexpected conflict", tc.name)
			continue
		}
		want(t, tc.name+" a", e, a, tc.wantA...)
		want(t, tc.name+" b", e, b, tc.wantB...)
	}
}

// TestLogicBinConflict: an output the operands cannot produce is a
// conflict, whichever rule sees it first.
func TestLogicBinConflict(t *testing.T) {
	for _, typ := range []rtlil.CellType{rtlil.CellLogicAnd, rtlil.CellLogicOr} {
		m := rtlil.NewModule("m")
		a := m.AddInput("a", 2).Bits()
		b := m.AddInput("b", 2).Bits()
		y := m.AddOutput("y", 1).Bits()
		m.AddBinary(typ, "l", a, b, y)
		e := engineFor(m)
		e.Assume(y[0], s1)
		e.AssumeSig(a, []rtlil.State{s0, s0})
		e.AssumeSig(b, []rtlil.State{s0, s0})
		if e.Propagate() || !e.Conflict() {
			t.Errorf("%s: y=1 with every operand bit 0 is not a conflict", typ)
		}
	}
}

// TestReduceAndForcesSingleBit covers the reduce rule mirrored for
// $reduce_and and $logic_not: y=0 for &a with every other bit 1 forces
// the undetermined bit to 0; !a=0 forces the single free bit of a to 1.
func TestReduceAndForcesSingleBit(t *testing.T) {
	m := rtlil.NewModule("m")
	a := m.AddInput("a", 3).Bits()
	y := m.AddOutput("y", 1).Bits()
	m.AddUnary(rtlil.CellReduceAnd, "r", a, y)
	e := engineFor(m)
	e.Assume(y[0], s0)
	e.AssumeSig(a, []rtlil.State{s1, sx, s1})
	if !e.Propagate() {
		t.Fatal("unexpected conflict")
	}
	want(t, "&a=0", e, a, s1, s0, s1)

	m = rtlil.NewModule("m")
	a = m.AddInput("a", 2).Bits()
	y = m.AddOutput("y", 1).Bits()
	m.AddUnary(rtlil.CellLogicNot, "n", a, y)
	e = engineFor(m)
	e.Assume(y[0], s0)
	e.Assume(a[1], s0)
	if !e.Propagate() {
		t.Fatal("unexpected conflict")
	}
	want(t, "!a=0", e, a, s1, s0)
}

// TestPmuxBackward covers $pmux with one-hot, all-zero and multi-hot
// selects: the known output flows into the selected word, into the
// default when no select is set, and nowhere when several are.
func TestPmuxBackward(t *testing.T) {
	build := func() (*rtlil.Module, rtlil.SigSpec, [2]rtlil.SigSpec, rtlil.SigSpec, rtlil.SigSpec) {
		m := rtlil.NewModule("m")
		a := m.AddInput("a", 2).Bits()
		b0 := m.AddInput("b0", 2).Bits()
		b1 := m.AddInput("b1", 2).Bits()
		s := m.AddInput("s", 2).Bits()
		y := m.AddOutput("y", 2).Bits()
		m.AddPmux("p", a, []rtlil.SigSpec{b0, b1}, s, y)
		return m, a, [2]rtlil.SigSpec{b0, b1}, s, y
	}
	for _, tc := range []struct {
		name                  string
		sel                   []rtlil.State
		wantA, wantB0, wantB1 []rtlil.State
	}{
		{"one-hot s0", []rtlil.State{s1, s0}, []rtlil.State{sx, sx}, []rtlil.State{s1, s0}, []rtlil.State{sx, sx}},
		{"one-hot s1", []rtlil.State{s0, s1}, []rtlil.State{sx, sx}, []rtlil.State{sx, sx}, []rtlil.State{s1, s0}},
		{"all zero", []rtlil.State{s0, s0}, []rtlil.State{s1, s0}, []rtlil.State{sx, sx}, []rtlil.State{sx, sx}},
		{"multi-hot", []rtlil.State{s1, s1}, []rtlil.State{sx, sx}, []rtlil.State{sx, sx}, []rtlil.State{sx, sx}},
		{"select unknown", []rtlil.State{s0, sx}, []rtlil.State{sx, sx}, []rtlil.State{sx, sx}, []rtlil.State{sx, sx}},
	} {
		m, a, b, s, y := build()
		e := engineFor(m)
		e.AssumeSig(y, []rtlil.State{s1, s0})
		e.AssumeSig(s, tc.sel)
		if !e.Propagate() {
			t.Errorf("%s: unexpected conflict", tc.name)
			continue
		}
		want(t, tc.name+" a", e, a, tc.wantA...)
		want(t, tc.name+" b0", e, b[0], tc.wantB0...)
		want(t, tc.name+" b1", e, b[1], tc.wantB1...)
	}
}

// TestAssumeSigAndNumFacts: AssumeSig records only the defined states,
// and NumFacts counts assumptions plus every derived bit value once.
func TestAssumeSigAndNumFacts(t *testing.T) {
	m := rtlil.NewModule("m")
	a := m.AddInput("a", 3).Bits()
	y := m.AddOutput("y", 3).Bits()
	m.AddUnary(rtlil.CellNot, "inv", a, y)
	e := engineFor(m)
	e.AssumeSig(a, []rtlil.State{s1, sx, s0})
	if got := e.NumFacts(); got != 2 {
		t.Fatalf("NumFacts after AssumeSig = %d, want 2", got)
	}
	e.Assume(a[0], s1) // a repeated fact is not a new one
	if !e.Propagate() {
		t.Fatal("unexpected conflict")
	}
	want(t, "y", e, y, s0, sx, s1)
	if got := e.NumFacts(); got != 4 {
		t.Errorf("NumFacts after propagation = %d, want 4", got)
	}
	if vals := e.ValueSig(rtlil.SigSpec{a[1], rtlil.ConstBit(s1)}); vals[0] != sx || vals[1] != s1 {
		t.Errorf("ValueSig = %v, want [x 1]", vals)
	}
	// Assuming a constant against its value is a conflict; Sx is ignored.
	e.Assume(rtlil.ConstBit(s0), s1)
	e.Assume(a[1], sx)
	if !e.Conflict() {
		t.Error("assuming 1'b0 = 1 is not a conflict")
	}
}

// TestUnindexedBits: a bit the index does not number (a wire added
// after NewIndex) still holds an assumed value and conflicts with the
// opposite one; it has no driver or readers to schedule.
func TestUnindexedBits(t *testing.T) {
	m := rtlil.NewModule("m")
	a := m.AddInput("a", 1).Bits()
	y := m.AddOutput("y", 1).Bits()
	m.AddUnary(rtlil.CellNot, "inv", a, y)
	e := engineFor(m)
	late := m.AddWire("late", 1).Bits()
	e.Assume(late[0], s1)
	if !e.Propagate() {
		t.Fatal("unexpected conflict")
	}
	want(t, "late", e, late, s1)
	if e.NumFacts() != 1 {
		t.Errorf("NumFacts = %d, want 1", e.NumFacts())
	}
	e.Assume(late[0], s0)
	if !e.Conflict() {
		t.Error("assuming both values of an unindexed bit is not a conflict")
	}
}
