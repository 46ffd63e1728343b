package sim

import (
	"testing"

	"repro/internal/rtlil"
)

func states(bits ...int) []rtlil.State {
	out := make([]rtlil.State, len(bits))
	for i, b := range bits {
		switch b {
		case 0:
			out[i] = rtlil.S0
		case 1:
			out[i] = rtlil.S1
		default:
			out[i] = rtlil.Sx
		}
	}
	return out
}

func evalBin(t *testing.T, typ rtlil.CellType, aw, bw, yw int, a, b []rtlil.State) []rtlil.State {
	t.Helper()
	m := rtlil.NewModule("t")
	A := m.AddInput("a", aw).Bits()
	B := m.AddInput("b", bw).Bits()
	Y := m.AddOutput("y", yw).Bits()
	c := m.AddBinary(typ, "g", A, B, Y)
	out, err := EvalCell(c, map[string][]rtlil.State{"A": a, "B": b})
	if err != nil {
		t.Fatalf("EvalCell(%s): %v", typ, err)
	}
	return out
}

func wantStates(t *testing.T, got, want []rtlil.State, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d bits, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g == rtlil.Sz {
			g = rtlil.Sx
		}
		if g != w {
			t.Errorf("%s bit %d: got %s, want %s", what, i, g, w)
		}
	}
}

func TestThreeValuedPrimitives(t *testing.T) {
	type tri struct{ a, b, want rtlil.State }
	andCases := []tri{
		{rtlil.S0, rtlil.Sx, rtlil.S0},
		{rtlil.Sx, rtlil.S0, rtlil.S0},
		{rtlil.S1, rtlil.Sx, rtlil.Sx},
		{rtlil.S1, rtlil.S1, rtlil.S1},
		{rtlil.Sz, rtlil.S1, rtlil.Sx},
	}
	for _, c := range andCases {
		if got := And3(c.a, c.b); got != c.want {
			t.Errorf("And3(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	orCases := []tri{
		{rtlil.S1, rtlil.Sx, rtlil.S1},
		{rtlil.Sx, rtlil.S1, rtlil.S1},
		{rtlil.S0, rtlil.Sx, rtlil.Sx},
		{rtlil.S0, rtlil.S0, rtlil.S0},
	}
	for _, c := range orCases {
		if got := Or3(c.a, c.b); got != c.want {
			t.Errorf("Or3(%s,%s) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	if Xor3(rtlil.S1, rtlil.Sx) != rtlil.Sx || Xor3(rtlil.S1, rtlil.S0) != rtlil.S1 {
		t.Error("Xor3 wrong")
	}
	if Not3(rtlil.Sx) != rtlil.Sx || Not3(rtlil.S0) != rtlil.S1 {
		t.Error("Not3 wrong")
	}
}

func TestMux3XSelectAgreement(t *testing.T) {
	// When S is x but both inputs agree, the output is known.
	if got := Mux3(rtlil.S1, rtlil.S1, rtlil.Sx); got != rtlil.S1 {
		t.Errorf("Mux3(1,1,x) = %s", got)
	}
	if got := Mux3(rtlil.S0, rtlil.S1, rtlil.Sx); got != rtlil.Sx {
		t.Errorf("Mux3(0,1,x) = %s", got)
	}
	if got := Mux3(rtlil.S0, rtlil.S1, rtlil.S1); got != rtlil.S1 {
		t.Errorf("Mux3(0,1,1) = %s", got)
	}
}

func TestEvalAndOrXor(t *testing.T) {
	got := evalBin(t, rtlil.CellAnd, 4, 4, 4, states(1, 1, 0, 2), states(1, 0, 2, 2))
	wantStates(t, got, states(1, 0, 0, 2), "$and")
	got = evalBin(t, rtlil.CellOr, 4, 4, 4, states(1, 0, 0, 2), states(0, 0, 2, 1))
	wantStates(t, got, states(1, 0, 2, 1), "$or")
	got = evalBin(t, rtlil.CellXnor, 2, 2, 2, states(1, 0), states(1, 1))
	wantStates(t, got, states(1, 0), "$xnor")
}

func TestEvalAddSub(t *testing.T) {
	got := evalBin(t, rtlil.CellAdd, 4, 4, 4, states(1, 1, 0, 0), states(1, 0, 0, 0)) // 3+1=4
	wantStates(t, got, states(0, 0, 1, 0), "$add")
	got = evalBin(t, rtlil.CellSub, 4, 4, 4, states(0, 0, 1, 0), states(1, 0, 0, 0)) // 4-1=3
	wantStates(t, got, states(1, 1, 0, 0), "$sub")
	// x in the high bit leaves low bits known.
	got = evalBin(t, rtlil.CellAdd, 4, 4, 4, states(1, 0, 0, 2), states(1, 0, 0, 0))
	wantStates(t, got, states(0, 1, 0, 2), "$add with x MSB")
}

func TestEvalMul(t *testing.T) {
	got := evalBin(t, rtlil.CellMul, 4, 4, 4, states(1, 1, 0, 0), states(0, 1, 0, 0)) // 3*2=6
	wantStates(t, got, states(0, 1, 1, 0), "$mul")
	got = evalBin(t, rtlil.CellMul, 2, 2, 2, states(2, 0), states(1, 0))
	wantStates(t, got, states(2, 2), "$mul with x")
	// A product wider than 64 bits keeps its carries:
	// 64'hffff_ffff_ffff_ffff * 2'd2 = 2^65 - 2.
	got = evalBin(t, rtlil.CellMul, 64, 2, 66, fill(64, rtlil.S1), states(0, 1))
	want := fill(66, rtlil.S1)
	want[0], want[65] = rtlil.S0, rtlil.S0
	wantStates(t, got, want, "$mul into 66 bits")
}

// fill returns n copies of v.
func fill(n int, v rtlil.State) []rtlil.State {
	out := make([]rtlil.State, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestEvalEqStrongRule(t *testing.T) {
	// Defined mismatch forces 0 even with x elsewhere.
	got := evalBin(t, rtlil.CellEq, 3, 3, 1, states(1, 2, 0), states(0, 2, 0))
	wantStates(t, got, states(0), "$eq strong mismatch")
	// Full defined match is 1.
	got = evalBin(t, rtlil.CellEq, 3, 3, 1, states(1, 0, 1), states(1, 0, 1))
	wantStates(t, got, states(1), "$eq match")
	// Only x differences stay x.
	got = evalBin(t, rtlil.CellEq, 2, 2, 1, states(1, 2), states(1, 0))
	wantStates(t, got, states(2), "$eq undecided")
	// $ne is the complement.
	got = evalBin(t, rtlil.CellNe, 3, 3, 1, states(1, 2, 0), states(0, 2, 0))
	wantStates(t, got, states(1), "$ne")
}

func TestEvalCmpIntervals(t *testing.T) {
	// a = 0b0x1 in {1,3}, b = 0b100 = 4: a < b always.
	got := evalBin(t, rtlil.CellLt, 3, 3, 1, states(1, 2, 0), states(0, 0, 1))
	wantStates(t, got, states(1), "$lt determined by bounds")
	// a in {1,3}, b = 2: undecided.
	got = evalBin(t, rtlil.CellLt, 3, 3, 1, states(1, 2, 0), states(0, 1, 0))
	wantStates(t, got, states(2), "$lt undecided")
	got = evalBin(t, rtlil.CellGe, 3, 3, 1, states(1, 2, 0), states(0, 0, 1))
	wantStates(t, got, states(0), "$ge determined")
	got = evalBin(t, rtlil.CellLe, 2, 2, 1, states(1, 0), states(1, 0))
	wantStates(t, got, states(1), "$le equal")
	got = evalBin(t, rtlil.CellGt, 2, 2, 1, states(0, 1), states(1, 0))
	wantStates(t, got, states(1), "$gt")
}

func TestEvalShifts(t *testing.T) {
	got := evalBin(t, rtlil.CellShl, 4, 2, 4, states(1, 0, 1, 0), states(1, 0)) // 0b0101 << 1
	wantStates(t, got, states(0, 1, 0, 1), "$shl")
	got = evalBin(t, rtlil.CellShr, 4, 2, 4, states(0, 1, 0, 1), states(1, 0))
	wantStates(t, got, states(1, 0, 1, 0), "$shr")
	// Shift by more than width → zero.
	got = evalBin(t, rtlil.CellShr, 4, 4, 4, states(1, 1, 1, 1), states(0, 0, 1, 0))
	wantStates(t, got, states(0, 0, 0, 0), "$shr overflow")
	// x shift amount → x.
	got = evalBin(t, rtlil.CellShl, 2, 1, 2, states(1, 0), states(2))
	wantStates(t, got, states(2, 2), "$shl x amount")
	// A set amount bit at or above 64 shifts everything out, as the AIG
	// lowering and Yosys do: 8'hff << 65'h1_0000_0000_0000_0000 = 0.
	amt := fill(65, rtlil.S0)
	amt[64] = rtlil.S1
	for _, typ := range []rtlil.CellType{rtlil.CellShl, rtlil.CellShr} {
		got = evalBin(t, typ, 8, 65, 8, fill(8, rtlil.S1), amt)
		wantStates(t, got, fill(8, rtlil.S0), string(typ)+" by 2^64")
	}
}

func TestEvalUnary(t *testing.T) {
	m := rtlil.NewModule("t")
	A := m.AddInput("a", 3).Bits()
	y1 := m.AddOutput("y1", 3).Bits()
	c := m.AddUnary(rtlil.CellNot, "n", A, y1)
	out, err := EvalCell(c, map[string][]rtlil.State{"A": states(1, 0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	wantStates(t, out, states(0, 1, 2), "$not")

	yr := m.AddOutput("yr", 1).Bits()
	cr := m.AddUnary(rtlil.CellReduceOr, "r", A, yr)
	out, _ = EvalCell(cr, map[string][]rtlil.State{"A": states(0, 2, 1)})
	wantStates(t, out, states(1), "$reduce_or with 1")
	out, _ = EvalCell(cr, map[string][]rtlil.State{"A": states(0, 2, 0)})
	wantStates(t, out, states(2), "$reduce_or undecided")

	yn := m.AddOutput("yn", 1).Bits()
	cn := m.AddUnary(rtlil.CellLogicNot, "ln", A, yn)
	out, _ = EvalCell(cn, map[string][]rtlil.State{"A": states(0, 0, 0)})
	wantStates(t, out, states(1), "$logic_not zero")

	yneg := m.AddOutput("yneg", 3).Bits()
	cneg := m.AddUnary(rtlil.CellNeg, "neg", A, yneg)
	out, _ = EvalCell(cneg, map[string][]rtlil.State{"A": states(1, 0, 0)}) // -1 = 0b111
	wantStates(t, out, states(1, 1, 1), "$neg")
}

func TestEvalMux(t *testing.T) {
	m := rtlil.NewModule("t")
	A := m.AddInput("a", 2).Bits()
	B := m.AddInput("b", 2).Bits()
	S := m.AddInput("s", 1).Bits()
	Y := m.AddOutput("y", 2).Bits()
	c := m.AddMux("mx", A, B, S, Y)
	out, err := EvalCell(c, map[string][]rtlil.State{
		"A": states(1, 0), "B": states(0, 1), "S": states(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	wantStates(t, out, states(1, 0), "$mux S=0 selects A")
	out, _ = EvalCell(c, map[string][]rtlil.State{
		"A": states(1, 0), "B": states(0, 1), "S": states(1),
	})
	wantStates(t, out, states(0, 1), "$mux S=1 selects B")
	out, _ = EvalCell(c, map[string][]rtlil.State{
		"A": states(1, 0), "B": states(1, 1), "S": states(2),
	})
	wantStates(t, out, states(1, 2), "$mux S=x agreement")
}

func TestEvalPmux(t *testing.T) {
	m := rtlil.NewModule("t")
	A := m.AddInput("a", 2).Bits()
	b0 := m.AddInput("b0", 2).Bits()
	b1 := m.AddInput("b1", 2).Bits()
	S := m.AddInput("s", 2).Bits()
	Y := m.AddOutput("y", 2).Bits()
	c := m.AddPmux("p", A, []rtlil.SigSpec{b0, b1}, S, Y)
	in := func(s ...int) map[string][]rtlil.State {
		return map[string][]rtlil.State{
			"A": states(0, 0), "B": states(1, 0, 0, 1), "S": states(s...),
		}
	}
	out, err := EvalCell(c, in(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	wantStates(t, out, states(0, 0), "$pmux default")
	out, _ = EvalCell(c, in(1, 0))
	wantStates(t, out, states(1, 0), "$pmux word 0")
	out, _ = EvalCell(c, in(0, 1))
	wantStates(t, out, states(0, 1), "$pmux word 1")
	out, _ = EvalCell(c, in(1, 1))
	wantStates(t, out, states(2, 2), "$pmux multi-hot is x")
	out, _ = EvalCell(c, in(2, 0))
	wantStates(t, out, states(2, 2), "$pmux unknown select is x")
}

func TestEvalCellSequentialError(t *testing.T) {
	m := rtlil.NewModule("t")
	clk := m.AddInput("clk", 1).Bits()
	d := m.AddInput("d", 1).Bits()
	q := m.AddOutput("q", 1).Bits()
	c := m.AddDff("ff", clk, d, q)
	if _, err := EvalCell(c, nil); err == nil {
		t.Error("EvalCell on $dff succeeded")
	}
}
