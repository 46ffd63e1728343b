package opt

import (
	"testing"

	"repro/internal/cec"
	"repro/internal/rtlil"
)

// checkEquiv fails the test if the optimized module is not equivalent to
// the original.
func checkEquiv(t *testing.T, orig, got *rtlil.Module) {
	t.Helper()
	if err := cec.Check(orig, got, nil); err != nil {
		t.Fatalf("optimization broke equivalence: %v", err)
	}
}

func countType(m *rtlil.Module, t rtlil.CellType) int {
	n := 0
	for _, c := range m.Cells() {
		if c.Type == t {
			n++
		}
	}
	return n
}

// TestFigure1 reproduces the paper's Figure 1: Y = S ? (S ? A : B) : C
// must optimize to Y = S ? A : C. This is within the baseline's power.
func TestFigure1(t *testing.T) {
	m := rtlil.NewModule("fig1")
	a := m.AddInput("a", 4).Bits()
	b := m.AddInput("b", 4).Bits()
	c := m.AddInput("c", 4).Bits()
	s := m.AddInput("s", 1).Bits()
	inner := m.Mux(b, a, s) // S ? A : B
	y := m.AddOutput("y", 4).Bits()
	m.AddMux("root", c, inner, s, y) // S ? inner : C
	orig := m.Clone()

	r, err := RunScript(nil, m, MuxtreePass{}, ExprPass{}, CleanPass{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Changed {
		t.Fatal("nothing optimized")
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellMux); got != 1 {
		t.Errorf("muxes after = %d, want 1", got)
	}
	// The surviving mux must read A directly (inner collapsed to A).
	root := m.Cells()[0]
	sm := rtlil.NewSigMap(m)
	if !sm.Map(root.Port("B")).Equal(sm.Map(a)) {
		t.Errorf("root B = %s, want a", root.Port("B"))
	}
}

// TestFigure2 reproduces the paper's Figure 2: Y = S ? (A ? S : B) : C.
// The inner mux's data input S is known 1 on the active path, so it
// becomes A ? 1 : B.
func TestFigure2(t *testing.T) {
	m := rtlil.NewModule("fig2")
	a := m.AddInput("a", 1).Bits()
	b := m.AddInput("b", 1).Bits()
	c := m.AddInput("c", 1).Bits()
	s := m.AddInput("s", 1).Bits()
	inner := m.Mux(b, s, a) // A ? S : B
	y := m.AddOutput("y", 1).Bits()
	m.AddMux("root", c, inner, s, y) // S ? inner : C
	orig := m.Clone()

	if _, err := RunScript(nil, m, MuxtreePass{}, ExprPass{}, CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	// The inner mux's B input (our S-data leg) must now be constant 1.
	var inner2 *rtlil.Cell
	for _, cell := range m.Cells() {
		if cell.Name != "root" && cell.Type == rtlil.CellMux {
			inner2 = cell
		}
	}
	if inner2 == nil {
		t.Fatal("inner mux disappeared (it should only have its data substituted)")
	}
	bp := inner2.Port("B")
	if !bp.IsFullyConst() {
		t.Errorf("inner mux data not substituted: %s", bp)
	}
}

// TestNestedSameControlChain: a 3-deep chain sharing one control must
// collapse to a single mux.
func TestNestedSameControlChain(t *testing.T) {
	m := rtlil.NewModule("chain")
	s := m.AddInput("s", 1).Bits()
	d := make([]rtlil.SigSpec, 4)
	for i := range d {
		d[i] = m.AddInput(string(rune('a'+i)), 2).Bits()
	}
	l1 := m.Mux(d[0], d[1], s)
	l2 := m.Mux(l1, d[2], s)
	l3 := m.Mux(l2, d[3], s)
	y := m.AddOutput("y", 2)
	m.Connect(y.Bits(), l3)
	orig := m.Clone()

	if _, err := RunScript(nil, m, Fixpoint(0, MuxtreePass{}, ExprPass{}, CleanPass{})); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellMux); got != 1 {
		t.Errorf("muxes after = %d, want 1", got)
	}
}

func TestPmuxBranchPruning(t *testing.T) {
	// pmux under a mux: on the taken branch one select bit is known 0.
	m := rtlil.NewModule("pm")
	s := m.AddInput("s", 1).Bits()
	t0 := m.AddInput("t", 1).Bits()
	d := make([]rtlil.SigSpec, 3)
	for i := range d {
		d[i] = m.AddInput(string(rune('a'+i)), 2).Bits()
	}
	// pmux selects: {s, t} — word0 active when s=1, word1 when t=1.
	pm := m.Pmux(d[0], []rtlil.SigSpec{d[1], d[2]}, rtlil.Concat(s, t0))
	// Root: S ? C : pmux — pmux only evaluated when s=0, so its word0
	// (select s) can never fire.
	y := m.AddOutput("y", 2).Bits()
	cIn := m.AddInput("dflt", 2).Bits()
	m.AddMux("root", pm, cIn, s, y)
	orig := m.Clone()

	if _, err := RunScript(nil, m, Fixpoint(0, MuxtreePass{}, ExprPass{}, CleanPass{})); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellPmux); got != 0 {
		t.Errorf("pmux not shrunk away: %d left", got)
	}
}

func TestExprConstFold(t *testing.T) {
	m := rtlil.NewModule("cf")
	a := m.AddInput("a", 4).Bits()
	y := m.AddOutput("y", 4).Bits()
	// (a & 0) | 0b0101 = 0b0101
	and := m.And(a, rtlil.Const(0, 4))
	m.AddBinary(rtlil.CellOr, "or", and, rtlil.Const(5, 4), y)
	orig := m.Clone()
	r, err := RunScript(nil, m, ExprPass{}, CleanPass{})
	if err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if m.NumCells() != 0 {
		t.Errorf("cells left after const fold: %d (%v)", m.NumCells(), r)
	}
}

// TestExprFoldWideOperands: constant folding agrees with the AIG view
// cec checks against on operands past 64 bits: a shift by 2^64 gives
// zero and a 66-bit product keeps its carry into bit 64.
func TestExprFoldWideOperands(t *testing.T) {
	m := rtlil.NewModule("wide")
	ysh := m.AddOutput("ysh", 8).Bits()
	ymul := m.AddOutput("ymul", 66).Bits()
	amt := rtlil.Concat(rtlil.Const(0, 64), rtlil.Const(1, 1)) // 65'h1_0000_0000_0000_0000
	m.AddBinary(rtlil.CellShl, "sh", rtlil.Const(0xff, 8), amt, ysh)
	m.AddBinary(rtlil.CellMul, "mul", rtlil.Const(^uint64(0), 64), rtlil.Const(2, 2), ymul)
	orig := m.Clone()
	if _, err := RunScript(nil, m, ExprPass{}, CleanPass{}); err != nil {
		t.Fatal(err)
	}
	if m.NumCells() != 0 {
		t.Errorf("constant cells not folded: %d left", m.NumCells())
	}
	checkEquiv(t, orig, m)
}

func TestExprIdentity(t *testing.T) {
	m := rtlil.NewModule("id")
	a := m.AddInput("a", 4).Bits()
	y := m.AddOutput("y", 4).Bits()
	// a & 1111 = a
	m.AddBinary(rtlil.CellAnd, "and", a, rtlil.Const(0xf, 4), y)
	orig := m.Clone()
	if _, err := RunScript(nil, m, ExprPass{}, CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if m.NumCells() != 0 {
		t.Error("identity AND not removed")
	}
}

func TestExprMuxConstSelect(t *testing.T) {
	m := rtlil.NewModule("mc")
	a := m.AddInput("a", 2).Bits()
	b := m.AddInput("b", 2).Bits()
	y := m.AddOutput("y", 2).Bits()
	m.AddMux("mx", a, b, rtlil.Const(1, 1), y)
	orig := m.Clone()
	if _, err := RunScript(nil, m, ExprPass{}, CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if m.NumCells() != 0 {
		t.Error("const-select mux not removed")
	}
	sm := rtlil.NewSigMap(m)
	if !sm.Map(y).Equal(sm.Map(b)) {
		t.Error("y not connected to b")
	}
}

func TestExprEqualBranches(t *testing.T) {
	m := rtlil.NewModule("eb")
	a := m.AddInput("a", 2).Bits()
	s := m.AddInput("s", 1).Bits()
	y := m.AddOutput("y", 2).Bits()
	m.AddMux("mx", a, a, s, y)
	orig := m.Clone()
	if _, err := RunScript(nil, m, ExprPass{}, CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if m.NumCells() != 0 {
		t.Error("equal-branch mux not removed")
	}
}

func TestExprPmuxShrink(t *testing.T) {
	m := rtlil.NewModule("ps")
	a := m.AddInput("a", 2).Bits()
	b := m.AddInput("b", 2).Bits()
	c := m.AddInput("c", 2).Bits()
	s := m.AddInput("s", 1).Bits()
	y := m.AddOutput("y", 2).Bits()
	// Word 1's select is constant 0: must be dropped, leaving a $mux.
	m.AddPmux("pm", a, []rtlil.SigSpec{b, c}, rtlil.Concat(s, rtlil.Const(0, 1)), y)
	orig := m.Clone()
	if _, err := RunScript(nil, m, ExprPass{}, CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if countType(m, rtlil.CellPmux) != 0 || countType(m, rtlil.CellMux) != 1 {
		t.Errorf("pmux not shrunk to mux: %d pmux, %d mux",
			countType(m, rtlil.CellPmux), countType(m, rtlil.CellMux))
	}
}

func TestCleanRemovesDeadLogic(t *testing.T) {
	m := rtlil.NewModule("dead")
	a := m.AddInput("a", 2).Bits()
	b := m.AddInput("b", 2).Bits()
	y := m.AddOutput("y", 2).Bits()
	m.AddBinary(rtlil.CellAnd, "live", a, b, y)
	m.Or(a, b)         // dead
	m.Not(m.Xor(a, b)) // dead chain
	r, err := CleanPass{}.Run(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCells() != 1 {
		t.Errorf("cells after clean = %d, want 1 (%v)", m.NumCells(), r)
	}
}

func TestCleanKeepsDffCone(t *testing.T) {
	m := rtlil.NewModule("seq")
	clk := m.AddInput("clk", 1).Bits()
	a := m.AddInput("a", 1).Bits()
	q := m.NewWire(1)
	inv := m.Not(a) // feeds only the dff
	m.AddDff("ff", clk, inv, q.Bits())
	y := m.AddOutput("y", 1)
	m.Connect(y.Bits(), q.Bits())
	if _, err := (CleanPass{}).Run(nil, m); err != nil {
		t.Fatal(err)
	}
	if m.NumCells() != 2 {
		t.Errorf("dff cone removed: %d cells left", m.NumCells())
	}
}

func TestFactOracle(t *testing.T) {
	o := NewFactOracle()
	m := rtlil.NewModule("m")
	w := m.AddWire("w", 2)
	b0, b1 := w.Bit(0), w.Bit(1)
	o.Push(b0, rtlil.S1)
	o.Push(b1, rtlil.S0)
	o.Push(b0, rtlil.S0) // duplicate: first fact wins
	if v, ok := o.Lookup(b0); !ok || v != rtlil.S1 {
		t.Error("duplicate push overwrote fact")
	}
	o.Pop(1) // pops the placeholder
	if v, ok := o.Lookup(b0); !ok || v != rtlil.S1 {
		t.Error("pop of duplicate removed real fact")
	}
	o.Pop(2)
	if _, ok := o.Lookup(b0); ok {
		t.Error("fact survived pop")
	}
	if _, ok := o.Lookup(b1); ok {
		t.Error("fact survived pop")
	}
	// Constants are always known.
	if v, ok := o.Lookup(rtlil.ConstBit(rtlil.S1)); !ok || v != rtlil.S1 {
		t.Error("constant lookup failed")
	}
}

// TestBaselineCannotDoFigure3 documents the baseline's limitation: the
// dependent-control case needs smaRTLy (tested in internal/core).
func TestBaselineCannotDoFigure3(t *testing.T) {
	m := buildFigure3()
	orig := m.Clone()
	if _, err := RunScript(nil, m, Fixpoint(0, MuxtreePass{}, ExprPass{}, CleanPass{})); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellMux); got != 2 {
		t.Errorf("baseline removed the dependent-control mux (muxes=%d); "+
			"the test setup no longer isolates smaRTLy's contribution", got)
	}
}

// buildFigure3 constructs Y = S ? ((S|R) ? A : B) : C (paper Figure 3).
func buildFigure3() *rtlil.Module {
	m := rtlil.NewModule("fig3")
	a := m.AddInput("a", 2).Bits()
	b := m.AddInput("b", 2).Bits()
	c := m.AddInput("c", 2).Bits()
	s := m.AddInput("s", 1).Bits()
	r := m.AddInput("r", 1).Bits()
	or := m.Or(s, r)
	inner := m.Mux(b, a, or) // (S|R) ? A : B
	y := m.AddOutput("y", 2).Bits()
	m.AddMux("root", c, inner, s, y) // S ? inner : C
	return m
}
