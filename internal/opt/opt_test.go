package opt

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cec"
	"repro/internal/rtlil"
	"repro/internal/verilog"
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

// TestPathFacts: a repeated push keeps the first value, and every pop
// undoes exactly its own push, on the constant x bit too; after every
// step of a random push/pop sequence the facts are the live set, sorted.
func TestPathFacts(t *testing.T) {
	m := rtlil.NewModule("m")
	// Wires made out of name order: the facts sort by name, not by
	// creation.
	wb := m.AddWire("b", 2)
	wa := m.AddWire("a", 3)
	x := rtlil.ConstBit(rtlil.Sx)

	var f PathFacts
	f.Push(wa.Bit(1), rtlil.S1)
	f.Push(wb.Bit(0), rtlil.S0)
	f.Push(wa.Bit(1), rtlil.S0) // repeat: the first value stays
	if v, ok := f.Lookup(wa.Bit(1)); !ok || v != rtlil.S1 {
		t.Errorf("after a repeated push: %v %v, want the first value 1", v, ok)
	}
	f.Pop(1)
	if v, ok := f.Lookup(wa.Bit(1)); !ok || v != rtlil.S1 {
		t.Errorf("after popping the repeat: %v %v, want 1", v, ok)
	}
	f.Pop(2)
	if len(f.Bits()) != 0 || len(f.States()) != 0 {
		t.Errorf("facts survived their pops: %v %v", f.Bits(), f.States())
	}
	// A fact on the constant x bit, which the walk pushes for an x
	// select, goes with its pop like any other.
	f.Push(x, rtlil.S1)
	f.Push(x, rtlil.S0)
	if v, ok := f.Lookup(x); !ok || v != rtlil.S1 {
		t.Errorf("x fact: %v %v, want 1", v, ok)
	}
	f.Pop(2)
	if v, ok := f.Lookup(x); ok {
		t.Errorf("x fact survived its pop: %v", v)
	}
	// Constants 0 and 1 are always known.
	if v, ok := f.Lookup(rtlil.ConstBit(rtlil.S1)); !ok || v != rtlil.S1 {
		t.Error("constant lookup failed")
	}

	// Random nested pushes and pops against a model. pool lists every
	// bit in fact order: constants by value, then wires by name and
	// offset.
	var pool []rtlil.SigBit
	for _, st := range []rtlil.State{rtlil.S0, rtlil.S1, rtlil.Sx, rtlil.Sz} {
		pool = append(pool, rtlil.ConstBit(st))
	}
	pool = append(pool, wa.Bits()...)
	pool = append(pool, wb.Bits()...)
	rng := rand.New(rand.NewSource(7))
	live := map[rtlil.SigBit]rtlil.State{}
	type push struct {
		bit   rtlil.SigBit
		added bool
	}
	var pushed []push
	for step := 0; step < 2000; step++ {
		if len(pushed) > 0 && rng.Intn(2) == 0 {
			n := 1 + rng.Intn(len(pushed))
			f.Pop(n)
			for ; n > 0; n-- {
				if p := pushed[len(pushed)-1]; p.added {
					delete(live, p.bit)
				}
				pushed = pushed[:len(pushed)-1]
			}
		} else {
			b, v := pool[rng.Intn(len(pool))], rtlil.BoolState(rng.Intn(2) == 1)
			f.Push(b, v)
			_, dup := live[b]
			if !dup {
				live[b] = v
			}
			pushed = append(pushed, push{b, !dup})
		}
		var want []rtlil.SigBit
		var wantVals []rtlil.State
		for _, b := range pool {
			if v, ok := live[b]; ok {
				want = append(want, b)
				wantVals = append(wantVals, v)
			}
		}
		if !slices.Equal(f.Bits(), want) || !slices.Equal(f.States(), wantVals) {
			t.Fatalf("step %d: facts %v = %v, want %v = %v", step, f.Bits(), f.States(), want, wantVals)
		}
	}
}

// staleXSource selects two muxes by the constant x. The walk enters
// o1's B child, the mux driving c1, under the fact x=1; o2's mux sits in
// another tree, so that fact must be gone when the walk reaches it. The
// AIG mapping and cec read x as 0: collapsing o2's mux to b2 changes o2.
const staleXSource = `
module stalex(input a, input c, input d, input y, input a2, input b2, output o1, output o2);
  wire c1;
  assign c1 = y ? d : c;
  assign o1 = 1'bx ? c1 : a;
  assign o2 = 1'bx ? b2 : a2;
endmodule
`

// TestMuxtreeXFactScoped: a path fact on the constant x bit ends with
// the subtree that pushed it.
func TestMuxtreeXFactScoped(t *testing.T) {
	f, err := verilog.Parse(staleXSource)
	if err != nil {
		t.Fatal(err)
	}
	m, err := verilog.ElaborateModule(f.Modules[0])
	if err != nil {
		t.Fatal(err)
	}
	orig := m.Clone()
	if _, err := (MuxtreePass{}).Run(nil, m); err != nil {
		t.Fatal(err)
	}
	ix := rtlil.NewIndex(m)
	if d := ix.DriverCell(m.Wire("o2").Bit(0)); d == nil || d.Type != rtlil.CellMux {
		t.Error("o2's mux collapsed under a fact from o1's tree")
	}
	checkEquiv(t, orig, m)
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
