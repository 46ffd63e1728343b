package core

import (
	"testing"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/opt"
	"repro/internal/rtlil"
)

func checkEquiv(t *testing.T, orig, got *rtlil.Module) {
	t.Helper()
	if err := cec.Check(orig, got, nil); err != nil {
		t.Fatalf("optimization broke equivalence: %v", err)
	}
}

// namedFlow returns a registered named flow, which runs on a module like
// any pass.
func namedFlow(t *testing.T, name string) *opt.Flow {
	t.Helper()
	f, err := opt.NamedFlow(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func countType(m *rtlil.Module, ct rtlil.CellType) int {
	n := 0
	for _, c := range m.Cells() {
		if c.Type == ct {
			n++
		}
	}
	return n
}

func area(t *testing.T, m *rtlil.Module) int {
	t.Helper()
	a, err := aig.Area(m)
	if err != nil {
		t.Fatal(err)
	}
	return a
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

// TestFigure3 is the paper's flagship example for SAT-based redundancy
// elimination: Y = S ? ((S|R) ? A : B) : C must become Y = S ? A : C,
// which the Yosys baseline cannot do (control signals differ).
func TestFigure3(t *testing.T) {
	m := buildFigure3()
	orig := m.Clone()
	pass := &SatMuxPass{}
	if _, err := opt.RunScript(nil, m, pass, opt.ExprPass{}, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellMux); got != 1 {
		t.Fatalf("muxes after satmux = %d, want 1 (stats: %s)", got, pass.LastStats)
	}
	// The surviving mux must select A directly.
	var root *rtlil.Cell
	for _, c := range m.Cells() {
		if c.Type == rtlil.CellMux {
			root = c
		}
	}
	sm := rtlil.NewSigMap(m)
	if !sm.Map(root.Port("B")).Equal(sm.Map(m.Wire("a").Bits())) {
		t.Errorf("root B = %s, want a", root.Port("B"))
	}
	if pass.LastStats.InferenceHits == 0 && pass.LastStats.SimHits == 0 && pass.LastStats.SATHits == 0 {
		t.Error("no oracle mechanism fired")
	}
}

// TestFigure3ByInferenceOnly: the inference rules alone (no SAT, no
// simulation) must already resolve Figure 3, per the paper's point that
// straightforward inferences reduce unknown signals.
func TestFigure3ByInferenceOnly(t *testing.T) {
	m := buildFigure3()
	orig := m.Clone()
	pass := &SatMuxPass{Opts: SatMuxOptions{DisableSAT: true}}
	if _, err := opt.RunScript(nil, m, pass, opt.ExprPass{}, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellMux); got != 1 {
		t.Errorf("inference-only left %d muxes, want 1", got)
	}
	if pass.LastStats.InferenceHits == 0 {
		t.Error("inference did not fire")
	}
}

// TestAndDependentControl: Y = S ? ((S&R) ? A : B) : C — on the S=1
// path, S&R is not determined (depends on R), but on deeper nesting
// (S&R)=1 implies S=1. Check satmux handles the implication direction
// that IS valid: Y = (S&R) ? (S ? A : B) : C collapses to (S&R) ? A : C.
func TestAndDependentControl(t *testing.T) {
	m := rtlil.NewModule("and_dep")
	a := m.AddInput("a", 2).Bits()
	b := m.AddInput("b", 2).Bits()
	c := m.AddInput("c", 2).Bits()
	s := m.AddInput("s", 1).Bits()
	r := m.AddInput("r", 1).Bits()
	and := m.And(s, r)
	inner := m.Mux(b, a, s) // S ? A : B
	y := m.AddOutput("y", 2).Bits()
	m.AddMux("root", c, inner, and, y) // (S&R) ? inner : C
	orig := m.Clone()

	if _, err := opt.RunScript(nil, m, &SatMuxPass{}, opt.ExprPass{}, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellMux); got != 1 {
		t.Errorf("muxes = %d, want 1", got)
	}
}

// TestSatMuxNeedsSAT builds a relation the rule engine cannot see
// locally: the control equals eq(x, 5) and the path guarantees x == 5
// through an independent comparison chain, requiring real sub-graph
// reasoning (simulation or SAT over the x cone).
func TestSatMuxNeedsSAT(t *testing.T) {
	m := rtlil.NewModule("needsat")
	x := m.AddInput("x", 3).Bits()
	a := m.AddInput("a", 2).Bits()
	b := m.AddInput("b", 2).Bits()
	c := m.AddInput("c", 2).Bits()
	// outer control: x < 2 (i.e. x in {0,1}); inner control: x == 5.
	// On the outer-true path x<2 holds, so x==5 is impossible: the
	// inner mux always takes B.
	lt := m.Lt(x, rtlil.Const(2, 3))
	eq5 := m.Eq(x, rtlil.Const(5, 3))
	inner := m.Mux(b, a, eq5) // eq5 ? a : b
	y := m.AddOutput("y", 2).Bits()
	m.AddMux("root", c, inner, lt, y) // lt ? inner : c
	orig := m.Clone()

	pass := &SatMuxPass{}
	if _, err := opt.RunScript(nil, m, pass, opt.ExprPass{}, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellMux); got != 1 {
		t.Errorf("muxes = %d, want 1 (stats: %s)", got, pass.LastStats)
	}
	if pass.LastStats.SimHits == 0 && pass.LastStats.SATHits == 0 {
		t.Errorf("expected simulation or SAT to resolve the query: %s", pass.LastStats)
	}
}

// TestSatMuxForcesSATPath drives the same circuit through the SAT stage
// by setting SimInputLimit to zero.
func TestSatMuxForcesSATPath(t *testing.T) {
	m := rtlil.NewModule("needsat2")
	x := m.AddInput("x", 3).Bits()
	a := m.AddInput("a", 2).Bits()
	b := m.AddInput("b", 2).Bits()
	c := m.AddInput("c", 2).Bits()
	lt := m.Lt(x, rtlil.Const(2, 3))
	eq5 := m.Eq(x, rtlil.Const(5, 3))
	inner := m.Mux(b, a, eq5)
	y := m.AddOutput("y", 2).Bits()
	m.AddMux("root", c, inner, lt, y)
	orig := m.Clone()

	pass := &SatMuxPass{Opts: SatMuxOptions{SimInputLimit: -1}}
	if _, err := opt.RunScript(nil, m, pass, opt.ExprPass{}, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellMux); got != 1 {
		t.Errorf("muxes = %d, want 1 (stats: %s)", got, pass.LastStats)
	}
	if pass.LastStats.SATHits == 0 {
		t.Errorf("SAT stage did not fire: %s", pass.LastStats)
	}
}

// TestUnreachableBranchCollapses: contradictory nested controls make the
// deeper path unreachable; satmux may resolve the inner mux arbitrarily
// and the result must still be equivalent.
func TestUnreachableBranch(t *testing.T) {
	m := rtlil.NewModule("unreach")
	a := m.AddInput("a", 1).Bits()
	b := m.AddInput("b", 1).Bits()
	c := m.AddInput("c", 1).Bits()
	s := m.AddInput("s", 1).Bits()
	ns := m.Not(s)
	// root: s ? (ns ? a : b) : c — on the taken path ns=0 always.
	inner := m.Mux(b, a, ns)
	y := m.AddOutput("y", 1).Bits()
	m.AddMux("root", c, inner, s, y)
	orig := m.Clone()
	if _, err := opt.RunScript(nil, m, &SatMuxPass{}, opt.ExprPass{}, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellMux); got != 1 {
		t.Errorf("muxes = %d, want 1", got)
	}
}

// buildListing1 builds the paper's Listing 1 as the chain of Figure 5:
// eq gates against 2'b00, 2'b01, 2'b10 and a default.
func buildListing1() *rtlil.Module {
	m := rtlil.NewModule("listing1")
	s := m.AddInput("s", 2).Bits()
	p := make([]rtlil.SigSpec, 4)
	for i := range p {
		p[i] = m.AddInput([]string{"p0", "p1", "p2", "p3"}[i], 4).Bits()
	}
	eq0 := m.Eq(s, rtlil.Const(0, 2))
	eq1 := m.Eq(s, rtlil.Const(1, 2))
	eq2 := m.Eq(s, rtlil.Const(2, 2))
	// Chain (Figure 5): innermost first.
	t2 := m.Mux(p[3], p[2], eq2)
	t1 := m.Mux(t2, p[1], eq1)
	t0 := m.Mux(t1, p[0], eq0)
	y := m.AddOutput("y", 4)
	m.Connect(y.Bits(), t0)
	return m
}

// TestListing1Rebuild reproduces Figures 5→7: the 3-mux/3-eq chain is
// rebuilt into 3 muxes controlled directly by the selector bits, and the
// eq gates disappear.
func TestListing1Rebuild(t *testing.T) {
	m := buildListing1()
	orig := m.Clone()
	areaBefore := area(t, m)

	pass := &RebuildPass{}
	if _, err := opt.RunScript(nil, m, pass, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if pass.LastStats.TreesRebuilt != 1 {
		t.Fatalf("trees rebuilt = %d, want 1 (%+v)", pass.LastStats.TreesRebuilt, pass.LastStats)
	}
	if got := countType(m, rtlil.CellEq); got != 0 {
		t.Errorf("eq gates left = %d, want 0", got)
	}
	if got := countType(m, rtlil.CellMux); got != 3 {
		t.Errorf("muxes = %d, want 3", got)
	}
	areaAfter := area(t, m)
	if areaAfter >= areaBefore {
		t.Errorf("area did not shrink: %d -> %d", areaBefore, areaAfter)
	}
}

// TestListing2Rebuild: the casez-style chain (1zz / 01z / 001) rebuilds
// into 3 muxes with the greedy assignment.
func TestListing2Rebuild(t *testing.T) {
	m := rtlil.NewModule("listing2")
	s := m.AddInput("s", 3).Bits()
	p := make([]rtlil.SigSpec, 4)
	for i := range p {
		p[i] = m.AddInput([]string{"p0", "p1", "p2", "p3"}[i], 2).Bits()
	}
	// casez rows: 3'b1zz → eq(s[2],1); 3'b01z → eq(s[2:1], 01);
	// 3'b001 → eq(s, 001).
	c0 := rtlil.SigSpec{s[2]} // raw bit used as control
	c1 := m.Eq(rtlil.Concat(rtlil.SigSpec{s[1]}, rtlil.SigSpec{s[2]}), rtlil.Const(1, 2))
	c2 := m.Eq(s, rtlil.Const(1, 3))
	t2 := m.Mux(p[3], p[2], c2)
	t1 := m.Mux(t2, p[1], c1)
	t0 := m.Mux(t1, p[0], c0)
	y := m.AddOutput("y", 2)
	m.Connect(y.Bits(), t0)
	orig := m.Clone()

	pass := &RebuildPass{}
	if _, err := opt.RunScript(nil, m, pass, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if pass.LastStats.TreesRebuilt != 1 {
		t.Fatalf("trees rebuilt = %d (%+v)", pass.LastStats.TreesRebuilt, pass.LastStats)
	}
	if got := countType(m, rtlil.CellMux); got != 3 {
		t.Errorf("muxes = %d, want 3 (the greedy assignment)", got)
	}
	if got := countType(m, rtlil.CellEq); got != 0 {
		t.Errorf("eq gates left = %d", got)
	}
}

// TestRebuildPmuxCase: a one-hot pmux from a parallel case statement.
func TestRebuildPmuxCase(t *testing.T) {
	m := rtlil.NewModule("pmuxcase")
	s := m.AddInput("s", 2).Bits()
	p := make([]rtlil.SigSpec, 4)
	for i := range p {
		p[i] = m.AddInput([]string{"p0", "p1", "p2", "p3"}[i], 8).Bits()
	}
	var conds []rtlil.SigSpec
	for i := 0; i < 3; i++ {
		conds = append(conds, m.Eq(s, rtlil.Const(uint64(i), 2)))
	}
	pm := m.Pmux(p[3], []rtlil.SigSpec{p[0], p[1], p[2]}, rtlil.Concat(conds...))
	y := m.AddOutput("y", 8)
	m.Connect(y.Bits(), pm)
	orig := m.Clone()
	areaBefore := area(t, m)

	pass := &RebuildPass{}
	if _, err := opt.RunScript(nil, m, pass, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if pass.LastStats.TreesRebuilt != 1 {
		t.Fatalf("pmux tree not rebuilt (%+v)", pass.LastStats)
	}
	if got := countType(m, rtlil.CellEq); got != 0 {
		t.Errorf("eq gates left = %d", got)
	}
	if areaAfter := area(t, m); areaAfter >= areaBefore {
		t.Errorf("area did not shrink: %d -> %d", areaBefore, areaAfter)
	}
}

// TestRebuildCostModelDeclines: when the eq gates have other fanout the
// rebuild gains nothing and must be declined.
func TestRebuildCostModelDeclines(t *testing.T) {
	m := rtlil.NewModule("decline")
	s := m.AddInput("s", 2).Bits()
	p0 := m.AddInput("p0", 1).Bits()
	p1 := m.AddInput("p1", 1).Bits()
	eq0 := m.Eq(s, rtlil.Const(0, 2))
	mx := m.Mux(p1, p0, eq0)
	y := m.AddOutput("y", 2)
	// eq0 also feeds the second output bit: it cannot be removed.
	m.Connect(y.Bits(), rtlil.Concat(mx, eq0))

	pass := &RebuildPass{}
	if _, err := pass.Run(nil, m); err != nil {
		t.Fatal(err)
	}
	if pass.LastStats.TreesRebuilt != 0 {
		t.Errorf("rebuild accepted a losing tree (%+v)", pass.LastStats)
	}
}

// TestRebuildSkipsMultiSelector: controls comparing different wires
// violate SingleCtrl and must be skipped.
func TestRebuildSkipsMultiSelector(t *testing.T) {
	m := rtlil.NewModule("multi")
	s := m.AddInput("s", 2).Bits()
	u := m.AddInput("u", 2).Bits()
	p := make([]rtlil.SigSpec, 3)
	for i := range p {
		p[i] = m.AddInput([]string{"p0", "p1", "p2"}[i], 2).Bits()
	}
	e0 := m.Eq(s, rtlil.Const(0, 2))
	e1 := m.Eq(u, rtlil.Const(1, 2)) // different selector wire
	t1 := m.Mux(p[2], p[1], e1)
	t0 := m.Mux(t1, p[0], e0)
	y := m.AddOutput("y", 2)
	m.Connect(y.Bits(), t0)

	pass := &RebuildPass{Opts: RebuildOptions{Force: true}}
	if _, err := pass.Run(nil, m); err != nil {
		t.Fatal(err)
	}
	if pass.LastStats.TreesEligible != 0 {
		t.Errorf("multi-selector tree treated as eligible (%+v)", pass.LastStats)
	}
}

// TestFullPipelineCombination: a circuit with both a dependent-control
// redundancy and a rebuildable case chain; the full pipeline must beat
// both single-technique pipelines, mirroring Table III's "Full >= SAT,
// Rebuild".
func TestFullPipelineCombination(t *testing.T) {
	build := func() *rtlil.Module {
		m := rtlil.NewModule("combo")
		s := m.AddInput("s", 2).Bits()
		r := m.AddInput("r", 1).Bits()
		g := m.AddInput("g", 1).Bits()
		p := make([]rtlil.SigSpec, 4)
		for i := range p {
			p[i] = m.AddInput([]string{"p0", "p1", "p2", "p3"}[i], 4).Bits()
		}
		// Case chain over s.
		eq0 := m.Eq(s, rtlil.Const(0, 2))
		eq1 := m.Eq(s, rtlil.Const(1, 2))
		eq2 := m.Eq(s, rtlil.Const(2, 2))
		t2 := m.Mux(p[3], p[2], eq2)
		t1 := m.Mux(t2, p[1], eq1)
		caseOut := m.Mux(t1, p[0], eq0)
		// Dependent-control nest over g, g|r.
		or := m.Or(g, r)
		inner := m.Mux(p[1], caseOut, or)
		y := m.AddOutput("y", 4).Bits()
		m.AddMux("root", p[0], inner, g, y)
		return m
	}

	areas := map[string]int{}
	for _, name := range []string{"yosys", "sat", "rebuild", "full"} {
		m := build()
		orig := m.Clone()
		if _, err := namedFlow(t, name).Run(nil, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkEquiv(t, orig, m)
		areas[name] = area(t, m)
	}
	if !(areas["full"] <= areas["sat"] && areas["full"] <= areas["rebuild"]) {
		t.Errorf("full=%d should be <= sat=%d and rebuild=%d", areas["full"], areas["sat"], areas["rebuild"])
	}
	if !(areas["sat"] < areas["yosys"]) {
		t.Errorf("sat=%d should beat yosys=%d on this circuit", areas["sat"], areas["yosys"])
	}
	if !(areas["rebuild"] < areas["yosys"]) {
		t.Errorf("rebuild=%d should beat yosys=%d on this circuit", areas["rebuild"], areas["yosys"])
	}
}
