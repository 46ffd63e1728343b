// Inference demonstrates the machinery behind smaRTLy's SAT-based
// redundancy elimination (§II): the Table I inference rules resolve the
// Figure 3 dependency without any SAT call, while an arithmetic
// dependency (x < 2 vs x == 5) needs the sub-graph + simulation/SAT
// stage. The oracle statistics show which mechanism fired.
//
// Run with: go run ./examples/inference
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/opt"
	"repro/internal/rtlil"
)

func main() {
	// --- Inference rules in isolation (paper Table I) -----------------
	m := rtlil.NewModule("rules")
	s := m.AddInput("s", 1)
	r := m.AddInput("r", 1)
	or := m.Or(s.Bits(), r.Bits())
	y := m.AddOutput("y", 1)
	m.Connect(y.Bits(), or)

	eng := infer.New(rtlil.NewIndex(m), nil)
	eng.Assume(s.Bit(0), rtlil.S1)
	eng.Propagate()
	v, known := eng.Value(or[0])
	fmt.Printf("assume s=1: engine infers s|r = %v (known=%v)\n", v, known)

	// --- Figure 3: resolved by inference alone ------------------------
	// The oracle's stages run cheapest first, so the counters show the
	// rules deciding every query before simulation or SAT could run.
	fig3 := buildFigure3()
	pass := &core.SatMuxPass{}
	if _, err := opt.RunScript(nil, fig3, pass, opt.ExprPass{}, opt.CleanPass{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("figure 3, inference decides: %s\n", pass.LastStats)

	// --- Arithmetic dependency: needs simulation or SAT ---------------
	hard := buildArithDependency()
	pass2 := &core.SatMuxPass{Opts: core.SatMuxOptions{SimInputLimit: -1}} // force SAT
	if _, err := opt.RunScript(nil, hard, pass2, opt.ExprPass{}, opt.CleanPass{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("x<2 vs x==5, SAT forced:     %s\n", pass2.LastStats)

	hard2 := buildArithDependency()
	pass3 := &core.SatMuxPass{} // default: exhaustive simulation (few inputs)
	if _, err := opt.RunScript(nil, hard2, pass3, opt.ExprPass{}, opt.CleanPass{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("x<2 vs x==5, sim preferred:  %s\n", pass3.LastStats)
}

// buildFigure3 constructs Y = S ? ((S|R) ? A : B) : C.
func buildFigure3() *rtlil.Module {
	m := rtlil.NewModule("fig3")
	a := m.AddInput("a", 4).Bits()
	b := m.AddInput("b", 4).Bits()
	c := m.AddInput("c", 4).Bits()
	s := m.AddInput("s", 1).Bits()
	r := m.AddInput("r", 1).Bits()
	inner := m.Mux(b, a, m.Or(s, r))
	y := m.AddOutput("y", 4).Bits()
	m.AddMux("root", c, inner, s, y)
	return m
}

// buildArithDependency constructs lt ? (eq5 ? a : b) : c where lt = x<2
// and eq5 = x==5: on the taken path eq5 can never hold.
func buildArithDependency() *rtlil.Module {
	m := rtlil.NewModule("arith")
	x := m.AddInput("x", 3).Bits()
	a := m.AddInput("a", 4).Bits()
	b := m.AddInput("b", 4).Bits()
	c := m.AddInput("c", 4).Bits()
	lt := m.Lt(x, rtlil.Const(2, 3))
	eq5 := m.Eq(x, rtlil.Const(5, 3))
	inner := m.Mux(b, a, eq5)
	y := m.AddOutput("y", 4).Bits()
	m.AddMux("root", c, inner, lt, y)
	return m
}
