package aig

import (
	"testing"

	"repro/internal/sat"
)

// TestCNFIncrementalEncoding pins the property the SAT-mux oracle relies
// on: one CNF context over one solver encodes lazily — only the cone of
// each requested literal — and repeated Solve calls interleaved with
// encoding growth stay correct.
func TestCNFIncrementalEncoding(t *testing.T) {
	g := New()
	a, b, c := g.NewInput(), g.NewInput(), g.NewInput()
	ab := g.And(a, b)
	abc := g.And(ab, c)
	other := g.And(a, c) // separate cone, encoded later

	s := sat.NewSolver()
	cnf := NewCNF(g, s)

	la := cnf.SatLit(ab)
	afterFirst := cnf.EncodedNodes()
	if afterFirst == 0 {
		t.Fatal("nothing encoded for the first cone")
	}
	// ab is satisfiable, and forcing it true forces both inputs.
	if s.Solve(la) != sat.Sat {
		t.Fatal("ab cone unsat")
	}
	if !s.ValueLit(cnf.SatLit(a)) || !s.ValueLit(cnf.SatLit(b)) {
		t.Fatal("model does not force the AND inputs")
	}

	// Growing the encoding between Solve calls must reuse the existing
	// sub-cone (a, b, ab already have variables).
	labc := cnf.SatLit(abc)
	if cnf.EncodedNodes() <= afterFirst {
		t.Fatal("abc cone did not extend the encoding")
	}
	grown := cnf.EncodedNodes()
	if again := cnf.SatLit(abc); again != labc {
		t.Fatal("re-requesting a literal changed its encoding")
	}
	if cnf.EncodedNodes() != grown {
		t.Fatal("re-requesting a literal re-encoded its cone")
	}

	// abc & !ab is contradictory; abc alone is satisfiable.
	if s.Solve(labc, la.Not()) != sat.Unsat {
		t.Fatal("abc without ab satisfiable")
	}
	if s.Solve(labc) != sat.Sat {
		t.Fatal("abc unsat after the unsat query")
	}

	// A later, disjoint cone on the same context.
	lo := cnf.SatLit(other)
	if s.Solve(lo, cnf.SatLit(b).Not()) != sat.Sat {
		t.Fatal("a&c with !b unsat")
	}
	if !s.ValueLit(cnf.SatLit(a)) || !s.ValueLit(cnf.SatLit(c)) {
		t.Fatal("model does not force the late cone's inputs")
	}

	// Constants encode to forced variables.
	if s.Solve(cnf.SatLit(Const0)) != sat.Unsat {
		t.Fatal("constant false assumable")
	}
	if s.Solve(cnf.SatLit(Const1)) != sat.Sat {
		t.Fatal("constant true unsat")
	}
}
