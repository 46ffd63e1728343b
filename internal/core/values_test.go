package core

import (
	"testing"

	"repro/internal/opt"
	"repro/internal/rtlil"
)

// TestOracleSolvesRepeatedQuery: the oracle keeps no answers between
// queries, so asking the same bit under the same facts twice solves it
// twice, with the same answer both times.
func TestOracleSolvesRepeatedQuery(t *testing.T) {
	m := rtlil.NewModule("repeat")
	a := m.AddInput("a", 1).Bits()
	b := m.AddInput("b", 1).Bits()
	s := m.And(a, b)
	o := NewSmartOracle(rtlil.NewIndex(m), SatMuxOptions{})
	var facts opt.PathFacts
	facts.Push(a[0], rtlil.S0)
	out := make([]rtlil.State, 1)
	for call := 1; call <= 2; call++ {
		out[0] = rtlil.Sz
		o.Values(&facts, s, out)
		if out[0] != rtlil.S0 {
			t.Errorf("call %d: a&b under a=0 answered %v, want 0", call, out[0])
		}
	}
	if st := o.Stats; st.Queries != 2 || st.InferenceHits != 2 {
		t.Errorf("stats %s, want queries=2 inference=2", st)
	}
}

// TestCacheKeyLookAlikeWireNames: a 1-bit wire named "w[3]" and bit 3
// of an 8-bit wire w render the same, but they are different bits. The
// 1-bit wire is a & ~a, constant 0, so the mux it selects collapses;
// bit 3 of the input w is free, so the mux it selects must stay. An
// oracle that identified bits by their rendered names (as an answer
// cache keyed by them once did) collapses both muxes, which cec.Check
// refutes at w[3]=1.
func TestCacheKeyLookAlikeWireNames(t *testing.T) {
	m := rtlil.NewModule("collide")
	a := m.AddInput("a", 1).Bits()
	w := m.AddInput("w", 8).Bits()
	d0 := m.AddInput("d0", 1).Bits()
	d1 := m.AddInput("d1", 1).Bits()
	lookalike := m.AddWire("w[3]", 1).Bits()
	m.Connect(lookalike, m.And(a, m.Not(a)))
	y1 := m.AddOutput("y1", 1).Bits()
	m.AddMux("m1", d0, d1, lookalike, y1)
	y2 := m.AddOutput("y2", 1).Bits()
	m.AddMux("m2", d0, d1, w[3:4], y2)
	if lookalike[0].String() != w[3].String() {
		t.Fatalf("the two selects render differently: %s vs %s", lookalike[0], w[3])
	}

	orig := m.Clone()
	pass := &SatMuxPass{}
	if _, err := pass.Run(opt.Background(), m); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	// Two queries in the first iteration (m1 decided by simulation, m2
	// unknown), then m2 once more in the second, which m1's collapse
	// started.
	if st := pass.LastStats; st.Queries != 3 || st.SimHits != 1 || st.Unknown != 2 {
		t.Errorf("stats %s, want queries=3 sim=1 unknown=2", st)
	}
	if n := countType(m, rtlil.CellMux); n != 1 {
		t.Errorf("%d muxes left, want 1 (m2's select is a free input)", n)
	}
}
