package core

import (
	"testing"

	"repro/internal/opt"
	"repro/internal/rtlil"
)

// TestCacheKeyLookAlikeWireNames: a 1-bit wire named "w[3]" and bit 3
// of an 8-bit wire w render the same, but they are different bits. The
// 1-bit wire is a & ~a, constant 0, so the mux it selects collapses;
// bit 3 of the input w is free, so the mux it selects must stay. A
// cache keyed by rendered names answered the second query from the
// first and collapsed both muxes, which cec.Check refutes at w[3]=1.
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
