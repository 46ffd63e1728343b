package subgraph

import (
	"math/rand"
	"testing"

	"repro/internal/rtlil"
)

// TestFilterDismissesUnrelatedLogic: side logic sharing no ancestry with
// the target or knowns must be pruned (Theorem II.1 / Figure 4).
func TestFilterDismissesUnrelatedLogic(t *testing.T) {
	m := rtlil.NewModule("m")
	s := m.AddInput("s", 1).Bits()
	r := m.AddInput("r", 1).Bits()
	u := m.AddInput("u", 1).Bits()
	v := m.AddInput("v", 1).Bits()

	orSR := m.Or(s, r) // related to the known s: the target's cone
	side := m.And(u, v)
	side2 := m.Not(side) // unrelated island
	y := m.AddOutput("y", 2)
	m.Connect(y.Bits(), rtlil.Concat(orSR, side2))

	ix := rtlil.NewIndex(m)
	res := NewGraph(ix).Extract(orSR[0], []rtlil.SigBit{s[0]}, Options{Depth: 10})
	if len(res.Order) < 1 {
		t.Fatalf("no cells kept")
	}
	for _, c := range res.Order {
		out := c.Port("Y")
		if out.Equal(side) || out.Equal(side2) {
			t.Errorf("unrelated cell %s kept", c.Name)
		}
	}
	// The OR driving the target must be kept.
	found := false
	for _, c := range res.Order {
		if c.Port("Y").Equal(orSR) {
			found = true
		}
	}
	if !found {
		t.Error("target driver pruned")
	}
}

// TestFilterKeepsCommonAncestor: logic related to the known through a
// shared ancestor must survive the filter.
func TestFilterKeepsCommonAncestor(t *testing.T) {
	m := rtlil.NewModule("m")
	a := m.AddInput("a", 1).Bits()
	b := m.AddInput("b", 1).Bits()
	k := m.And(a, b) // known signal derives from a, b
	tg := m.Or(a, b) // target shares ancestors a, b
	un := m.AddInput("u", 1).Bits()
	island := m.Not(un)
	y := m.AddOutput("y", 3)
	m.Connect(y.Bits(), rtlil.Concat(k, tg, island))

	ix := rtlil.NewIndex(m)
	res := NewGraph(ix).Extract(tg[0], []rtlil.SigBit{k[0]}, Options{Depth: 10})
	keptOr, keptAnd, keptIsland := false, false, false
	for _, c := range res.Order {
		switch {
		case c.Port("Y").Equal(tg):
			keptOr = true
		case c.Port("Y").Equal(k):
			keptAnd = true
		case c.Port("Y").Equal(island):
			keptIsland = true
		}
	}
	if !keptOr || !keptAnd {
		t.Errorf("common-ancestor logic pruned: or=%v and=%v", keptOr, keptAnd)
	}
	if keptIsland {
		t.Error("island logic kept")
	}
}

func TestDepthBound(t *testing.T) {
	// A long inverter chain: with depth 2 only nearby cells collected.
	// Every cell of the chain is in the target's backward cone, so the
	// filter keeps every cell the BFS collects.
	m := rtlil.NewModule("m")
	cur := m.AddInput("a", 1).Bits()
	for i := 0; i < 10; i++ {
		cur = m.Not(cur)
	}
	y := m.AddOutput("y", 1)
	m.Connect(y.Bits(), cur)
	ix := rtlil.NewIndex(m)
	res := NewGraph(ix).Extract(cur[0], nil, Options{Depth: 2})
	if len(res.Order) > 3 {
		t.Errorf("depth 2 collected %d cells", len(res.Order))
	}
	resAll := NewGraph(ix).Extract(cur[0], nil, Options{Depth: 100})
	if len(resAll.Order) != 10 {
		t.Errorf("unbounded depth collected %d cells, want 10", len(resAll.Order))
	}
}

func TestMaxCellsCap(t *testing.T) {
	m := rtlil.NewModule("m")
	acc := m.AddInput("a", 1).Bits()
	for i := 0; i < 50; i++ {
		acc = m.Not(acc)
	}
	y := m.AddOutput("y", 1)
	m.Connect(y.Bits(), acc)
	ix := rtlil.NewIndex(m)
	res := NewGraph(ix).Extract(acc[0], nil, Options{Depth: 100, MaxCells: 5})
	if len(res.Order) > 5 {
		t.Errorf("cap exceeded: %d cells", len(res.Order))
	}
}

func TestInputsAreFreeBits(t *testing.T) {
	m := rtlil.NewModule("m")
	s := m.AddInput("s", 1).Bits()
	r := m.AddInput("r", 1).Bits()
	orSR := m.Or(s, r)
	y := m.AddOutput("y", 1)
	m.Connect(y.Bits(), orSR)
	ix := rtlil.NewIndex(m)
	res := NewGraph(ix).Extract(orSR[0], []rtlil.SigBit{s[0]}, Options{})
	want := map[rtlil.SigBit]bool{s[0]: true, r[0]: true}
	if len(res.Inputs) != 2 {
		t.Fatalf("inputs = %v", res.Inputs)
	}
	for _, b := range res.Inputs {
		if !want[b] {
			t.Errorf("unexpected input %v", b)
		}
	}
}

func TestSequentialExcluded(t *testing.T) {
	m := rtlil.NewModule("m")
	clk := m.AddInput("clk", 1).Bits()
	d := m.AddInput("d", 1).Bits()
	q := m.NewWire(1)
	m.AddDff("ff", clk, d, q.Bits())
	g := m.Not(q.Bits())
	y := m.AddOutput("y", 1)
	m.Connect(y.Bits(), g)
	ix := rtlil.NewIndex(m)
	res := NewGraph(ix).Extract(g[0], nil, Options{Depth: 10})
	for _, c := range res.Order {
		if rtlil.IsSequential(c.Type) {
			t.Error("sequential cell in sub-graph")
		}
	}
	// The dff's Q bit must appear as a free input.
	foundQ := false
	for _, b := range res.Inputs {
		if b.Wire == q {
			foundQ = true
		}
	}
	if !foundQ {
		t.Error("dff Q not a sub-graph input")
	}
}

// TestFilterReductionOnRandomDAGs measures that the filter dismisses a
// large share of unrelated gates, in the spirit of the paper's "~80%
// dismissed" claim (we assert a conservative >= 40% on this workload).
func TestFilterReductionOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	totalCand, totalKept := 0, 0
	for trial := 0; trial < 20; trial++ {
		m := rtlil.NewModule("m")
		// Island A: target cone.
		s := m.AddInput("s", 1).Bits()
		r := m.AddInput("r", 1).Bits()
		tg := m.Or(s, r)
		// Many unrelated islands packed close to the target through a
		// shared mux tree reader (common DESCENDANT, which must not
		// count as related).
		join := tg
		for i := 0; i < 10; i++ {
			u := m.AddInput("u"+string(rune('0'+i)), 1).Bits()
			v := m.AddInput("v"+string(rune('0'+i)), 1).Bits()
			island := m.Xor(u, v)
			for j := 0; j < rng.Intn(3); j++ {
				island = m.Not(island)
			}
			join = m.And(join, island)
		}
		y := m.AddOutput("y", 1)
		m.Connect(y.Bits(), join)
		ix := rtlil.NewIndex(m)
		// Depth 50 and the default cap reach every cell of these modules,
		// so the candidate set before the filter is the whole module.
		res := NewGraph(ix).Extract(tg[0], []rtlil.SigBit{s[0]}, Options{Depth: 50})
		totalCand += len(m.Cells())
		totalKept += len(res.Order)
	}
	if totalKept*10 > totalCand*6 {
		t.Errorf("filter kept %d of %d cells (>60%%)", totalKept, totalCand)
	}
}
