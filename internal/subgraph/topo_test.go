package subgraph

import (
	"slices"
	"testing"

	"repro/internal/rtlil"
)

// buildCmpCone builds one module with a small comparator cone
//
//	y = (a == k) & (b | c)
//
// using the given wire-name prefix and constant, and returns the module
// with the target bit (the AND output).
func buildCmpCone(prefix string, k uint64) (*rtlil.Module, rtlil.SigBit) {
	m := rtlil.NewModule("m_" + prefix)
	a := m.AddInput(prefix+"a", 4).Bits()
	b := m.AddInput(prefix+"b", 1).Bits()
	c := m.AddInput(prefix+"c", 1).Bits()
	eq := m.Eq(a, rtlil.Const(k, 4))
	or := m.Or(b, c)
	tg := m.And(eq, or)
	y := m.AddOutput(prefix+"y", 1)
	m.Connect(y.Bits(), tg)
	return m, tg[0]
}

// TestTopoCellsOrder: Extract's Order holds every kept cell, drivers
// before readers, and equals the reference TopoCells.
func TestTopoCellsOrder(t *testing.T) {
	m, tg := buildCmpCone("t_", 1)
	ix := rtlil.NewIndex(m)
	g := NewGraph(ix)
	sg := g.Extract(tg, nil, Options{Depth: 10})
	order := sg.Order
	cells := keptCells(g, sg)
	if !slices.Equal(order, TopoCells(ix, cells)) {
		t.Fatalf("Order differs from TopoCells")
	}
	if len(order) != len(cells) {
		t.Fatalf("topo dropped cells: %d vs %d", len(order), len(cells))
	}
	pos := map[*rtlil.Cell]int{}
	for i, c := range order {
		pos[c] = i
	}
	for _, c := range order {
		for _, port := range rtlil.InputPorts(c.Type) {
			for _, b := range ix.Map(c.Port(port)) {
				if b.IsConst() {
					continue
				}
				if d := ix.DriverCell(b); d != nil {
					if dp, in := pos[d]; in && dp >= pos[c] {
						t.Fatalf("driver %s ordered after reader %s", d.Name, c.Name)
					}
				}
			}
		}
	}
}
