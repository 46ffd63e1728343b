package rtlil

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestTopoSortOrders(t *testing.T) {
	m := NewModule("m")
	a := m.AddInput("a", 1).Bits()
	b := m.AddInput("b", 1).Bits()
	y := m.AddOutput("y", 1).Bits()
	m1 := m.NewWire(1).Bits()
	m2 := m.NewWire(1).Bits()
	// Deliberately add in reverse dependency order.
	g3 := m.AddBinary(CellOr, "g3", m2, a, y)
	g2 := m.AddUnary(CellNot, "g2", m1, m2)
	g1 := m.AddBinary(CellAnd, "g1", a, b, m1)

	order, err := TopoSort(NewIndex(m))
	if err != nil {
		t.Fatal(err)
	}
	pos := map[*Cell]int{}
	for i, c := range order {
		pos[c] = i
	}
	if !(pos[g1] < pos[g2] && pos[g2] < pos[g3]) {
		t.Errorf("topo order wrong: g1=%d g2=%d g3=%d", pos[g1], pos[g2], pos[g3])
	}
}

// TestTopoSortDeterministic: cells added against their dependency
// order, each reading the two cells before it, leave the DFS a choice
// of port order at every cell. TopoSort must make the same choice on
// every call.
func TestTopoSortDeterministic(t *testing.T) {
	m := NewModule("m")
	a := m.AddInput("a", 1).Bits()
	b := m.AddInput("b", 1).Bits()
	c := m.AddInput("c", 1).Bits()
	const n = 16
	w := make([]SigSpec, n)
	for i := range w {
		w[i] = m.NewWire(1).Bits()
	}
	for i := n - 1; i >= 0; i-- {
		x, y := a, b
		switch i {
		case 0:
		case 1:
			x, y = b, c
		default:
			x, y = w[i-1], w[i-2]
		}
		m.AddBinary(CellAnd, fmt.Sprintf("g%d", i), x, y, w[i])
	}
	ix := NewIndex(m)
	orders := map[string]bool{}
	for range 50 {
		order, err := TopoSort(ix)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(order))
		for i, c := range order {
			names[i] = c.Name
		}
		orders[strings.Join(names, " ")] = true
	}
	if len(orders) != 1 {
		t.Errorf("50 calls gave %d distinct orders: %v", len(orders), orders)
	}
}

func TestTopoSortDetectsLoop(t *testing.T) {
	m := NewModule("m")
	a := m.NewWire(1).Bits()
	b := m.NewWire(1).Bits()
	m.AddUnary(CellNot, "g1", a, b)
	m.AddUnary(CellNot, "g2", b, a)
	_, err := TopoSort(NewIndex(m))
	var loop *LoopError
	if !errors.As(err, &loop) || (loop.Cell != "g1" && loop.Cell != "g2") {
		t.Errorf("combinational loop not reported as a LoopError on g1 or g2: %v", err)
	}
}

func TestTopoSortDffBreaksLoop(t *testing.T) {
	m := NewModule("m")
	clk := m.AddInput("clk", 1).Bits()
	q := m.NewWire(1).Bits()
	d := m.NewWire(1).Bits()
	m.AddUnary(CellNot, "inv", q, d)
	m.AddDff("ff", clk, d, q)
	order, err := TopoSort(NewIndex(m))
	if err != nil {
		t.Fatalf("dff loop flagged as combinational: %v", err)
	}
	if len(order) != 2 {
		t.Errorf("order has %d cells", len(order))
	}
	// The dff comes first (its Q is a source).
	if order[0].Type != CellDff {
		t.Errorf("first cell is %s, want $dff", order[0].Type)
	}
}

func TestTopoSortThroughConnection(t *testing.T) {
	m := NewModule("m")
	a := m.AddInput("a", 1).Bits()
	y := m.AddOutput("y", 1).Bits()
	mid := m.NewWire(1).Bits()
	alias := m.NewWire(1).Bits()
	g1 := m.AddUnary(CellNot, "g1", a, mid)
	m.Connect(alias, mid)
	g2 := m.AddUnary(CellNot, "g2", alias, y)
	order, err := TopoSort(NewIndex(m))
	if err != nil {
		t.Fatal(err)
	}
	pos := map[*Cell]int{}
	for i, c := range order {
		pos[c] = i
	}
	if pos[g1] > pos[g2] {
		t.Error("dependency through connection not honored")
	}
}
