package rtlil

import (
	"strings"
	"testing"
)

func TestAddWireAndPorts(t *testing.T) {
	m := NewModule("m")
	a := m.AddInput("a", 4)
	b := m.AddInput("b", 4)
	y := m.AddOutput("y", 4)
	if !a.PortInput || a.PortID != 1 {
		t.Errorf("a: PortInput=%v PortID=%d", a.PortInput, a.PortID)
	}
	if b.PortID != 2 || y.PortID != 3 {
		t.Errorf("port ids b=%d y=%d", b.PortID, y.PortID)
	}
	if got := m.Ports(); len(got) != 3 || got[0] != a || got[2] != y {
		t.Errorf("Ports() = %v", got)
	}
	if got := m.Inputs(); len(got) != 2 {
		t.Errorf("Inputs() = %v", got)
	}
	if got := m.Outputs(); len(got) != 1 || got[0] != y {
		t.Errorf("Outputs() = %v", got)
	}
}

func TestAddWireDuplicatePanics(t *testing.T) {
	m := NewModule("m")
	m.AddWire("w", 1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddWire did not panic")
		}
	}()
	m.AddWire("w", 2)
}

func TestAddWireZeroWidthPanics(t *testing.T) {
	m := NewModule("m")
	defer func() {
		if recover() == nil {
			t.Error("zero-width AddWire did not panic")
		}
	}()
	m.AddWire("w", 0)
}

func TestNewWireAutoNames(t *testing.T) {
	m := NewModule("m")
	w1 := m.NewWire(1)
	w2 := m.NewWire(2)
	if w1.Name == w2.Name {
		t.Error("auto names collide")
	}
	if !strings.HasPrefix(w1.Name, "$") {
		t.Errorf("auto name %q does not start with $", w1.Name)
	}
}

func TestRemoveCell(t *testing.T) {
	m := NewModule("m")
	a := m.AddInput("a", 1).Bits()
	y := m.AddOutput("y", 1).Bits()
	c := m.AddUnary(CellNot, "inv", a, y)
	if m.NumCells() != 1 {
		t.Fatal("cell not added")
	}
	m.RemoveCell(c)
	if m.NumCells() != 0 || m.Cell("inv") != nil {
		t.Error("cell not removed")
	}
	m.RemoveCell(c) // double remove is a no-op
	if m.NumCells() != 0 {
		t.Error("double remove broke module")
	}
}

func TestRemoveWire(t *testing.T) {
	m := NewModule("m")
	w := m.AddWire("tmp", 3)
	m.RemoveWire(w)
	if m.Wire("tmp") != nil || len(m.Wires()) != 0 {
		t.Error("wire not removed")
	}
}

func TestConnectWidthMismatchPanics(t *testing.T) {
	m := NewModule("m")
	a := m.AddWire("a", 2)
	b := m.AddWire("b", 3)
	defer func() {
		if recover() == nil {
			t.Error("Connect width mismatch did not panic")
		}
	}()
	m.Connect(a.Bits(), b.Bits())
}

func TestCellAutoName(t *testing.T) {
	m := NewModule("m")
	a := m.AddWire("a", 1).Bits()
	y := m.AddWire("y", 1).Bits()
	c := m.AddUnary(CellNot, "", a, y)
	if c.Name == "" {
		t.Error("auto cell name empty")
	}
	if m.Cell(c.Name) != c {
		t.Error("auto-named cell not registered")
	}
}

func TestCloneDeep(t *testing.T) {
	m := NewModule("m")
	a := m.AddInput("a", 2)
	b := m.AddInput("b", 2)
	y := m.AddOutput("y", 2)
	m.AddBinary(CellAnd, "g", a.Bits(), b.Bits(), y.Bits())
	m.Connect(SigSpec{y.Bit(0)}.Copy(), SigSpec{a.Bit(0)}.Copy())

	n := m.Clone()
	if n.Name != m.Name || n.NumCells() != 1 || len(n.Conns) != 1 {
		t.Fatalf("clone shape wrong: %d cells %d conns", n.NumCells(), len(n.Conns))
	}
	// Cloned wires must be new objects...
	if n.Wire("a") == a {
		t.Error("clone shares wire objects")
	}
	// ...and cloned cell signals must reference the cloned wires.
	g := n.Cell("g")
	if g.Conn["A"][0].Wire != n.Wire("a") {
		t.Error("cloned cell references original wires")
	}
	// Mutating the clone must not affect the original.
	n.Cell("g").SetPort("A", Const(0, 2))
	if m.Cell("g").Conn["A"][0].IsConst() {
		t.Error("clone mutation leaked into original")
	}
	// Port flags preserved.
	if !n.Wire("a").PortInput || !n.Wire("y").PortOutput {
		t.Error("clone lost port flags")
	}
}

// TestMoveFrom: the receiver takes the source's netlist as it stands
// (every cell re-owned, same canonical hash, a valid module), its old
// cells leave it, its naming counters continue the source's, and the
// source is left empty.
func TestMoveFrom(t *testing.T) {
	m := buildMuxModule(false)
	m.Attrs["keep"] = "1"
	old := m.Cells()[0]
	src := m.Clone()
	src.RemoveCell(src.Cell("mux0"))
	src.AddBinary(CellAnd, "", src.Wire("a").Bits(), src.Wire("b").Bits(), src.NewWire(2).Bits())
	want := CanonicalHash(src)
	nextWire := src.Clone().NewWire(1).Name
	cells := append([]*Cell(nil), src.Cells()...)

	m.MoveFrom(src)
	for _, c := range cells {
		if !m.HasCell(c) {
			t.Errorf("moved cell %s not owned by the receiver", c.Name)
		}
	}
	if m.HasCell(old) {
		t.Error("the receiver still owns its old cell")
	}
	if got := CanonicalHash(m); got != want {
		t.Errorf("hash after move %s, want the source's %s", got, want)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("moved module invalid: %v", err)
	}
	if m.Name != "top" || m.Attrs["keep"] != "1" {
		t.Errorf("receiver lost its name or attrs: %q %v", m.Name, m.Attrs)
	}
	if got := m.NewWire(1).Name; got != nextWire {
		t.Errorf("next auto wire %s, want %s", got, nextWire)
	}
	if src.NumCells() != 0 || len(src.Wires()) != 0 || len(src.Conns) != 0 {
		t.Errorf("source not emptied: %d cells, %d wires, %d conns",
			src.NumCells(), len(src.Wires()), len(src.Conns))
	}
}

func TestDesign(t *testing.T) {
	d := NewDesign()
	m1 := NewModule("alpha")
	m2 := NewModule("top")
	d.AddModule(m1)
	d.AddModule(m2)
	if d.Module("alpha") != m1 {
		t.Error("Module lookup failed")
	}
	if d.Top() != m2 {
		t.Error("Top() should pick module named top")
	}
	d2 := NewDesign()
	d2.AddModule(m1)
	if d2.Top() != m1 {
		t.Error("single-module Top() failed")
	}
}

func TestDesignDuplicatePanics(t *testing.T) {
	d := NewDesign()
	d.AddModule(NewModule("m"))
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddModule did not panic")
		}
	}()
	d.AddModule(NewModule("m"))
}

func TestWireBitPanics(t *testing.T) {
	m := NewModule("m")
	w := m.AddWire("w", 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Bit did not panic")
		}
	}()
	w.Bit(2)
}

func TestPmuxWord(t *testing.T) {
	m := NewModule("m")
	a := m.AddInput("a", 4).Bits()
	b0 := m.AddInput("b0", 4).Bits()
	b1 := m.AddInput("b1", 4).Bits()
	s := m.AddInput("s", 2).Bits()
	y := m.AddOutput("y", 4).Bits()
	c := m.AddPmux("p", a, []SigSpec{b0, b1}, s, y)
	if !c.PmuxWord(0).Equal(b0) || !c.PmuxWord(1).Equal(b1) {
		t.Error("PmuxWord extraction wrong")
	}
}
