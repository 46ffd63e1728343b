package rtlil

import (
	"bytes"
	"strings"
	"testing"
)

// TestSingleClockThroughAlias: two flip-flops clocked by aliases of one
// input share a clock domain, reported as the canonical (earliest) bit.
func TestSingleClockThroughAlias(t *testing.T) {
	m := NewModule("m")
	clk := m.AddInput("clk", 1)
	d := m.AddInput("d", 2)
	clk2 := m.AddWire("clk2", 1)
	m.Connect(clk2.Bits(), clk.Bits())
	q1, q2 := m.NewWire(2), m.NewWire(1)
	f1 := m.AddDff("f1", clk2.Bits(), d.Bits(), q1.Bits())
	f2 := m.AddDff("f2", clk.Bits(), d.Bits().Extract(0, 1), q2.Bits())
	got, ok := SingleClock(m)
	if !ok || got != clk.Bit(0) {
		t.Fatalf("SingleClock = %v, %v; want clk, true", got, ok)
	}
	if err := ValidateSequential(m); err != nil {
		t.Fatal(err)
	}
	if n := m.StateBits(); n != 3 {
		t.Errorf("StateBits = %d, want 3", n)
	}
	if cs := m.SeqCells(); len(cs) != 2 || cs[0] != f1 || cs[1] != f2 {
		t.Errorf("SeqCells = %v", cs)
	}
}

func TestSingleClockRejectsTwoDomains(t *testing.T) {
	m := NewModule("m")
	a, b := m.AddInput("a", 1), m.AddInput("b", 1)
	d := m.AddInput("d", 1)
	m.AddDff("f1", a.Bits(), d.Bits(), m.NewWire(1).Bits())
	m.AddDff("f2", b.Bits(), d.Bits(), m.NewWire(1).Bits())
	if _, ok := SingleClock(m); ok {
		t.Error("two clock inputs reported as one domain")
	}
	if err := ValidateSequential(m); err == nil || !strings.Contains(err.Error(), "more than one clock") {
		t.Errorf("ValidateSequential = %v", err)
	}
}

func TestValidateSequentialConstantQ(t *testing.T) {
	m := NewModule("m")
	clk, d := m.AddInput("clk", 1), m.AddInput("d", 1)
	m.AddDff("f", clk.Bits(), d.Bits(), Const(0, 1))
	if err := ValidateSequential(m); err == nil || !strings.Contains(err.Error(), "constant") {
		t.Errorf("ValidateSequential = %v", err)
	}
	comb := NewModule("comb")
	if b, ok := SingleClock(comb); !ok || !b.IsConst() {
		t.Errorf("combinational module: SingleClock = %v, %v", b, ok)
	}
}

// TestWriteVerilogShape: the writer emits the port list, sanitized
// automatic names, one assignment per combinational cell and an always
// block per flip-flop.
func TestWriteVerilogShape(t *testing.T) {
	m := NewModule("top")
	clk := m.AddInput("clk", 1).Bits()
	a := m.AddInput("a", 4).Bits()
	s := m.AddInput("s", 1).Bits()
	y := m.AddOutput("y", 4).Bits()
	mid := m.NewWire(4).Bits()
	m.AddBinary(CellAdd, "g_add", a, Const(3, 4), mid)
	q := m.NewWire(4).Bits()
	m.AddDff("ff", clk, mid, q)
	m.AddMux("g_mux", q, Concat(a.Extract(1, 3), Const(1, 1)), s, y)
	var buf bytes.Buffer
	if err := WriteVerilog(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"module top", "input [3:0] a", "output [3:0] y", "assign", "always @(posedge", "endmodule"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "$") {
		t.Errorf("unsanitized automatic name:\n%s", out)
	}
}
