package smartly

import (
	"strings"
	"testing"
)

const quickstartSrc = `
module demo(input s, input r, input [3:0] a, input [3:0] b,
            input [3:0] c, output [3:0] y);
  // Paper Figure 3: the inner select (s|r) is implied by the outer s.
  assign y = s ? ((s | r) ? a : b) : c;
endmodule`

func TestFacadeEndToEnd(t *testing.T) {
	design, err := ParseVerilog(quickstartSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := design.Top()
	orig := m.Clone()
	before, err := Area(m)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := NamedFlow("full")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := flow.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed {
		t.Error("nothing optimized")
	}
	after, err := Area(m)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("area %d -> %d, expected reduction", before, after)
	}
	if err := CheckEquivalence(orig, m); err != nil {
		t.Fatalf("not equivalent: %v", err)
	}
}

const seqFacadeSrc = `
module seqdemo(input clk, input [3:0] x, output [3:0] y);
  reg [3:0] live;
  reg [3:0] spin;
  always @(posedge clk) begin
    live <= x + 4'b0001;
    spin <= spin;
  end
  assign y = live | spin;
endmodule`

// TestFacadeSequentialCheck: CheckEquivalence must prove register
// sweeps by induction instead of tripping the combinational miter's
// flip-flop interface match, and still refute a real sequential bug.
func TestFacadeSequentialCheck(t *testing.T) {
	design, err := ParseVerilog(seqFacadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := design.Top()
	orig := m.Clone()
	flow, err := NamedFlow("seq")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := flow.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed || rep.Counter("opt_dff", "dff_removed") == 0 {
		t.Fatalf("expected a register sweep, got %+v", rep)
	}
	if err := CheckEquivalence(orig, m); err != nil {
		t.Fatalf("swept netlist not proven equivalent: %v", err)
	}
	// A genuinely different sequential module must be refuted.
	broken, err := ParseVerilog(strings.Replace(seqFacadeSrc,
		"live <= x + 4'b0001;", "live <= x + 4'b0010;", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEquivalence(orig, broken.Top()); err == nil {
		t.Fatal("broken sequential module passed CheckEquivalence")
	}
}

func TestFacadeBaselineWeaker(t *testing.T) {
	areas := map[string]int{}
	for _, name := range []string{"yosys", "full"} {
		design, err := ParseVerilog(quickstartSrc)
		if err != nil {
			t.Fatal(err)
		}
		flow, err := NamedFlow(name)
		if err != nil {
			t.Fatal(err)
		}
		m := design.Top()
		if _, err := flow.Run(m); err != nil {
			t.Fatal(err)
		}
		a, err := Area(m)
		if err != nil {
			t.Fatal(err)
		}
		areas[name] = a
	}
	if areas["full"] >= areas["yosys"] {
		t.Errorf("full=%d should beat yosys=%d on the Figure 3 circuit",
			areas["full"], areas["yosys"])
	}
}

const twoModuleSrc = `
module alpha(input s, input r, input [3:0] a, input [3:0] b,
             input [3:0] c, output [3:0] y);
  assign y = s ? ((s | r) ? a : b) : c;
endmodule
module beta(input [1:0] s, input [3:0] p0, input [3:0] p1,
            input [3:0] p2, input [3:0] p3, output reg [3:0] y);
  always @(*) begin
    case (s)
      2'b00: y = p0;
      2'b01: y = p1;
      2'b10: y = p2;
      default: y = p3;
    endcase
  end
endmodule`

func TestBenchmarkGeneration(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 10 {
		t.Fatalf("BenchmarkNames = %d entries, want 10", len(names))
	}
	m, err := GenerateBenchmark(names[0], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCells() == 0 {
		t.Error("empty benchmark module")
	}
	if _, err := GenerateBenchmark("nope", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	ind := GenerateIndustrial(0, 0.02)
	if ind.NumCells() == 0 {
		t.Error("empty industrial module")
	}
}

func TestFacadeBuilderAPI(t *testing.T) {
	m := NewModule("api")
	a := m.AddInput("a", 4).Bits()
	b := m.AddInput("b", 4).Bits()
	s := m.AddInput("s", 1).Bits()
	y := m.AddOutput("y", 4)
	m.Connect(y.Bits(), m.Mux(a, b, s))
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	d := NewDesign()
	d.AddModule(m)
	if d.Top() != m {
		t.Error("design top lost")
	}
	if got := Const(5, 4).String(); got != "4'b0101" {
		t.Errorf("Const rendering = %q", got)
	}
}
