package smartly_test

import (
	"fmt"
	"log"

	smartly "repro"
)

// The flagship transformation from the paper's Figure 3: the inner
// multiplexer's control (s|r) is implied by the outer branch condition,
// so smaRTLy deletes it — the Yosys-style baseline cannot, because the
// control signals are different wires.
func Example() {
	design, err := smartly.ParseVerilog(`
module demo(input s, input r, input [7:0] a, input [7:0] b,
            input [7:0] c, output [7:0] y);
  assign y = s ? ((s | r) ? a : b) : c;
endmodule`)
	if err != nil {
		log.Fatal(err)
	}
	m := design.Top()
	before, _ := smartly.Area(m)
	flow, err := smartly.NamedFlow("full")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := flow.Run(m); err != nil {
		log.Fatal(err)
	}
	after, _ := smartly.Area(m)
	fmt.Printf("AIG area: %d -> %d\n", before, after)
	// Output: AIG area: 49 -> 24
}

// Case statements elaborate into eq+mux trees; muxtree restructuring
// rebuilds them as muxes over the selector bits and the comparison
// gates disappear.
func Example_restructuring() {
	design, err := smartly.ParseVerilog(`
module listing1(input [1:0] s, input [3:0] p0, input [3:0] p1,
                input [3:0] p2, input [3:0] p3, output reg [3:0] y);
  always @(*) begin
    case (s)
      2'b00: y = p0;
      2'b01: y = p1;
      2'b10: y = p2;
      default: y = p3;
    endcase
  end
endmodule`)
	if err != nil {
		log.Fatal(err)
	}
	m := design.Top()
	orig := m.Clone()
	flow, err := smartly.NamedFlow("rebuild")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := flow.Run(m); err != nil {
		log.Fatal(err)
	}
	if err := smartly.CheckEquivalence(orig, m); err != nil {
		log.Fatal(err)
	}
	eqs := 0
	for _, c := range m.Cells() {
		if c.Type == "$eq" {
			eqs++
		}
	}
	fmt.Printf("eq gates after restructuring: %d\n", eqs)
	// Output: eq gates after restructuring: 0
}

// Netlists can also be built programmatically with the expression
// builders.
func ExampleNewModule() {
	m := smartly.NewModule("mini")
	a := m.AddInput("a", 4).Bits()
	b := m.AddInput("b", 4).Bits()
	s := m.AddInput("s", 1).Bits()
	y := m.AddOutput("y", 4)
	m.Connect(y.Bits(), m.Mux(m.And(a, b), m.Or(a, b), s))
	area, _ := smartly.Area(m)
	fmt.Printf("cells=%d area=%d\n", m.NumCells(), area)
	// Output: cells=3 area=20
}
