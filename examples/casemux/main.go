// Casemux walks through the paper's §III restructuring example: the
// Listing 1 case statement elaborates into an eq+mux structure
// (Figures 5/6) which muxtree restructuring rebuilds into three muxes
// controlled directly by the selector bits (Figure 7), deleting the
// comparison gates. Listing 2 shows the casez variant and the effect of
// the greedy variable assignment.
//
// Run with: go run ./examples/casemux
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/bdd"
	"repro/internal/rtlil"
)

const listing1 = `
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
endmodule`

const listing2 = `
module listing2(input [2:0] s, input [3:0] p0, input [3:0] p1,
                input [3:0] p2, input [3:0] p3, output reg [3:0] y);
  always @(*) begin
    casez (s)
      3'b1zz: y = p0;
      3'b01z: y = p1;
      3'b001: y = p2;
      default: y = p3;
    endcase
  end
endmodule`

func main() {
	rebuild, err := smartly.NamedFlow("rebuild")
	if err != nil {
		log.Fatal(err)
	}
	for name, src := range map[string]string{"Listing 1": listing1, "Listing 2": listing2} {
		design, err := smartly.ParseVerilog(src)
		if err != nil {
			log.Fatal(err)
		}
		m := design.Top()
		orig := m.Clone()
		before, _ := smartly.Area(m)
		muxesBefore, eqsBefore := count(m)

		if _, err := rebuild.Run(m); err != nil {
			log.Fatal(err)
		}
		if err := smartly.CheckEquivalence(orig, m); err != nil {
			log.Fatalf("%s: rebuild unsound: %v", name, err)
		}
		after, _ := smartly.Area(m)
		muxesAfter, eqsAfter := count(m)

		fmt.Printf("%s: %d mux + %d eq  ->  %d mux + %d eq   (AIG area %d -> %d)\n",
			name, muxesBefore, eqsBefore, muxesAfter, eqsAfter, before, after)
	}

	// The ADD heuristic behind the rebuild, on Listing 2's pattern
	// table: the paper's good assignment (S2 first) gives 3 muxes, the
	// bad one (S0 first) expands to a 7-mux tree.
	patterns := []bdd.Pattern{
		bdd.ParsePattern("1zz", 0),
		bdd.ParsePattern("01z", 1),
		bdd.ParsePattern("001", 2),
		bdd.ParsePattern("zzz", 3),
	}
	greedy := bdd.BuildGreedy(patterns, 3)
	bad := bdd.BuildOrdered(patterns, 3, []int{0, 1, 2})
	fmt.Printf("\nListing 2 ADD: greedy assignment %d muxes, bad assignment %d muxes (tree form)\n",
		greedy.CountNodes(), bad.CountTreeNodes())
}

func count(m *smartly.Module) (muxes, eqs int) {
	for _, c := range m.Cells() {
		switch c.Type {
		case rtlil.CellMux, rtlil.CellPmux:
			muxes++
		case rtlil.CellEq:
			eqs++
		}
	}
	return
}
