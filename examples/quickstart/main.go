// Quickstart: parse a small Verilog design containing the paper's
// Figure 3 redundancy, optimize it with the full smaRTLy pipeline, and
// compare against the Yosys baseline.
//
// This runs two of the named flows; see examples/flows for flow scripts,
// the pass registry and the structured run reports.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

const src = `
module demo(input s, input r, input [7:0] a, input [7:0] b,
            input [7:0] c, output [7:0] y);
  // Figure 3 of the paper: the inner select (s|r) is forced to 1
  // whenever the outer branch is taken, so the inner mux is redundant —
  // but the controls are different signals, which defeats the
  // traditional opt_muxtree pass.
  assign y = s ? ((s | r) ? a : b) : c;
endmodule`

func main() {
	for _, name := range []string{"yosys", "full"} {
		flow, err := smartly.NamedFlow(name)
		if err != nil {
			log.Fatal(err)
		}
		design, err := smartly.ParseVerilog(src)
		if err != nil {
			log.Fatal(err)
		}
		m := design.Top()
		orig := m.Clone()

		before, err := smartly.Area(m)
		if err != nil {
			log.Fatal(err)
		}
		report, err := flow.Run(m)
		if err != nil {
			log.Fatal(err)
		}
		after, err := smartly.Area(m)
		if err != nil {
			log.Fatal(err)
		}
		if err := smartly.CheckEquivalence(orig, m); err != nil {
			log.Fatalf("optimization is unsound: %v", err)
		}

		fmt.Printf("pipeline %-7s AIG area %3d -> %3d", name, before, after)
		if n := report.Counters()["mux_collapsed"]; n > 0 {
			fmt.Printf("  (collapsed %d redundant mux)", n)
		}
		fmt.Println()
	}
	fmt.Println("\nsmaRTLy removes the dependent-control mux the baseline cannot see.")
}
