// Flows: compose optimization passes with the script DSL, inspect the
// pass registry, and read the structured run report.
//
// Run with: go run ./examples/flows
package main

import (
	"fmt"
	"log"

	"repro"
)

const src = `
module demo(input s, input r, input [7:0] a, input [7:0] b,
            input [7:0] c, output [7:0] y);
  // Figure 3 of the paper: the inner select (s|r) is implied by the
  // outer s, so the inner mux is redundant.
  assign y = s ? ((s | r) ? a : b) : c;
endmodule`

func main() {
	// The registry lists every pass a flow script can use.
	fmt.Println("registered passes:")
	for _, spec := range smartly.Passes() {
		fmt.Printf("  %-12s %s\n", spec.Name, spec.Summary)
	}
	fmt.Println()

	// Flows compose passes with typed options; fixpoint(iters=n) { ... }
	// repeats its body until nothing changes. NamedFlow("yosys"|"sat"|
	// "rebuild"|"full") returns the paper's pipelines.
	flows := []string{
		"fixpoint { opt_expr; opt_muxtree; opt_clean }",          // Yosys baseline
		"fixpoint { opt_expr; satmux(conflicts=64); opt_clean }", // tuned SAT budget
		"fixpoint { opt_expr; satmux; rebuild; opt_clean }",      // full smaRTLy
	}
	for _, script := range flows {
		flow, err := smartly.ParseFlow(script)
		if err != nil {
			log.Fatal(err)
		}
		design, err := smartly.ParseVerilog(src)
		if err != nil {
			log.Fatal(err)
		}
		m := design.Top()
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
		// The structured report carries per-pass counters, call counts
		// and fixpoint iterations (wall times with WithTimings()).
		fmt.Printf("flow: %s\n", flow)
		fmt.Printf("  AIG area %d -> %d\n", before, after)
		for _, p := range report.Passes {
			if len(p.Counters) > 0 {
				fmt.Printf("  %s: %v\n", p.Name, p.Counters)
			}
		}
		for _, fp := range report.Fixpoints {
			fmt.Printf("  converged after %d iterations\n", fp.Iterations)
		}
		fmt.Println()
	}
}
