// Industrial reproduces the paper's §IV-B experiment at example scale:
// an industrial-style netlist (selection-logic heavy, controls logically
// dependent rather than identical) where the Yosys baseline barely
// helps and smaRTLy removes nearly half of the remaining AIG area.
//
// Run with: go run ./examples/industrial [-scale 0.2] [-points 2]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/rtlil"
)

func main() {
	scale := flag.Float64("scale", 0.15, "circuit scale factor")
	points := flag.Int("points", 2, "number of industrial test points")
	flag.Parse()

	fmt.Printf("%-8s %10s %10s %10s %10s\n", "point", "original", "yosys", "smartly", "extra")
	var sum float64
	for p := 0; p < *points; p++ {
		m := smartly.GenerateIndustrial(p, *scale)
		stats := rtlil.CollectStats(m)
		orig, err := smartly.Area(m)
		if err != nil {
			log.Fatal(err)
		}

		areas := map[string]int{}
		for _, name := range []string{"yosys", "full"} {
			flow, err := smartly.NamedFlow(name)
			if err != nil {
				log.Fatal(err)
			}
			work := m.Clone()
			if _, err := flow.Run(work); err != nil {
				log.Fatal(err)
			}
			a, err := smartly.Area(work)
			if err != nil {
				log.Fatal(err)
			}
			areas[name] = a
		}
		extra := 100 * float64(areas["yosys"]-areas["full"]) / float64(areas["yosys"])
		sum += extra
		fmt.Printf("%-8d %10d %10d %10d %9.1f%%   (%d cells, %d muxes)\n",
			p, orig, areas["yosys"], areas["full"], extra,
			stats.NumCells, stats.NumMuxes)
	}
	fmt.Printf("\naverage extra reduction vs Yosys: %.1f%% (paper reports 47.2%%)\n",
		sum/float64(*points))
}
