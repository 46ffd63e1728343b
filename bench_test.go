package smartly_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation:
//
//	BenchmarkTableII          — Table II rows (areas + extra-reduction ratio)
//	BenchmarkTableIII         — Table III rows (SAT / Rebuild / Full splits)
//	BenchmarkIndustrial       — §IV-B industrial summary
//	BenchmarkFigure3          — the dependent-control collapse (Figure 3)
//	BenchmarkRebuildHeuristic — greedy vs bad ADD variable assignment (Listing 2)
//
// plus BenchmarkSimVsSAT, which sweeps the simulation/SAT decision
// threshold.
//
// Benchmarks run at a reduced scale (default 0.1, override with
// SMARTLY_BENCH_SCALE); cmd/smartly-bench reproduces the full calibrated
// tables. Areas are attached as custom metrics.

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro"
	"repro/internal/bdd"
	"repro/internal/core"
	"repro/internal/genbench"
	"repro/internal/harness"
	"repro/internal/rtlil"
	"repro/internal/subgraph"
)

func benchScale() float64 {
	if s := os.Getenv("SMARTLY_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

// benchCase measures one case under the paper's four flows b.N times.
func benchCase(b *testing.B, c harness.Case) harness.CaseResult {
	var sec harness.Section
	var err error
	for i := 0; i < b.N; i++ {
		sec, err = harness.RunCases([]harness.Case{c}, harness.Options{Scale: benchScale()})
		if err != nil {
			b.Fatal(err)
		}
	}
	return sec.Cases[0]
}

// BenchmarkTableII regenerates the Table II rows: original/Yosys/smaRTLy
// areas and the extra-reduction ratio per benchmark case.
func BenchmarkTableII(b *testing.B) {
	for _, c := range harness.RecipeCases(genbench.Recipes()) {
		b.Run(c.Name, func(b *testing.B) {
			cr := benchCase(b, c)
			b.ReportMetric(float64(cr.Original), "area_original")
			b.ReportMetric(float64(cr.Area(harness.FlowYosys)), "area_yosys")
			b.ReportMetric(float64(cr.Area(harness.FlowFull)), "area_smartly")
			b.ReportMetric(cr.RatioFull(), "ratio_%")
		})
	}
}

// BenchmarkTableIII regenerates the Table III splits: the reduction each
// individual method achieves versus the combined optimization.
func BenchmarkTableIII(b *testing.B) {
	for _, c := range harness.RecipeCases(genbench.Recipes()) {
		b.Run(c.Name, func(b *testing.B) {
			cr := benchCase(b, c)
			b.ReportMetric(cr.RatioSAT(), "sat_%")
			b.ReportMetric(cr.RatioRebuild(), "rebuild_%")
			b.ReportMetric(cr.RatioFull(), "full_%")
		})
	}
}

// BenchmarkIndustrial regenerates the §IV-B experiment: extra AIG-area
// reduction over Yosys on industrial-style selection-heavy netlists
// (paper: 47.2%).
func BenchmarkIndustrial(b *testing.B) {
	var res harness.Section
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.RunCases(harness.IndustrialCases(2), harness.Options{Scale: benchScale()})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AvgRatio(harness.FlowYosys, harness.FlowFull), "extra_reduction_%")
}

// BenchmarkFigure3 measures the flagship single-circuit optimization:
// Y = S ? ((S|R) ? A : B) : C collapsing to Y = S ? A : C.
func BenchmarkFigure3(b *testing.B) {
	build := func() *smartly.Module {
		m := smartly.NewModule("fig3")
		a := m.AddInput("a", 8).Bits()
		bb := m.AddInput("b", 8).Bits()
		c := m.AddInput("c", 8).Bits()
		s := m.AddInput("s", 1).Bits()
		r := m.AddInput("r", 1).Bits()
		inner := m.Mux(bb, a, m.Or(s, r))
		y := m.AddOutput("y", 8).Bits()
		m.AddMux("root", c, inner, s, y)
		return m
	}
	flow, err := smartly.NamedFlow("full")
	if err != nil {
		b.Fatal(err)
	}
	var after int
	for i := 0; i < b.N; i++ {
		m := build()
		if _, err := flow.Run(m); err != nil {
			b.Fatal(err)
		}
		a, err := smartly.Area(m)
		if err != nil {
			b.Fatal(err)
		}
		after = a
	}
	b.ReportMetric(float64(after), "area_after")
}

// BenchmarkRebuildHeuristic compares the greedy ADD variable assignment with
// the paper's bad order on the Listing 2 table (3 vs 7 muxes).
func BenchmarkRebuildHeuristic(b *testing.B) {
	patterns := []bdd.Pattern{
		bdd.ParsePattern("1zz", 0),
		bdd.ParsePattern("01z", 1),
		bdd.ParsePattern("001", 2),
		bdd.ParsePattern("zzz", 3),
	}
	b.Run("greedy", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes = bdd.BuildGreedy(patterns, 3).CountNodes()
		}
		b.ReportMetric(float64(nodes), "muxes")
	})
	b.Run("bad_order", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes = bdd.BuildOrdered(patterns, 3, []int{0, 1, 2}).CountTreeNodes()
		}
		b.ReportMetric(float64(nodes), "muxes")
	})
	b.Run("natural_order", func(b *testing.B) {
		var nodes int
		for i := 0; i < b.N; i++ {
			nodes = bdd.BuildOrdered(patterns, 3, []int{2, 1, 0}).CountNodes()
		}
		b.ReportMetric(float64(nodes), "muxes")
	})
}

// BenchmarkSimVsSAT sweeps the simulation/SAT decision threshold (the
// paper chooses "between these methods based on the number of inputs").
func BenchmarkSimVsSAT(b *testing.B) {
	recipe := genbench.Recipe{
		Name: "simsat-probe", Seed: 10,
		DepBlocks:   40,
		CaseSelBits: [2]int{3, 4}, DataWidth: 8, PmuxFraction: 0.5,
	}
	for _, limit := range []int{-1, 4, 11, 16} {
		b.Run(fmt.Sprintf("sim_limit_%d", limit), func(b *testing.B) {
			var stats core.SatMuxStats
			for i := 0; i < b.N; i++ {
				m := genbench.Generate(recipe, 1)
				pass := &core.SatMuxPass{Opts: core.SatMuxOptions{SimInputLimit: limit}}
				if _, err := pass.Run(nil, m); err != nil {
					b.Fatal(err)
				}
				stats = pass.LastStats
			}
			b.ReportMetric(float64(stats.SimHits), "sim_hits")
			b.ReportMetric(float64(stats.SATHits), "sat_hits")
		})
	}
}

// BenchmarkSubgraphExtract measures one oracle query's sub-graph
// extraction (Graph.Extract; the graph is built outside the timer).
func BenchmarkSubgraphExtract(b *testing.B) {
	m := genbench.Generate(genbench.Recipe{
		Name: "extract-probe", Seed: 11,
		PlainBlocks: 100, DepBlocks: 50,
		CaseSelBits: [2]int{3, 4}, DataWidth: 8, PmuxFraction: 0.5,
	}, 1)
	ix := rtlil.NewIndex(m)
	var target rtlil.SigBit
	var known []rtlil.SigBit
	for _, c := range m.Cells() {
		if c.Type == rtlil.CellMux {
			target = ix.MapBit(c.Port("S")[0])
			known = append(known[:0], ix.MapBit(c.Port("Y")[0]))
			break
		}
	}
	g := subgraph.NewGraph(ix)
	b.ReportAllocs()
	for b.Loop() {
		g.Extract(target, known, subgraph.Options{})
	}
}

// BenchmarkPipelines measures wall-clock of the paper's four named
// flows on a mixed mid-size circuit (runtime comparison, not in the
// paper's tables but useful for regressions).
func BenchmarkPipelines(b *testing.B) {
	recipe := genbench.Recipes()[2] // wb_conmax: mixed content
	for _, name := range []string{"yosys", "sat", "rebuild", "full"} {
		flow, err := smartly.NamedFlow(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := genbench.Generate(recipe, benchScale())
				b.StartTimer()
				if _, err := flow.Run(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAIGMapping measures the aigmap-equivalent conversion.
func BenchmarkAIGMapping(b *testing.B) {
	m := genbench.Generate(genbench.Recipes()[0], benchScale())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smartly.Area(m); err != nil {
			b.Fatal(err)
		}
	}
}
