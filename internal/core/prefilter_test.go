package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/genbench"
	"repro/internal/opt"
	"repro/internal/rtlil"
	"repro/internal/sim"
	"repro/internal/subgraph"
)

// noSimFilter derives the flow variant with the random-simulation
// pre-filter off in every SAT-capable pass, so all SAT-bound queries
// reach the solver.
func noSimFilter(t *testing.T, f *opt.Flow) *opt.Flow {
	t.Helper()
	for _, pass := range []string{"satmux", "smartly"} {
		var err error
		if f, err = f.WithArg(pass, "sim_filter", "false"); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// filterInvariantCounters strips the counters that legitimately differ
// when the pre-filter intercepts SAT-bound queries (solver-call
// bookkeeping, the filter's own counters), keeping every
// decided-bit outcome: filtered queries are exactly the both-values-
// witnessed ones, which the solver would have answered Sat/Sat →
// unknown.
func filterInvariantCounters(c map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range c {
		switch k {
		case "sat_calls", "sat_learnt", "sat_budget_trips",
			"oracle_sim_filtered", "oracle_sim_vectors":
			continue
		}
		out[k] = v
	}
	return out
}

// TestSimFilterMatchesUnfilteredOnTestdata is the tentpole's acceptance
// bar: on every testdata case and named flow, the pre-filtered oracle
// must produce a bit-identical netlist and identical decided-bit
// counters to the filter-off oracle, at every worker count.
func TestSimFilterMatchesUnfilteredOnTestdata(t *testing.T) {
	mods := loadTestdataModules(t)
	for _, name := range opt.FlowNames() {
		named, err := opt.NamedFlow(name)
		if err != nil {
			t.Fatal(err)
		}
		unfiltered := noSimFilter(t, named)
		for key, m := range mods {
			t.Run(name+"/"+key, func(t *testing.T) {
				run := func(f *opt.Flow, workers int) (map[string]int, []byte) {
					work := m.Clone()
					ec := opt.NewCtx(context.Background(), opt.Config{Workers: workers})
					if _, err := f.Run(ec, work); err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					rep := ec.Report()
					p := rep.Pass("smartly_satmux")
					if p == nil {
						return nil, netlistJSON(t, work)
					}
					return p.Counters, netlistJSON(t, work)
				}
				baseCounters, baseJSON := run(unfiltered, 1)
				for _, workers := range []int{1, 2, 8} {
					c, j := run(named, workers)
					if !bytes.Equal(baseJSON, j) {
						t.Errorf("netlist with sim_filter (workers=%d) differs from filter-off oracle", workers)
					}
					if !reflect.DeepEqual(filterInvariantCounters(baseCounters), filterInvariantCounters(c)) {
						t.Errorf("decided-bit counters differ (workers=%d):\nfiltered:   %v\nunfiltered: %v",
							workers, filterInvariantCounters(c), filterInvariantCounters(baseCounters))
					}
				}
			})
		}
	}
}

// TestSimFilterEffectiveness: on a SAT-heavy workload with an
// effectively unlimited conflict budget (no budget-tripped verdicts, so
// netlist equality is a hard guarantee, not a statistical one), the
// pre-filter must intercept queries and cut SAT calls, and the final
// netlist must be byte-identical to the filter-off oracle's.
func TestSimFilterEffectiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT-heavy; skipped under -short")
	}
	m := genbench.Generate(satRecipe, 0.5)
	mf, mu := m.Clone(), m.Clone()

	filtered := &SatMuxPass{Opts: SatMuxOptions{SimInputLimit: -1, MaxConflicts: 1 << 40}}
	if _, err := opt.RunScript(nil, mf, opt.ExprPass{}, filtered, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	st := filtered.LastStats
	if st.SimFiltered == 0 {
		t.Errorf("pre-filter decided no queries: %s", st)
	}
	if st.SimVectors == 0 {
		t.Errorf("no simulation vectors recorded: %s", st)
	}

	unfiltered := &SatMuxPass{Opts: SatMuxOptions{
		SimInputLimit: -1, MaxConflicts: 1 << 40, DisableSimFilter: true,
	}}
	if _, err := opt.RunScript(nil, mu, opt.ExprPass{}, unfiltered, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	if unfiltered.LastStats.SimFiltered != 0 {
		t.Errorf("filter-off oracle reported filter activity: %s", unfiltered.LastStats)
	}
	if st.SATCalls >= unfiltered.LastStats.SATCalls {
		t.Errorf("pre-filter did not reduce SAT calls: %d vs %d", st.SATCalls, unfiltered.LastStats.SATCalls)
	}
	if !bytes.Equal(netlistJSON(t, mf), netlistJSON(t, mu)) {
		t.Error("pre-filtered and filter-off netlists differ with unlimited budget")
	}
	checkEquiv(t, m, mf)
}

// TestSimulateVectorMatchesScalar is the white-box differential for the
// vectorized exhaustive stage: on sub-graphs extracted from a generated
// workload, the 64-wide sweep and the per-assignment map-based fallback
// must return identical (value, decided) answers under the same facts.
func TestSimulateVectorMatchesScalar(t *testing.T) {
	m := genbench.Generate(genbench.Recipes()[0], 0.1)
	ix := rtlil.NewIndex(m)
	s := NewSmartOracle(ix, SatMuxOptions{})
	rng := rand.New(rand.NewSource(3))
	compared := 0
	for _, c := range m.Cells() {
		if c.Type != rtlil.CellMux && c.Type != rtlil.CellPmux {
			continue
		}
		for _, target := range ix.Map(c.Port("S")) {
			if target.IsConst() {
				continue
			}
			target = ix.MapBit(target)
			sg := subgraph.Extract(ix, target, nil, subgraph.Options{})
			if len(sg.Inputs) == 0 || len(sg.Inputs) > 10 {
				continue
			}
			order := subgraph.TopoCells(ix, sg.Cells)
			cone, err := sim.NewCone(ix, order, true)
			if err != nil {
				continue
			}
			facts := map[rtlil.SigBit]rtlil.State{}
			if len(sg.Inputs) > 1 {
				facts[sg.Inputs[rng.Intn(len(sg.Inputs))]] = rtlil.BoolState(rng.Intn(2) == 1)
			}
			var stV, stS SatMuxStats
			vv, vok := s.simulateVector(cone, sg, facts, target, &stV)
			sv, sok := s.simulateScalar(order, sg, facts, target, &stS)
			if vv != sv || vok != sok {
				t.Fatalf("target %v: vector=(%v,%v) scalar=(%v,%v)", target, vv, vok, sv, sok)
			}
			if stV.UnreachablePath != stS.UnreachablePath {
				t.Fatalf("target %v: unreachable-path accounting differs", target)
			}
			compared++
		}
	}
	if compared < 10 {
		t.Fatalf("only %d sub-graphs compared; workload too small to be meaningful", compared)
	}
}

// TestSimFilterCancellation: a canceled context aborts a pre-filter-
// heavy run with the context error, and every already-applied rewrite
// is sound.
func TestSimFilterCancellation(t *testing.T) {
	m := genbench.Generate(satRecipe, 0.5)
	orig := m.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := opt.NewCtx(ctx, opt.Config{Workers: 4})
	pass := &SatMuxPass{Opts: SatMuxOptions{SimInputLimit: -1}}
	if _, err := opt.RunScript(ec, m, opt.ExprPass{}, pass, opt.CleanPass{}); err == nil {
		t.Fatal("canceled run reported success")
	}
	checkEquiv(t, orig, m)
}
