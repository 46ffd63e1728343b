package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/egraph"
	"repro/internal/genbench"
	"repro/internal/opt"
	"repro/internal/rtlil"
	"repro/internal/subgraph"
)

// unfilteredPasses returns fresh passes of the named flow with the
// module signatures off in its satmux step, so every query the path
// facts leave open reaches extraction. The sat and full flows are
// rebuilt pass for pass, and their pass names are checked against the
// registered scripts; a flow without satmux compiles as registered.
func unfilteredPasses(t *testing.T, name string) []opt.Pass {
	t.Helper()
	registered, err := namedFlow(t, name).Compile()
	if err != nil {
		t.Fatal(err)
	}
	satmux := &SatMuxPass{Opts: SatMuxOptions{noSignatures: true}}
	var body []opt.Pass
	switch name {
	case "sat":
		body = []opt.Pass{opt.ExprPass{}, satmux, opt.CleanPass{}}
	case "full":
		body = []opt.Pass{opt.ExprPass{}, satmux, &RebuildPass{}, &egraph.Pass{}, opt.DffPass{}, opt.CleanPass{}}
	default:
		for _, p := range registered {
			if strings.Contains(p.Name(), satmux.Name()) {
				t.Fatalf("flow %s runs satmux but has no filter-off twin", name)
			}
		}
		return registered
	}
	unfiltered := opt.Fixpoint(0, body...)
	if len(registered) != 1 || unfiltered.Name() != registered[0].Name() {
		t.Fatalf("filter-off %s flow %s does not match the registered flow", name, unfiltered.Name())
	}
	return []opt.Pass{unfiltered}
}

// filterInvariantCounters strips the counters that legitimately differ
// when the signatures refute queries (solver-call bookkeeping, the
// filter's own counters), keeping every decided-bit outcome: refuted
// queries are exactly the both-values-witnessed ones, which every later
// stage would have left unknown.
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

// TestSimFilterMatchesUnfilteredOnTestdata: the filtered oracle must
// produce a bit-identical netlist and identical decided-bit counters to
// the filter-off oracle, at every worker count: on every testdata case
// under every named flow, and on the benchmark recipes and three
// industrial points under the sat and full flows.
func TestSimFilterMatchesUnfilteredOnTestdata(t *testing.T) {
	check := func(t *testing.T, name string, m *rtlil.Module) {
		run := func(workers int, passes ...opt.Pass) (map[string]int, []byte) {
			work := m.Clone()
			ec := opt.NewCtx(context.Background(), opt.Config{Workers: workers})
			if _, err := opt.RunScript(ec, work, passes...); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			rep := ec.Report()
			p := rep.Pass("smartly_satmux")
			if p == nil {
				return nil, netlistJSON(t, work)
			}
			return p.Counters, netlistJSON(t, work)
		}
		baseCounters, baseJSON := run(1, unfilteredPasses(t, name)...)
		for _, workers := range []int{1, 2, 8} {
			passes, err := namedFlow(t, name).Compile()
			if err != nil {
				t.Fatal(err)
			}
			c, j := run(workers, passes...)
			if !bytes.Equal(baseJSON, j) {
				t.Errorf("netlist with the signatures (workers=%d) differs from the filter-off oracle's", workers)
			}
			if !reflect.DeepEqual(filterInvariantCounters(baseCounters), filterInvariantCounters(c)) {
				t.Errorf("decided-bit counters differ (workers=%d):\nfiltered:   %v\nunfiltered: %v",
					workers, filterInvariantCounters(c), filterInvariantCounters(baseCounters))
			}
		}
	}
	mods := loadTestdataModules(t)
	for _, name := range opt.FlowNames() {
		for key, m := range mods {
			t.Run(name+"/"+key, func(t *testing.T) { check(t, name, m) })
		}
	}

	scale := 0.05
	if testing.Short() {
		scale = 0.01
	}
	var keys []string
	var gen []*rtlil.Module
	for _, r := range genbench.Recipes() {
		keys, gen = append(keys, r.Name), append(gen, genbench.Generate(r, scale))
	}
	for point := range 3 {
		keys = append(keys, fmt.Sprintf("point-%d", point))
		gen = append(gen, genbench.Generate(genbench.IndustrialRecipe(point), scale))
	}
	for _, name := range []string{"sat", "full"} {
		for i, m := range gen {
			t.Run(name+"/genbench/"+keys[i], func(t *testing.T) { check(t, name, m) })
		}
	}
}

// TestSimFilterEffectiveness: on a SAT-heavy workload with an
// effectively unlimited conflict budget (no budget-tripped verdicts, so
// netlist equality is a hard guarantee, not a statistical one), the
// module signatures must refute queries before they reach the solver
// and cut SAT calls, and the final netlist must be byte-identical to
// the filter-off oracle's.
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
		t.Errorf("signatures refuted no queries: %s", st)
	}
	if st.SimVectors == 0 {
		t.Errorf("no simulation vectors recorded: %s", st)
	}

	unfiltered := &SatMuxPass{Opts: SatMuxOptions{
		SimInputLimit: -1, MaxConflicts: 1 << 40, noSignatures: true,
	}}
	if _, err := opt.RunScript(nil, mu, opt.ExprPass{}, unfiltered, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	if unfiltered.LastStats.SimFiltered != 0 {
		t.Errorf("filter-off oracle reported filter activity: %s", unfiltered.LastStats)
	}
	if st.SATCalls >= unfiltered.LastStats.SATCalls {
		t.Errorf("signatures did not reduce SAT calls: %d vs %d", st.SATCalls, unfiltered.LastStats.SATCalls)
	}
	if !bytes.Equal(netlistJSON(t, mf), netlistJSON(t, mu)) {
		t.Error("filtered and filter-off netlists differ with unlimited budget")
	}
	checkEquiv(t, m, mf)
}

// multiHotModule builds y = ctrl ? d1 : d0 with
// ctrl = pmux(1'b0, {1'b0, 1'b1}, {s0, s1}) & s0 (lists LSB first). With
// both selects active the AIG lowering lets s1's word win, so
// ctrl = s0 & s1 is not constant; reading two active selects as 0 would
// make it constant 0.
func multiHotModule() *rtlil.Module {
	m := rtlil.NewModule("multihot")
	s0 := m.AddInput("s0", 1).Bits()
	s1 := m.AddInput("s1", 1).Bits()
	d0 := m.AddInput("d0", 1).Bits()
	d1 := m.AddInput("d1", 1).Bits()
	words := []rtlil.SigSpec{rtlil.Const(0, 1), rtlil.Const(1, 1)}
	ctrl := m.And(m.Pmux(rtlil.Const(0, 1), words, rtlil.Concat(s0, s1)), s0)
	y := m.AddOutput("y", 1)
	m.AddMux("root", d0, d1, ctrl, y.Bits())
	return m
}

// TestSimulationAgreesWithSAT: the exhaustive sweep and the SAT stage
// give the same value (Sx when undecided) on the same query. The queries
// are every mux-control sub-graph with at most 10 inputs from four
// generated workloads and the multi-hot pmux module, each asked with no
// fact and with one random input fact and extracted from the test's own
// sub-graph adjacency; the SAT stage has an unlimited conflict budget. The multi-hot module's satmux and sat-flow results must also
// keep the root mux and pass CEC.
func TestSimulationAgreesWithSAT(t *testing.T) {
	mods := []*rtlil.Module{multiHotModule()}
	for _, r := range genbench.Recipes()[:4] {
		mods = append(mods, genbench.Generate(r, 0.1))
	}
	rng := rand.New(rand.NewSource(3))
	compared, decided := 0, 0
	for _, m := range mods {
		ix := rtlil.NewIndex(m)
		s := NewSmartOracle(ix, SatMuxOptions{SimInputLimit: -1, noSignatures: true, MaxConflicts: 1 << 40})
		g := subgraph.NewGraph(ix)
		for _, c := range m.Cells() {
			if c.Type != rtlil.CellMux && c.Type != rtlil.CellPmux {
				continue
			}
			for _, target := range ix.Map(c.Port("S")) {
				if target.IsConst() {
					continue
				}
				sg := g.Extract(target, nil, subgraph.Options{})
				if len(sg.Inputs) == 0 || len(sg.Inputs) > 10 {
					continue
				}
				var none, one opt.PathFacts
				one.Push(sg.Inputs[rng.Intn(len(sg.Inputs))], rtlil.BoolState(rng.Intn(2) == 1))
				for _, facts := range []*opt.PathFacts{&none, &one} {
					newQuery := func() *query {
						return &query{
							target: target,
							sg:     sg,
							knowns: facts.Bits(),
							vals:   facts.States(),
						}
					}
					var st SatMuxStats
					simV := s.sweep(newQuery(), &st)
					satV := s.satSolve(newQuery(), &st)
					if simV != satV {
						t.Fatalf("%s: target %v facts %v=%v: sweep=%v sat=%v",
							m.Name, target, facts.Bits(), facts.States(), simV, satV)
					}
					compared++
					if simV != rtlil.Sx {
						decided++
					}
				}
			}
		}
	}
	t.Logf("%d queries compared, %d decided", compared, decided)
	if compared < 100 || decided == 0 {
		t.Fatalf("only %d queries compared (%d decided); workloads too small to be meaningful", compared, decided)
	}

	orig := multiHotModule()
	satmux := orig.Clone()
	if _, err := opt.RunScript(nil, satmux, &SatMuxPass{}); err != nil {
		t.Fatal(err)
	}
	flow := orig.Clone()
	if _, err := namedFlow(t, "sat").Run(opt.Background(), flow); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*rtlil.Module{"satmux": satmux, "sat flow": flow} {
		if n := countType(got, rtlil.CellMux); n != 1 {
			t.Errorf("%s: %d $mux cells left, want the root mux", name, n)
		}
		checkEquiv(t, orig, got)
	}
}

// TestSimFilterCancellation: a canceled context aborts a filter-heavy
// run with the context error, and every already-applied rewrite is
// sound.
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
