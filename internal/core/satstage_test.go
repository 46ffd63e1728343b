package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/genbench"
	"repro/internal/opt"
	"repro/internal/rtlil"
	"repro/internal/verilog"
)

// loadTestdataModules elaborates every module of every testdata/*.v case,
// keyed "file/module".
func loadTestdataModules(t *testing.T) map[string]*rtlil.Module {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.v"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata cases: %v", err)
	}
	out := map[string]*rtlil.Module{}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := verilog.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		d, err := verilog.Elaborate(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, m := range d.Modules() {
			out[filepath.Base(path)+"/"+m.Name] = m
		}
	}
	return out
}

// TestOracleCounterDeterminism asserts the full oracle counter set is
// bit-identical for -j 1/2/8 on the committed testdata cases, along with
// the netlists.
func TestOracleCounterDeterminism(t *testing.T) {
	mods := loadTestdataModules(t)
	flow, err := opt.NamedFlow("sat")
	if err != nil {
		t.Fatal(err)
	}
	for key, m := range mods {
		run := func(workers int) (map[string]int, []byte) {
			work := m.Clone()
			ec := opt.NewCtx(context.Background(), opt.Config{Workers: workers})
			if _, err := flow.Run(ec, work); err != nil {
				t.Fatalf("%s workers=%d: %v", key, workers, err)
			}
			rep := ec.Report()
			p := rep.Pass("smartly_satmux")
			if p == nil {
				t.Fatalf("%s: no satmux report", key)
			}
			return p.Counters, netlistJSON(t, work)
		}
		seqCounters, seqJSON := run(1)
		for _, workers := range []int{2, 8} {
			c, j := run(workers)
			if !reflect.DeepEqual(seqCounters, c) {
				t.Errorf("%s: counters differ between -j 1 and -j %d:\n%v\n%v", key, workers, seqCounters, c)
			}
			if !bytes.Equal(seqJSON, j) {
				t.Errorf("%s: netlist differs between -j 1 and -j %d", key, workers)
			}
		}
	}
}

// satRecipe generates enough wide-input selection logic that queries
// reach the SAT stage (sub-graphs above the exhaustive-simulation input
// limit).
var satRecipe = genbench.Recipe{
	Name: "satheavy", Seed: 17,
	DepBlocks: 10, CaseBlocks: 5, RedundantBlocks: 4,
	CaseSelBits: [2]int{3, 4}, DataWidth: 8, PmuxFraction: 0.7,
}

// TestSatHeavyOracle drives every undecided query through the solver:
// SimInputLimit -1 skips exhaustive simulation (the ablation_test
// "sat_only" pattern) and DisableSimFilter keeps the random-simulation
// pre-filter from deciding queries first. The committed workloads mostly
// fit exhaustive simulation, and this test is about the SAT stage: it
// must run, and every rewrite it drives must preserve equivalence.
func TestSatHeavyOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT-heavy; skipped under -short")
	}
	m := genbench.Generate(satRecipe, 0.5)
	work := m.Clone()
	pass := &SatMuxPass{Opts: SatMuxOptions{SimInputLimit: -1, DisableSimFilter: true}}
	if _, err := opt.RunScript(nil, work, opt.ExprPass{}, pass, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	if pass.LastStats.SATCalls == 0 {
		t.Fatalf("workload never reached the SAT stage: %s", pass.LastStats)
	}
	if pass.LastStats.SATHits == 0 {
		t.Errorf("SAT stage decided no query: %s", pass.LastStats)
	}
	checkEquiv(t, m, work)
}

// unmappableModule builds selection logic whose control cone contains a
// $div cell — recognized by the cell library and the simulator, but
// deliberately not AIG-mappable — wide enough that the query must go to
// SAT rather than exhaustive simulation.
func unmappableModule(t *testing.T) *rtlil.Module {
	t.Helper()
	m := rtlil.NewModule("unmappable")
	a := m.AddInput("a", 8).Bits()
	b := m.AddInput("b", 8).Bits()
	q := m.NewWireHint("q", 8)
	m.AddBinary(rtlil.CellDiv, "div0", a, b, q.Bits())
	// Control: |q & (a != b) — the cone includes the divider and 16 free
	// input bits, above the default SimInputLimit of 11.
	anyQ := m.ReduceOr(q.Bits())
	ne := m.Ne(a, b)
	ctrl := m.And(anyQ, ne)
	// A muxtree the walker will query: the inner mux shares the control,
	// so the path fact makes the inner control's value decidable — if the
	// cone were mappable.
	d0 := m.AddInput("d0", 4).Bits()
	d1 := m.AddInput("d1", 4).Bits()
	inner := m.NewWireHint("inner", 4)
	m.AddMux("m_in", d0, d1, ctrl, inner.Bits())
	y := m.AddOutput("y", 4)
	m.AddMux("m_out", d1, inner.Bits(), ctrl, y.Bits())
	if err := m.Validate(); err != nil {
		t.Fatalf("module invalid: %v", err)
	}
	return m
}

// TestMapFailuresCounted: a cone containing an unmappable cell must be
// counted (once per abandoned SAT query), and must not crash or decide
// the queried bit. (cec cannot miter $div either, so the soundness
// assertion here is structural: the undecidable root mux survives.)
func TestMapFailuresCounted(t *testing.T) {
	m := unmappableModule(t)
	pass := &SatMuxPass{}
	if _, err := opt.RunScript(nil, m, pass); err != nil {
		t.Fatal(err)
	}
	st := pass.LastStats
	if st.MapFailures == 0 {
		t.Errorf("unmappable cone not counted: %s", st)
	}
	if st.SATHits != 0 {
		t.Errorf("SAT decided a bit through an unmappable cone: %s", st)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("module invalid after pass: %v", err)
	}
	root := false
	for _, c := range m.Cells() {
		if c.Name == "m_out" {
			root = true
		}
	}
	if !root {
		t.Error("root mux with undecidable control was removed")
	}
}
