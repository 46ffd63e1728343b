package core

import (
	"bytes"
	"context"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/genbench"
	"repro/internal/opt"
	"repro/internal/rtlil"
)

// netlistJSON renders the module as the canonical JSON used to compare
// optimization outcomes byte for byte.
func netlistJSON(t *testing.T, m *rtlil.Module) []byte {
	t.Helper()
	d := rtlil.NewDesign()
	d.AddModule(m)
	var buf bytes.Buffer
	if err := rtlil.WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parallelRecipe mixes dependent controls (simulation/SAT queries) and
// case chains (pmux select scans, the batched hot path) so the worker
// pool is actually exercised.
var parallelRecipe = genbench.Recipe{
	Name: "par", Seed: 91,
	DepBlocks: 12, CaseBlocks: 6, RedundantBlocks: 4,
	CaseSelBits: [2]int{3, 4}, DataWidth: 6, PmuxFraction: 0.7,
}

// TestParallelSatMuxDeterministic: the full pipeline with workers=N must
// produce a byte-identical netlist and identical result/oracle counters
// to workers=1 — the acceptance bar for the parallel SAT-mux path.
func TestParallelSatMuxDeterministic(t *testing.T) {
	type outcome struct {
		json    []byte
		details map[string]int
		stats   SatMuxStats
	}
	run := func(workers int) outcome {
		m := genbench.Generate(parallelRecipe, 1)
		ec := opt.NewCtx(context.Background(), opt.Config{Workers: workers})
		pass := &SatMuxPass{}
		r, err := opt.RunScript(ec, m, opt.ExprPass{}, pass, &RebuildPass{}, opt.CleanPass{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outcome{json: netlistJSON(t, m), details: r.Details, stats: pass.LastStats}
	}

	seq := run(1)
	for _, workers := range []int{2, 8} {
		par := run(workers)
		if !bytes.Equal(seq.json, par.json) {
			t.Errorf("workers=%d: netlist JSON differs from sequential run", workers)
		}
		if !reflect.DeepEqual(seq.details, par.details) {
			t.Errorf("workers=%d: result details differ:\nseq: %v\npar: %v", workers, seq.details, par.details)
		}
		if seq.stats != par.stats {
			t.Errorf("workers=%d: oracle stats differ:\nseq: %+v\npar: %+v", workers, seq.stats, par.stats)
		}
	}
}

// TestSatMuxRepeatableAcrossRuns guards the determinism groundwork
// (sorted facts, fixed port orders): two identical sequential runs must
// agree bit for bit, regardless of Go's map iteration order.
func TestSatMuxRepeatableAcrossRuns(t *testing.T) {
	run := func() []byte {
		m := genbench.Generate(parallelRecipe, 1)
		if _, err := opt.RunScript(nil, m, opt.ExprPass{}, &SatMuxPass{}, opt.CleanPass{}); err != nil {
			t.Fatal(err)
		}
		return netlistJSON(t, m)
	}
	if !bytes.Equal(run(), run()) {
		t.Error("two sequential runs produced different netlists")
	}
}

// TestSatMuxCancellation: a canceled context aborts the pass with the
// context error, and the partially optimized module is still equivalent
// to the input (every applied rewrite is individually sound).
func TestSatMuxCancellation(t *testing.T) {
	m := genbench.Generate(parallelRecipe, 1)
	orig := m.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := opt.NewCtx(ctx, opt.Config{Workers: 4})
	_, err := opt.RunScript(ec, m, opt.ExprPass{}, &SatMuxPass{}, opt.CleanPass{})
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	checkEquiv(t, orig, m)
}

// TestSatMuxStageTimes: the pass reports busy time for the oracle
// stages it ran, by stage name, and stripping the report's timings
// drops them while the counters match an untimed read of the same run.
func TestSatMuxStageTimes(t *testing.T) {
	m := genbench.Generate(parallelRecipe, 1)
	ec := opt.NewCtx(context.Background(), opt.Config{Workers: 2})
	pass := &SatMuxPass{}
	if _, err := opt.RunScript(ec, m, opt.ExprPass{}, pass); err != nil {
		t.Fatal(err)
	}
	rep := ec.Report()
	p := rep.Pass(pass.Name())
	if p == nil || p.Counters["oracle_queries"] == 0 {
		t.Fatalf("satmux asked no queries: %+v", p)
	}
	for _, stage := range []string{"index", "extract", "infer"} {
		if p.Stages[stage] <= 0 {
			t.Errorf("stage %s has no time: %v", stage, p.Stages)
		}
	}
	for stage := range p.Stages {
		if !slices.Contains(stageNames[:], stage) {
			t.Errorf("unknown stage %q", stage)
		}
	}
	// The walk's rewrite counters ride along; the oracle's are all
	// there unchanged.
	for k, v := range pass.LastStats.Details() {
		if p.Counters[k] != v {
			t.Errorf("counter %s = %d, want %d", k, p.Counters[k], v)
		}
	}
	counters := maps.Clone(p.Counters)
	rep.StripTimings()
	if p := rep.Pass(pass.Name()); p.Stages != nil || !maps.Equal(p.Counters, counters) {
		t.Errorf("stripped report: stages %v, counters changed %v", p.Stages, !maps.Equal(p.Counters, counters))
	}
}
