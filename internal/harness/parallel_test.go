package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/genbench"
)

// timingFree encodes one case with its wall times (elapsed and stage
// times) cleared: everything else RunCases reports is deterministic.
func timingFree(t *testing.T, c CaseResult) []byte {
	t.Helper()
	runs := map[string]FlowRun{}
	for f, r := range c.Runs {
		r.ElapsedMS, r.StagesMS = 0, nil
		runs[f] = r
	}
	c.Runs = runs
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameSections fails unless two runs of a section agree on every field
// but the wall times, case by case and in the same order.
func sameSections(t *testing.T, name string, a, b Section) {
	t.Helper()
	if len(a.Cases) != len(b.Cases) || len(a.Flows) != len(b.Flows) {
		t.Fatalf("%s: shapes differ: %d cases x %v vs %d cases x %v",
			name, len(a.Cases), a.Flows, len(b.Cases), b.Flows)
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Errorf("%s: flow %d: %q vs %q", name, i, a.Flows[i], b.Flows[i])
		}
	}
	for i := range a.Cases {
		if ja, jb := timingFree(t, a.Cases[i]), timingFree(t, b.Cases[i]); !bytes.Equal(ja, jb) {
			t.Errorf("%s: case %s:\n sequential %s\n parallel   %s", name, a.Cases[i].Name, ja, jb)
		}
	}
}

// runJobs runs one case set under flows at -j 1 and -j 4.
func runJobs(t *testing.T, cases []Case, o Options) (seq, par Section) {
	t.Helper()
	var err error
	o.Jobs, o.Workers = 1, 1
	if seq, err = RunCases(cases, o); err != nil {
		t.Fatal(err)
	}
	o.Jobs, o.Workers = 4, 4
	if par, err = RunCases(cases, o); err != nil {
		t.Fatal(err)
	}
	return seq, par
}

// TestRunAllParallelDeterministic: the public benchmark set with
// Jobs/Workers=N must report exactly the same areas, hashes and
// counters, in the same order, as the fully sequential run.
func TestRunAllParallelDeterministic(t *testing.T) {
	seq, par := runJobs(t, RecipeCases(genbench.Recipes()), Options{Scale: 0.05})
	sameSections(t, "tables", seq, par)
}

// TestRunIndustrialParallel mirrors the determinism check on the
// industrial points.
func TestRunIndustrialParallel(t *testing.T) {
	seq, par := runJobs(t, IndustrialCases(2), Options{Scale: 0.03})
	if a, b := seq.AvgRatio(FlowYosys, FlowFull), par.AvgRatio(FlowYosys, FlowFull); a != b {
		t.Errorf("average extra reduction differs: %v vs %v", a, b)
	}
	sameSections(t, "industrial", seq, par)
}

// TestSectionsParallelDeterministic: the sat, egraph and corpus
// sections give the same report, timings removed, at -j 1 and -j 4.
func TestSectionsParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT-heavy; skipped under -short")
	}
	satFlows, err := SatFlows(FlowSAT, FlowFull)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := CorpusCases(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name  string
		cases []Case
		o     Options
	}{
		{"sat", RecipeCases(genbench.Recipes()), Options{Scale: 0.02, Flows: satFlows}},
		{"egraph", RecipeCases(genbench.DatapathRecipes()), Options{Scale: minScale, Flows: EgraphFlows()}},
		{"corpus", corpus, Options{Flows: CorpusFlows(), Check: true}},
	} {
		seq, par := runJobs(t, s.cases, s.o)
		sameSections(t, s.name, seq, par)
	}
}

// TestRunAllCancellation: a canceled context stops the sweep with the
// context error instead of running every case to completion.
func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCases(RecipeCases(genbench.Recipes()), Options{Scale: 0.05, Jobs: 2, Context: ctx}); err == nil {
		t.Fatal("canceled RunCases reported success")
	}
}
