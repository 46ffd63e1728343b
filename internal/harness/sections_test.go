package harness

import (
	"encoding/json"
	"testing"

	"repro/internal/genbench"
)

// minScale rounds every recipe's block counts down to one block each.
const minScale = 0.005

// total sums one counter of one flow over a section's cases.
func total(s Section, flow, pass, key string) int {
	n := 0
	for _, c := range s.Cases {
		n += c.Runs[flow].Counter(pass, key)
	}
	return n
}

// roundTrip encodes a section and decodes it back.
func roundTrip(t *testing.T, s Section) Section {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Section
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	return back
}

// TestRunSatBench runs the sat section at a tiny scale: the counters
// must be populated, the sim_filter=false comparison must pass
// (CheckSimFilter errors on any netlist divergence without a budget
// trip), and the section must round-trip through the bench JSON.
func TestRunSatBench(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT-heavy; skipped under -short")
	}
	flows, err := SatFlows(FlowSAT, FlowFull)
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunCases(RecipeCases(genbench.Recipes()), Options{Scale: 0.05, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{FlowSAT, FlowSAT + noFilter, FlowFull, FlowFull + noFilter}
	if len(s.Flows) != len(want) {
		t.Fatalf("flows = %v, want %v", s.Flows, want)
	}
	for i := range want {
		if s.Flows[i] != want[i] {
			t.Fatalf("flows = %v, want %v", s.Flows, want)
		}
	}
	if err := CheckSimFilter(s); err != nil {
		t.Error(err)
	}
	for _, f := range []string{FlowSAT, FlowFull} {
		if total(s, f, satPass, "oracle_queries") == 0 {
			t.Errorf("%s: no oracle queries recorded", f)
		}
		if total(s, f, satPass, "oracle_sim_filtered") == 0 {
			t.Errorf("%s: simulation pre-filter decided no queries", f)
		}
		if total(s, f, satPass, "oracle_sim_vectors") == 0 {
			t.Errorf("%s: no simulation vectors recorded", f)
		}
		calls, nfCalls := total(s, f, satPass, "sat_calls"), total(s, f+noFilter, satPass, "sat_calls")
		if calls >= nfCalls {
			t.Errorf("%s: pre-filter did not reduce SAT calls: %d filtered vs %d unfiltered", f, calls, nfCalls)
		}
	}
	if back := roundTrip(t, s); total(back, FlowSAT, satPass, "oracle_queries") != total(s, FlowSAT, satPass, "oracle_queries") {
		t.Error("section does not round-trip through JSON")
	}
	if SatTable(s) == "" {
		t.Error("empty human-readable rendering")
	}
}

// TestCheckSimFilter: a flow and its ablation may only diverge after a
// budget trip on either side.
func TestCheckSimFilter(t *testing.T) {
	tripped := FlowRun{Hash: "b", Counters: map[string]map[string]int{satPass: {"sat_budget_trips": 1}}}
	s := Section{Flows: []string{FlowSAT, FlowSAT + noFilter}, Cases: []CaseResult{{Name: "c",
		Runs: map[string]FlowRun{FlowSAT: {Hash: "a"}, FlowSAT + noFilter: {Hash: "a"}}}}}
	if err := CheckSimFilter(s); err != nil {
		t.Errorf("equal hashes rejected: %v", err)
	}
	s.Cases[0].Runs[FlowSAT+noFilter] = FlowRun{Hash: "b"}
	if err := CheckSimFilter(s); err == nil {
		t.Error("divergence without a budget trip accepted")
	}
	s.Cases[0].Runs[FlowSAT+noFilter] = tripped
	if err := CheckSimFilter(s); err != nil {
		t.Errorf("divergence after a budget trip rejected: %v", err)
	}
}

// TestRunSatBenchUnknownFlow: an unregistered flow name is an error, not
// a silent empty section.
func TestRunSatBenchUnknownFlow(t *testing.T) {
	if _, err := SatFlows("bogus"); err == nil {
		t.Fatal("unknown flow accepted")
	}
}

// TestRunEgraphBench runs the egraph section at the smallest scale: the
// datapath flow must beat both the yosys baseline and the pre-egraph
// full pipeline on every case (the section's reason to exist — these
// designs used to win nothing), every shipped rewrite must have been
// proved, and the section must round-trip through the bench JSON.
func TestRunEgraphBench(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT-heavy (per-cone proofs); skipped under -short")
	}
	s, err := RunCases(RecipeCases(genbench.DatapathRecipes()), Options{Scale: minScale, Flows: EgraphFlows()})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cases) == 0 {
		t.Fatal("no datapath cases")
	}
	for _, c := range s.Cases {
		if c.Original == 0 {
			t.Errorf("%s: no original area", c.Name)
		}
		if c.Runs["datapath"].Counter("opt_egraph", "egraph_verified") == 0 {
			t.Errorf("%s: datapath flow proved no rewrites", c.Name)
		}
		if dp := c.Reduction("datapath"); dp <= c.Reduction("full_noegraph") || dp <= c.Reduction(FlowYosys) {
			t.Errorf("%s: datapath (%.1f%%) does not beat yosys (%.1f%%) and the pre-egraph full (%.1f%%)",
				c.Name, dp, c.Reduction(FlowYosys), c.Reduction("full_noegraph"))
		}
		if c.Area(FlowFull) > c.Area("datapath") {
			t.Errorf("%s: full (%d) worse than datapath (%d)", c.Name, c.Area(FlowFull), c.Area("datapath"))
		}
	}
	if back := roundTrip(t, s); total(back, "datapath", "opt_egraph", "egraph_verified") !=
		total(s, "datapath", "opt_egraph", "egraph_verified") {
		t.Error("section does not round-trip through JSON")
	}
	if EgraphTable(s) == "" {
		t.Error("empty human-readable rendering")
	}
}
