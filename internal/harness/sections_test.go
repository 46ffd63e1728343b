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
