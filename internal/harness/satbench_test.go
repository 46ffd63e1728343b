package harness

import (
	"encoding/json"
	"testing"
)

// TestRunSatBench runs the SAT-oracle section at a tiny scale: the
// counters must be populated, the sim_filter=false comparison must pass
// (RunSatBench errors on any netlist divergence without a budget trip),
// and the section must round-trip through the bench JSON.
func TestRunSatBench(t *testing.T) {
	if testing.Short() {
		t.Skip("SAT-heavy; skipped under -short")
	}
	b, err := RunSatBench([]string{FlowSAT, FlowFull}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(b.Flows))
	}
	for _, f := range b.Flows {
		if f.Queries == 0 {
			t.Errorf("%s: no oracle queries recorded", f.Flow)
		}
		if !f.NetlistsEqual && f.BudgetTrips == 0 {
			t.Errorf("%s: netlists diverged with no budget-tripped queries", f.Flow)
		}
		if f.SimFiltered == 0 {
			t.Errorf("%s: simulation pre-filter decided no queries", f.Flow)
		}
		if f.SimVectors == 0 {
			t.Errorf("%s: no simulation vectors recorded", f.Flow)
		}
		if f.SATCalls >= f.NoFilterSATCalls {
			t.Errorf("%s: pre-filter did not reduce SAT calls: %d filtered vs %d unfiltered",
				f.Flow, f.SATCalls, f.NoFilterSATCalls)
		}
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var back SatBench
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Flows[0].Queries != b.Flows[0].Queries {
		t.Error("bench section does not round-trip through JSON")
	}
	if b.String() == "" {
		t.Error("empty human-readable rendering")
	}
}

// TestRunSatBenchUnknownFlow: an unregistered flow name is an error, not
// a silent empty section.
func TestRunSatBenchUnknownFlow(t *testing.T) {
	if _, err := RunSatBench([]string{"bogus"}, 0.05); err == nil {
		t.Fatal("unknown flow accepted")
	}
}
