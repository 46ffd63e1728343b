package harness

import (
	"fmt"
	"testing"

	"repro/internal/genbench"
)

// TestDiagnoseBlocks measures the per-class optimization yield of each
// generator block type in isolation (development aid for calibration).
func TestDiagnoseBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic skipped in -short mode")
	}
	base := genbench.Recipe{
		Name: "diag", Seed: 77,
		CaseSelBits: [2]int{4, 5}, DataWidth: 10,
		PmuxFraction: 0.4, SparseTerminals: true,
	}
	classes := map[string]func(r *genbench.Recipe){
		"dep":       func(r *genbench.Recipe) { r.DepBlocks = 60 },
		"case":      func(r *genbench.Recipe) { r.CaseBlocks = 60 },
		"casechain": func(r *genbench.Recipe) { r.CaseBlocks = 60; r.PmuxFraction = 0 },
		"casepmux":  func(r *genbench.Recipe) { r.CaseBlocks = 60; r.PmuxFraction = 1 },
		"synergy":   func(r *genbench.Recipe) { r.SynergyBlocks = 60 },
		"plain":     func(r *genbench.Recipe) { r.PlainBlocks = 60 },
		"red":       func(r *genbench.Recipe) { r.RedundantBlocks = 60 },
	}
	for name, set := range classes {
		r := base
		set(&r)
		cr := runCase(t, r, Options{Scale: 1})
		fmt.Printf("%-10s orig=%6d yosys=%6d sat=%6d reb=%6d full=%6d  satR=%5.1f%% rebR=%5.1f%% fullR=%5.1f%%\n",
			name, cr.Original, cr.Area(FlowYosys), cr.Area(FlowSAT),
			cr.Area(FlowRebuild), cr.Area(FlowFull),
			cr.RatioSAT(), cr.RatioRebuild(), cr.RatioFull())
	}
}
