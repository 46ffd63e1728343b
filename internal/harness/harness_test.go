package harness

import (
	"strings"
	"testing"

	"repro/internal/genbench"
)

// runCase measures one recipe under o.
func runCase(t testing.TB, r genbench.Recipe, o Options) CaseResult {
	t.Helper()
	sec, err := RunCases(RecipeCases([]genbench.Recipe{r}), o)
	if err != nil {
		t.Fatal(err)
	}
	return sec.Cases[0]
}

// withAreas builds a case's runs from flow areas.
func withAreas(areas map[string]int) map[string]FlowRun {
	out := map[string]FlowRun{}
	for f, a := range areas {
		out[f] = FlowRun{Area: a}
	}
	return out
}

func TestRunCaseWithEquivalenceCheck(t *testing.T) {
	r := genbench.Recipes()[9] // ac97_ctrl: smallest mixed case
	cr := runCase(t, r, Options{Scale: 0.03, Check: true})
	if cr.Original <= 0 || cr.Area(FlowYosys) <= 0 || cr.Area(FlowFull) <= 0 {
		t.Errorf("bad areas: %+v", cr)
	}
	if cr.Area(FlowFull) > cr.Area(FlowYosys) {
		t.Errorf("full (%d) worse than yosys (%d)", cr.Area(FlowFull), cr.Area(FlowYosys))
	}
}

func TestRatios(t *testing.T) {
	cr := CaseResult{Runs: withAreas(map[string]int{
		FlowYosys: 200, FlowSAT: 180, FlowRebuild: 150, FlowFull: 140})}
	if got := cr.RatioSAT(); got != 10 {
		t.Errorf("RatioSAT = %v", got)
	}
	if got := cr.RatioRebuild(); got != 25 {
		t.Errorf("RatioRebuild = %v", got)
	}
	if got := cr.RatioFull(); got != 30 {
		t.Errorf("RatioFull = %v", got)
	}
	zero := CaseResult{}
	if zero.RatioFull() != 0 {
		t.Error("zero base should give zero ratio")
	}
}

func TestTableRendering(t *testing.T) {
	results := []CaseResult{
		{Name: "alpha", Original: 1000, Runs: withAreas(map[string]int{
			FlowYosys: 500, FlowSAT: 480, FlowRebuild: 450, FlowFull: 430})},
		{Name: "beta", Original: 2000, Runs: withAreas(map[string]int{
			FlowYosys: 900, FlowSAT: 850, FlowRebuild: 880, FlowFull: 820})},
	}
	sec := Section{Flows: []string{FlowYosys, FlowSAT, FlowRebuild, FlowFull}, Cases: results}
	t2 := TableII(sec)
	for _, want := range []string{"alpha", "beta", "Average", "Original", "smaRTLy"} {
		if !strings.Contains(t2, want) {
			t.Errorf("TableII missing %q:\n%s", want, t2)
		}
	}
	t3 := TableIII(sec)
	for _, want := range []string{"alpha", "SAT", "Rebuild", "Full", "Average"} {
		if !strings.Contains(t3, want) {
			t.Errorf("TableIII missing %q:\n%s", want, t3)
		}
	}
	avg := Averages(results)
	if avg.Area(FlowYosys) != 700 || avg.Area(FlowFull) != 625 {
		t.Errorf("averages wrong: %+v", avg)
	}
	if Averages(nil).Name != "Average" {
		t.Error("empty Averages broken")
	}
	tf := TableFlows(sec)
	for _, want := range []string{"alpha", "beta", "Average", "yosys", "full", "Ratio"} {
		if !strings.Contains(tf, want) {
			t.Errorf("TableFlows missing %q:\n%s", want, tf)
		}
	}
}

// TestTableShape verifies the reproduction's headline properties at a
// reduced scale: Full is never worse than either single technique or the
// baseline, and the per-case skews of Table III hold (rebuild dominates
// top_cache_axi, SAT dominates wb_conmax).
func TestTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table shape check skipped in -short mode")
	}
	byName := map[string]CaseResult{}
	for _, name := range []string{"top_cache_axi", "wb_conmax"} {
		for _, r := range genbench.Recipes() {
			if r.Name != name {
				continue
			}
			byName[name] = runCase(t, r, Options{Scale: 0.1})
		}
	}
	for name, cr := range byName {
		full, sat, reb, yosys := cr.Area(FlowFull), cr.Area(FlowSAT), cr.Area(FlowRebuild), cr.Area(FlowYosys)
		if full > sat || full > reb || full > yosys {
			t.Errorf("%s: full=%d should be <= sat=%d, rebuild=%d, yosys=%d",
				name, full, sat, reb, yosys)
		}
		if yosys > cr.Original {
			t.Errorf("%s: yosys=%d larger than original=%d", name, yosys, cr.Original)
		}
	}
	tca := byName["top_cache_axi"]
	if !(tca.RatioRebuild() > tca.RatioSAT()) {
		t.Errorf("top_cache_axi: rebuild (%.2f%%) should dominate SAT (%.2f%%)",
			tca.RatioRebuild(), tca.RatioSAT())
	}
	if tca.RatioRebuild() < 10 {
		t.Errorf("top_cache_axi: rebuild ratio %.2f%% too small (paper: 24.91%%)", tca.RatioRebuild())
	}
	wbc := byName["wb_conmax"]
	if !(wbc.RatioSAT() > wbc.RatioRebuild()) {
		t.Errorf("wb_conmax: SAT (%.2f%%) should dominate rebuild (%.2f%%)",
			wbc.RatioSAT(), wbc.RatioRebuild())
	}
	if wbc.RatioSAT() < 8 {
		t.Errorf("wb_conmax: SAT ratio %.2f%% too small (paper: 19.05%%)", wbc.RatioSAT())
	}
}

func TestIndustrialSummaryRendering(t *testing.T) {
	r := Section{Flows: []string{FlowYosys, FlowFull}, Cases: []CaseResult{
		{Name: "point-0", Original: 100, Runs: withAreas(map[string]int{FlowYosys: 90, FlowFull: 50})},
	}}
	s := IndustrialSummary(r)
	if !strings.Contains(s, "point-0") || !strings.Contains(s, "44.4") || !strings.Contains(s, "47.2") {
		t.Errorf("summary missing figures:\n%s", s)
	}
}
