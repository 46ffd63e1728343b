package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/genbench"
)

func TestParseFlows(t *testing.T) {
	flows, err := ParseFlows([]string{"yosys", "custom=opt_expr; opt_clean"})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 || flows[0].Name != "yosys" || flows[1].Name != "custom" {
		t.Fatalf("flows = %+v", flows)
	}
	if got := flows[1].Flow.String(); got != "opt_expr; opt_clean" {
		t.Errorf("custom flow = %q", got)
	}
	if _, err := ParseFlows([]string{"bad=no_such_pass"}); err == nil {
		t.Error("unknown pass in flow spec accepted")
	}
	if _, err := ParseFlows([]string{"nosuchflow"}); err == nil {
		t.Error("unknown named flow accepted")
	}
	if _, err := ParseFlows([]string{"full", "full=opt_expr; opt_clean"}); err == nil {
		t.Error("duplicate flow name accepted (areas are keyed by name)")
	}
	if _, err := ParseFlows([]string{"=opt_expr"}); err == nil {
		t.Error("empty flow name accepted")
	}
}

// TestRunCaseCustomFlows: the harness measures an arbitrary flow set —
// here an ablation comparing the baseline against a satmux-only flow
// with a tuned conflict budget.
func TestRunCaseCustomFlows(t *testing.T) {
	flows, err := ParseFlows([]string{
		"base=fixpoint { opt_expr; opt_muxtree; opt_clean }",
		"tuned=fixpoint { opt_expr; satmux(conflicts=500); opt_clean }",
	})
	if err != nil {
		t.Fatal(err)
	}
	r := genbench.Recipes()[9] // ac97_ctrl: smallest mixed case
	cr := runCase(t, r, Options{Scale: 0.03, Flows: flows, Check: true})
	if len(cr.Runs) != 2 {
		t.Fatalf("runs = %+v, want 2 flows", cr.Runs)
	}
	if cr.Area("base") <= 0 || cr.Area("tuned") <= 0 {
		t.Errorf("bad areas: %+v", cr.Runs)
	}
	if cr.Area("tuned") > cr.Area("base") {
		t.Errorf("tuned satmux (%d) worse than baseline (%d)", cr.Area("tuned"), cr.Area("base"))
	}
	if cr.Ratio("base", "tuned") < 0 {
		t.Errorf("ratio = %v", cr.Ratio("base", "tuned"))
	}
}

func TestBenchReportJSON(t *testing.T) {
	cases := []CaseResult{
		{Name: "alpha", Original: 1000, Runs: map[string]FlowRun{
			FlowYosys: {Area: 500}, FlowSAT: {Area: 480}, FlowRebuild: {Area: 450},
			FlowFull: {Area: 430, Hash: "abc", ElapsedMS: 1500,
				Counters: map[string]map[string]int{"opt_clean": {"cells_removed": 3}}}}},
	}
	tables := Section{Flows: []string{FlowYosys, FlowSAT, FlowRebuild, FlowFull}, Cases: cases}
	rep := BenchReport{Schema: BenchSchema, Scale: 0.25, ElapsedMS: 2000, Tables: &tables}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != BenchSchema || back.Scale != 0.25 || back.ElapsedMS != 2000 {
		t.Errorf("header = %+v", back)
	}
	if back.Tables == nil || len(back.Tables.Flows) != 4 || back.Tables.Flows[0] != FlowYosys {
		t.Fatalf("tables = %+v", back.Tables)
	}
	if back.Sat != nil || back.Load != nil {
		t.Error("sections that did not run are present")
	}
	c := back.Tables.Cases[0]
	full := c.Runs[FlowFull]
	if c.Original != 1000 || full.Area != 430 || full.Hash != "abc" || full.ElapsedMS != 1500 {
		t.Errorf("case = %+v", c)
	}
	if got := full.Counter("opt_clean", "cells_removed"); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if got := c.RatioFull(); got != 14 {
		t.Errorf("full ratio = %v, want 14", got)
	}
	if got := back.Tables.AvgRatio(FlowYosys, FlowFull); got != 14 {
		t.Errorf("avg full ratio = %v, want 14", got)
	}
}

// TestParseFlowsErrorsNameFlow is the regression test for flow-spec
// error messages: whatever fails, the message must name the offending
// flow (or echo the raw spec) so a -flow typo in a long command line is
// attributable.
func TestParseFlowsErrorsNameFlow(t *testing.T) {
	cases := []struct {
		specs []string
		want  string
	}{
		{[]string{"nope"}, `"nope"`},                         // unknown named flow
		{[]string{"tuned=opt_expr; bogus_pass"}, `"tuned"`},  // script error
		{[]string{"yosys", "yosys"}, `"yosys"`},              // duplicate name
		{[]string{"=opt_expr"}, `"=opt_expr"`},               // missing name echoes spec
		{[]string{"tuned=satmux(conflicts=bad)"}, `"tuned"`}, // bad option value
		{[]string{"full", "x=fixpoint { }"}, `"x"`},          // empty body
	}
	for _, c := range cases {
		_, err := ParseFlows(c.specs)
		if err == nil {
			t.Errorf("ParseFlows(%q) accepted", c.specs)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseFlows(%q) error %q does not name %s", c.specs, err, c.want)
		}
	}
	// Valid specs still parse.
	fs, err := ParseFlows([]string{"yosys", "tuned=opt_expr; opt_clean"})
	if err != nil || len(fs) != 2 {
		t.Errorf("valid specs: %v %v", fs, err)
	}
}
