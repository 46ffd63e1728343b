package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestBenchJSONReport: a tiny-scale -json run emits a parseable report
// with every case and flow populated.
func TestBenchJSONReport(t *testing.T) {
	var buf bytes.Buffer
	if err := runBench(benchConfig{scale: 0.02, table: "all", industrial: 1, jsonOut: true}, &buf); err != nil {
		t.Fatal(err)
	}
	var rep harness.BenchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.Schema != harness.BenchSchema {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Tables == nil || rep.Industrial == nil {
		t.Fatalf("tables = %v, industrial = %v", rep.Tables, rep.Industrial)
	}
	if len(rep.Tables.Flows) != 4 || rep.Tables.Flows[0] != harness.FlowYosys {
		t.Errorf("flows = %v", rep.Tables.Flows)
	}
	if len(rep.Tables.Cases) == 0 || len(rep.Industrial.Cases) != 1 {
		t.Fatalf("cases = %d, industrial = %d", len(rep.Tables.Cases), len(rep.Industrial.Cases))
	}
	for _, c := range rep.Tables.Cases {
		if c.Original <= 0 {
			t.Errorf("case %s: original area %d", c.Name, c.Original)
		}
		for _, f := range rep.Tables.Flows {
			if r, ok := c.Runs[f]; !ok || r.Hash == "" {
				t.Errorf("case %s: flow %s missing", c.Name, f)
			}
		}
	}
}

// TestBenchCustomFlows: -flow specs switch the run to the generic table.
func TestBenchCustomFlows(t *testing.T) {
	var buf bytes.Buffer
	flows := []string{"yosys", "quick=opt_expr; opt_clean"}
	if err := runBench(benchConfig{scale: 0.02, table: "2", flows: flows}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"yosys", "quick", "Average", "Ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("custom-flow table missing %q:\n%s", want, out)
		}
	}
}

// TestBenchCustomFlowsIndustrial: with custom flows the industrial run
// must render the generic table (the §IV-B summary hardcodes
// yosys/full and would print all zeros).
func TestBenchCustomFlowsIndustrial(t *testing.T) {
	var buf bytes.Buffer
	flows := []string{"base=opt_expr; opt_clean", "quick=fixpoint { opt_expr; opt_clean }"}
	if err := runBench(benchConfig{scale: 0.02, industrial: 1, flows: flows}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Industrial", "base", "quick"} {
		if !strings.Contains(out, want) {
			t.Errorf("custom industrial output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "smaRTLy removes") {
		t.Errorf("custom flows used the hardcoded yosys/full summary:\n%s", out)
	}
}

func TestBenchDesignMode(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a server and optimizes a multi-module design repeatedly")
	}
	var buf bytes.Buffer
	if err := runBench(benchConfig{scale: 0.02, table: "", design: 3, flows: []string{"yosys"}, jsonOut: true}, &buf); err != nil {
		t.Fatal(err)
	}
	var rep harness.BenchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.Design == nil {
		t.Fatal("report has no design section")
	}
	if rep.Design.Modules != 3 || rep.Design.Flow != "yosys" {
		t.Errorf("design bench %+v", rep.Design)
	}
	if rep.Design.ColdMS <= 0 || rep.Design.WarmMS <= 0 || rep.Design.IncrementalMS <= 0 {
		t.Errorf("latencies not measured: %+v", rep.Design)
	}

	// The table mode prints the human-readable line.
	buf.Reset()
	if err := runBench(benchConfig{scale: 0.02, table: "", design: 3, flows: []string{"yosys"}}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Design-mode sharding latency") {
		t.Errorf("table output:\n%s", buf.String())
	}
}

// TestBenchSatMode: -sat attaches the SAT-oracle section to the JSON
// report, with counters populated and both wall-clocks measured.
func TestBenchSatMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the SAT-exercising flows twice over the benchmark set")
	}
	var buf bytes.Buffer
	if err := runBench(benchConfig{scale: 0.05, table: "", sat: true, jsonOut: true}, &buf); err != nil {
		t.Fatal(err)
	}
	var rep harness.BenchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.Sat == nil {
		t.Fatal("report has no sat section")
	}
	want := []string{harness.FlowSAT, harness.FlowSAT + "_nofilter", harness.FlowFull, harness.FlowFull + "_nofilter"}
	if strings.Join(rep.Sat.Flows, ",") != strings.Join(want, ",") {
		t.Fatalf("sat section flows: %v, want %v", rep.Sat.Flows, want)
	}
	for _, f := range want {
		queries := 0
		for _, c := range rep.Sat.Cases {
			queries += c.Runs[f].Counter("smartly_satmux", "oracle_queries")
		}
		if queries == 0 {
			t.Errorf("flow %s: no oracle queries recorded", f)
		}
	}

	// The table mode prints the human-readable section.
	buf.Reset()
	if err := runBench(benchConfig{scale: 0.05, table: "", sat: true, flows: []string{"yosys"}}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SAT oracle") {
		t.Errorf("table output:\n%s", buf.String())
	}
}

func TestBenchBadFlowSpec(t *testing.T) {
	var buf bytes.Buffer
	if err := runBench(benchConfig{scale: 0.02, table: "2", flows: []string{"bad=no_such_pass"}}, &buf); err == nil {
		t.Error("invalid flow spec accepted")
	}
}

// TestBenchBadTable: an unknown -table value is an error naming the
// accepted values, not a silent run without tables.
func TestBenchBadTable(t *testing.T) {
	var buf bytes.Buffer
	err := runBench(benchConfig{scale: 0.02, table: "4"}, &buf)
	if err == nil {
		t.Fatal("-table 4 accepted")
	}
	for _, want := range []string{"2", "3", "all", "none"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("output before the error:\n%s", buf.String())
	}
}

func TestBenchTables(t *testing.T) {
	var buf bytes.Buffer
	if err := runBench(benchConfig{scale: 0.02, table: "all"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "Table III") {
		t.Errorf("tables missing:\n%s", out)
	}
}
