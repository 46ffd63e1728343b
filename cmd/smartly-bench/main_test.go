package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
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
		// Every run that queried the oracle carries its stage times.
		for _, c := range rep.Sat.Cases {
			r := c.Runs[f]
			if r.Counter("smartly_satmux", "oracle_queries") > 0 && r.StagesMS["smartly_satmux"]["extract"] <= 0 {
				t.Errorf("%s/%s: no extract stage time in %v", c.Name, f, r.StagesMS)
			}
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

// TestBenchBadScale: a -scale that is not a positive finite number is
// an error naming the flag, not a run at some other size that records
// the bad value.
func TestBenchBadScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		var buf bytes.Buffer
		err := runBench(benchConfig{scale: scale, table: "2"}, &buf)
		if err == nil {
			t.Fatalf("-scale %v accepted", scale)
		}
		if !strings.Contains(err.Error(), "-scale") {
			t.Errorf("error %q does not name -scale", err)
		}
		if buf.Len() != 0 {
			t.Errorf("-scale %v: output before the error:\n%s", scale, buf.String())
		}
	}
}

// TestBenchCompare: -compare passes against a report of the same run
// and fails, naming the section, case and flow, once one hash in the
// baseline differs.
func TestBenchCompare(t *testing.T) {
	cfg := benchConfig{scale: 0.02, table: "2", jsonOut: true}
	var buf bytes.Buffer
	if err := runBench(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	same := filepath.Join(dir, "same.json")
	if err := os.WriteFile(same, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var rep harness.BenchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	c := rep.Tables.Cases[1]
	r := c.Runs[harness.FlowFull]
	r.Hash = "0000"
	c.Runs[harness.FlowFull] = r
	var edited bytes.Buffer
	if err := rep.WriteJSON(&edited); err != nil {
		t.Fatal(err)
	}
	drift := filepath.Join(dir, "drift.json")
	if err := os.WriteFile(drift, edited.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.jsonOut = false
	cfg.compare = same
	buf.Reset()
	if err := runBench(cfg, &buf); err != nil {
		t.Fatalf("compare against the same run: %v", err)
	}
	if out := buf.String(); !strings.Contains(out, "Compared with") || !strings.Contains(out, "tables") {
		t.Errorf("no elapsed comparison printed:\n%s", out)
	}
	cfg.compare = drift
	err := runBench(cfg, &buf)
	if err == nil {
		t.Fatal("compare against a drifted baseline passed")
	}
	if want := "tables/" + c.Name + "/" + harness.FlowFull + ": hash"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
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

// TestBenchCPUProfile: -cpuprofile leaves a gzip-framed pprof profile
// of the run, and an unwritable path is an error naming the flag.
func TestBenchCPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	var buf bytes.Buffer
	if err := runBench(benchConfig{scale: 0.02, table: "2", cpuprofile: path}, &buf); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("profile is not gzip-framed pprof data (%d bytes)", len(raw))
	}
	bad := filepath.Join(t.TempDir(), "missing", "cpu.pprof")
	err = runBench(benchConfig{scale: 0.02, table: "2", cpuprofile: bad}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-cpuprofile") {
		t.Fatalf("unwritable profile path: err = %v", err)
	}
}
