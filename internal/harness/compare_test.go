package harness

import (
	"bytes"
	"strings"
	"testing"
)

// compareBase is a two-case, two-flow report for the CompareReports
// tests.
func compareBase() BenchReport {
	run := func(hash string, area int, ms float64) FlowRun {
		return FlowRun{Area: area, Hash: hash, ElapsedMS: ms}
	}
	return BenchReport{
		Schema: BenchSchema,
		Scale:  0.25,
		Tables: &Section{
			Flows: []string{"yosys", "full"},
			Cases: []CaseResult{
				{Name: "a", Runs: map[string]FlowRun{"yosys": run("h1", 10, 1), "full": run("h2", 8, 2)}},
				{Name: "b", Runs: map[string]FlowRun{"yosys": run("h3", 20, 3), "full": run("h4", 15, 4)}},
			},
		},
	}
}

func TestCompareReports(t *testing.T) {
	var out bytes.Buffer
	if err := CompareReports(compareBase(), compareBase(), &out); err != nil {
		t.Fatalf("identical reports: %v", err)
	}
	for _, want := range []string{"tables", "full", "6.0", "+0.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("elapsed table lacks %q:\n%s", want, out.String())
		}
	}

	for _, tc := range []struct {
		name string
		edit func(*BenchReport)
		want string
	}{
		{"schema", func(r *BenchReport) { r.Schema = "smartly-bench/v1" }, "schema"},
		{"scale", func(r *BenchReport) { r.Scale = 0.5 }, "scale 0.5"},
		{"area", func(r *BenchReport) {
			run := r.Tables.Cases[1].Runs["full"]
			run.Area++
			r.Tables.Cases[1].Runs["full"] = run
		}, "tables/b/full: area 16"},
		{"state bits", func(r *BenchReport) {
			run := r.Tables.Cases[0].Runs["yosys"]
			run.StateBits = 3
			r.Tables.Cases[0].Runs["yosys"] = run
		}, "tables/a/yosys: state_bits 3"},
		{"case", func(r *BenchReport) { r.Tables.Cases = r.Tables.Cases[:1] }, "tables/b: case missing from the current run"},
		{"flow", func(r *BenchReport) { r.Tables.Flows = append(r.Tables.Flows, "sat") }, "tables: flow sat missing from the baseline"},
		{"run", func(r *BenchReport) { delete(r.Tables.Cases[0].Runs, "full") }, "tables/a/full: run missing from the current run"},
	} {
		cur := compareBase()
		tc.edit(&cur)
		err := CompareReports(compareBase(), cur, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}

	// Stage times are printed only when both sides carry them.
	withStages := func(ms float64) BenchReport {
		r := compareBase()
		run := r.Tables.Cases[0].Runs["full"]
		run.StagesMS = map[string]map[string]float64{"smartly_satmux": {"extract": ms, "sat": 1}}
		r.Tables.Cases[0].Runs["full"] = run
		return r
	}
	out.Reset()
	if err := CompareReports(withStages(4), withStages(3), &out); err != nil {
		t.Fatalf("stage times differ only: %v", err)
	}
	for _, want := range []string{"stage", "smartly_satmux/extract", "4.0", "3.0", "-25.0%", "smartly_satmux/sat"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stage table lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := CompareReports(compareBase(), withStages(3), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "stage") {
		t.Errorf("stage table printed without baseline stage times:\n%s", out.String())
	}

	// A section only one side carries is not compared.
	cur := compareBase()
	cur.Egraph = cur.Tables
	if err := CompareReports(compareBase(), cur, &bytes.Buffer{}); err != nil {
		t.Errorf("extra section: %v", err)
	}
}
