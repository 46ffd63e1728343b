package opt

import (
	"testing"
	"time"
)

// TestRunReportCounter covers the value-receiver counter accessor used
// by the bench harness: missing passes and missing keys read as 0.
func TestRunReportCounter(t *testing.T) {
	r := RunReport{Passes: []PassReport{{
		Name:     "smartly_satmux",
		Counters: map[string]int{"sat_calls": 7},
	}}}
	if got := r.Counter("smartly_satmux", "sat_calls"); got != 7 {
		t.Errorf("Counter = %d, want 7", got)
	}
	if got := r.Counter("smartly_satmux", "absent"); got != 0 {
		t.Errorf("missing key = %d, want 0", got)
	}
	if got := r.Counter("nonesuch", "sat_calls"); got != 0 {
		t.Errorf("missing pass = %d, want 0", got)
	}
}

// TestStageTimesMergeAndStrip: stage times of a pass' invocations add
// up in its report, Report snapshots them, and StripTimings drops them
// while the counters stay.
func TestStageTimesMergeAndStrip(t *testing.T) {
	c := Background()
	res := Result{Details: map[string]int{"n": 1}, Stages: map[string]time.Duration{"extract": 2, "sat": 3}}
	c.recordPass("p", res, 10)
	c.recordPass("p", Result{Details: map[string]int{"n": 1}, Stages: map[string]time.Duration{"extract": 5}}, 10)
	rep := c.Report()
	p := rep.Pass("p")
	if p.Stages["extract"] != 7 || p.Stages["sat"] != 3 {
		t.Fatalf("merged stages %v, want extract=7 sat=3", p.Stages)
	}
	p.Stages["extract"] = 0 // the snapshot is a copy
	if again := c.Report(); again.Pass("p").Stages["extract"] != 7 {
		t.Errorf("Report shares its stage map with the collector")
	}
	rep.StripTimings()
	if p := rep.Pass("p"); p.Stages != nil || p.Duration != 0 || p.Counters["n"] != 2 {
		t.Errorf("stripped pass %+v, want no times and n=2", *p)
	}
}
