package harness

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestRunLoadBench is the e2e check of the load bench AND of the
// /metrics latency instrumentation: the daemon's histogram-estimated
// percentiles (scraped through /healthz) must not exceed the bench's
// own sort-based client-side percentiles over the same requests by
// more than one histogram bucket growth factor (the documented
// estimation bound), and the sync span must cover every stage the
// requests ran.
func TestRunLoadBench(t *testing.T) {
	if testing.Short() {
		t.Skip("spins a server and optimizes under concurrent load")
	}
	if _, err := RunLoadBench("fig3-chain", 2, "yosys", 0.1, 1); err == nil {
		t.Fatal("unknown case accepted")
	}
	b, err := RunLoadBench("ethernet", 3, "yosys", 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Shape: every class measured, cold slower than warm, positive
	// throughput.
	for _, class := range []string{"cold", "warm", "design", "all"} {
		c := b.Class(class)
		if c == nil || c.Requests == 0 || c.P50MS <= 0 {
			t.Fatalf("class %s not measured: %+v", class, c)
		}
		if c.P50MS > c.P95MS || c.P95MS > c.P99MS || c.P99MS > c.MaxMS {
			t.Errorf("class %s percentiles not monotone: %+v", class, c)
		}
	}
	if cold, warm := b.Class("cold"), b.Class("warm"); cold.P50MS <= warm.P50MS {
		t.Errorf("cold p50 %.3fms not slower than warm p50 %.3fms", cold.P50MS, warm.P50MS)
	}
	if b.ThroughputRPS <= 0 || b.ElapsedMS <= 0 {
		t.Errorf("throughput not measured: %+v", b)
	}

	// Cross-check: the server histogram observed exactly the requests
	// the client measured ("all" includes the priming pair), and its
	// percentile estimates do not overshoot the client-side reference.
	all := b.Class("all")
	if got, want := b.ServerSync.Count, uint64(all.Requests); got != want {
		t.Fatalf("server histogram count %d, client measured %d", got, want)
	}
	growth := metrics.GrowthFactor()
	check := func(name string, server, client float64) {
		// A histogram quantile may overshoot the true value by one
		// bucket growth factor (plus a little float slack). Below the
		// client there is no useful bound: a memo hit's handler takes
		// about a millisecond while the client's transport carries the
		// whole design both ways.
		if server > client*growth+1 {
			t.Errorf("%s: server %.3fms exceeds client %.3fms beyond the %.2fx bucket bound",
				name, server, client, growth)
		}
	}
	check("p50", b.ServerSync.P50MS, all.P50MS)
	check("p95", b.ServerSync.P95MS, all.P95MS)
	check("p99", b.ServerSync.P99MS, all.P99MS)
	check("max", b.ServerSync.MaxMS, all.MaxMS)

	// The sync span misses no stage: it starts before the body decode
	// and ends after the response encode, so its sum covers the stage
	// sums (equal up to float rounding). And every request either
	// parsed or was a memo hit: each warm request resubmits the bytes
	// the whole-mode priming request left in the memo, while cold,
	// design-mode and priming requests parse.
	var stageSum float64
	for _, st := range b.Stages {
		stageSum += st.SumMS
	}
	if slack := 1e-6 * float64(b.ServerSync.Count); b.ServerSync.SumMS+slack < stageSum {
		t.Errorf("sync span sum %.6fms below the stage sums' %.6fms: the span misses a stage",
			b.ServerSync.SumMS, stageSum)
	}
	parse, memo := b.Stage("parse"), b.Stage("memo")
	if parse == nil || memo == nil {
		t.Fatalf("stages %+v lack parse or memo", b.Stages)
	}
	warm := uint64(b.Class("warm").Requests)
	if parse.Count+warm != b.ServerSync.Count {
		t.Errorf("parse count %d + memo hits %d != sync count %d", parse.Count, warm, b.ServerSync.Count)
	}
	if memo.Count != warm+1 {
		t.Errorf("memo count %d, want the %d warm requests and the whole-mode priming request", memo.Count, warm)
	}

	if !strings.Contains(b.String(), "req/s") || !strings.Contains(b.String(), "optimize_sync") {
		t.Errorf("String() = %q", b.String())
	}
}
