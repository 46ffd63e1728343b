package smartly

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/genbench"
)

// genDesign builds a small deterministic multi-module design for
// facade-level sharding tests.
func genDesign(modules int, seed int64) *Design {
	return genbench.GenerateDesign(genbench.DesignRecipe{Modules: modules, Seed: seed}, 0.02)
}

// stripAll removes wall-clock noise from a report map for comparison.
func stripAll(reports map[string]RunReport) map[string]RunReport {
	for name, rep := range reports {
		rep.StripTimings()
		reports[name] = rep
	}
	return reports
}

// TestRunDesignShardedBitIdentical is the facade acceptance check: for
// a generated 8-module design, the sharded RunDesign output — canonical
// design hash and every per-module counter — is bit-identical to the
// serial run at every worker budget tested.
func TestRunDesignShardedBitIdentical(t *testing.T) {
	flow, err := NamedFlow("yosys")
	if err != nil {
		t.Fatal(err)
	}
	const modules = 8
	serial := genDesign(modules, 11)
	serialReports, err := flow.RunDesign(serial, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	stripAll(serialReports)
	wantHash := HashDesign(serial)

	for _, jobs := range []int{0, 1, 2, 4, 8, 16} {
		d := genDesign(modules, 11)
		reports, err := flow.RunDesign(d, WithWorkers(jobs))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if got := HashDesign(d); got != wantHash {
			t.Errorf("jobs=%d: design hash %s, want serial %s", jobs, got, wantHash)
		}
		if !reflect.DeepEqual(stripAll(reports), serialReports) {
			t.Errorf("jobs=%d: reports diverge from serial:\n got %+v\nwant %+v", jobs, reports, serialReports)
		}
	}
}

// TestRunDesignCanceled: a canceled context must surface as an error
// with partial (never panicking) reports — modules the scheduler never
// started have no report entry.
func TestRunDesignCanceled(t *testing.T) {
	flow, err := NamedFlow("yosys")
	if err != nil {
		t.Fatal(err)
	}
	d := genDesign(4, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := flow.RunDesign(d, WithContext(ctx), WithWorkers(2))
	if err == nil {
		t.Fatal("canceled design run returned nil error")
	}
	if len(reports) > 4 {
		t.Errorf("%d reports for a 4-module design", len(reports))
	}
}

// FuzzRunDesignDeterminism fuzzes the design shard scheduler's inputs —
// module count, generator seed and worker budget — and asserts the
// sharded result always hashes identically to the serial run, with
// identical per-module reports.
func FuzzRunDesignDeterminism(f *testing.F) {
	f.Add(uint8(3), int64(1), uint8(4))
	f.Add(uint8(8), int64(42), uint8(16))
	f.Add(uint8(1), int64(-9), uint8(0))
	f.Add(uint8(5), int64(77), uint8(2))
	flow, err := NamedFlow("yosys")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, nMod uint8, seed int64, workers uint8) {
		modules := 1 + int(nMod)%6
		serial := genDesign(modules, seed)
		serialReports, err := flow.RunDesign(serial, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		stripAll(serialReports)
		want := HashDesign(serial)

		d := genDesign(modules, seed)
		reports, err := flow.RunDesign(d, WithWorkers(int(workers)%9))
		if err != nil {
			t.Fatal(err)
		}
		if got := HashDesign(d); got != want {
			t.Fatalf("modules=%d seed=%d workers=%d: sharded hash %s != serial %s",
				modules, seed, workers%9, got, want)
		}
		if !reflect.DeepEqual(stripAll(reports), serialReports) {
			t.Fatalf("modules=%d seed=%d: reports diverge:\n got %+v\nwant %+v",
				modules, seed, reports, serialReports)
		}
		// The report keys cover exactly the design's modules.
		for _, m := range d.Modules() {
			if _, ok := reports[m.Name]; !ok {
				t.Fatalf("no report for module %s", m.Name)
			}
		}
		if len(reports) != modules {
			t.Fatalf("%d reports, want %d", len(reports), modules)
		}
		_ = fmt.Sprint(reports)
	})
}
