package opt

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/rtlil"
)

func TestSplitWorkers(t *testing.T) {
	cases := []struct {
		total, modules    int
		wantJobs, wantPer int
	}{
		{1, 1, 1, 1},
		{1, 8, 1, 1},
		{8, 1, 1, 8},
		{8, 8, 8, 1},
		{8, 4, 4, 2},
		{8, 3, 3, 2},
		{4, 8, 4, 1},
		{0, 5, 1, 1}, // non-positive budget clamps to 1
		{6, 0, 1, 6}, // empty design clamps to 1 module
		{16, 5, 5, 3},
	}
	for _, c := range cases {
		jobs, per := SplitWorkers(c.total, c.modules)
		if jobs != c.wantJobs || per != c.wantPer {
			t.Errorf("SplitWorkers(%d, %d) = (%d, %d), want (%d, %d)",
				c.total, c.modules, jobs, per, c.wantJobs, c.wantPer)
		}
		// The split must never oversubscribe the budget.
		total := c.total
		if total < 1 {
			total = 1
		}
		if jobs*per > total {
			t.Errorf("SplitWorkers(%d, %d) oversubscribes: %d*%d > %d",
				c.total, c.modules, jobs, per, total)
		}
	}
}

// redundantModule builds a module with same-control nested muxes that
// opt_muxtree collapses, parameterized so different modules differ.
func redundantModule(name string, levels int) *rtlil.Module {
	m := rtlil.NewModule(name)
	a := m.AddInput("a", 4).Bits()
	b := m.AddInput("b", 4).Bits()
	c := m.AddInput("c", 4).Bits()
	s := m.AddInput("s", 1).Bits()
	cur := m.Mux(b, a, s)
	for i := 0; i < levels; i++ {
		cur = m.Mux(c, cur, s)
	}
	y := m.AddOutput("y", 4).Bits()
	m.Connect(y, cur)
	return m
}

func testDesign(n int) *rtlil.Design {
	d := rtlil.NewDesign()
	for i := 0; i < n; i++ {
		d.AddModule(redundantModule(fmt.Sprintf("mod%d", i), 1+i%4))
	}
	return d
}

func testFlow(t *testing.T) *Flow {
	t.Helper()
	f, err := ParseFlow("opt_muxtree; opt_expr; opt_clean")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRunDesignShardedMatchesSerial is the scheduler's determinism
// contract: for every worker budget, the optimized design (canonical
// hash) and the per-module reports are bit-identical to the fully
// serial run.
func TestRunDesignShardedMatchesSerial(t *testing.T) {
	f := testFlow(t)
	const modules = 8
	serial := testDesign(modules)
	runsSerial, err := f.RunDesign(NewCtx(nil, Config{Workers: 1}), serial)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := rtlil.CanonicalHashDesign(serial)

	for _, workers := range []int{1, 2, 3, 8, 16} {
		d := testDesign(modules)
		runs, err := f.RunDesign(NewCtx(nil, Config{Workers: workers}), d)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rtlil.CanonicalHashDesign(d); got != wantHash {
			t.Errorf("workers=%d: design hash %s, want %s", workers, got, wantHash)
		}
		if len(runs) != modules {
			t.Fatalf("workers=%d: %d runs, want %d", workers, len(runs), modules)
		}
		for i := range runs {
			got, want := runs[i].Report, runsSerial[i].Report
			got.StripTimings()
			want.StripTimings()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("workers=%d module %s: report %+v, want %+v",
					workers, runs[i].Module.Name, got, want)
			}
		}
	}
}

// TestRunDesignPerModuleReports checks each ModuleRun pairs the
// design's module with its own (not aggregate) report.
func TestRunDesignPerModuleReports(t *testing.T) {
	f := testFlow(t)
	d := testDesign(3)
	runs, err := f.RunDesign(Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	mods := d.Modules()
	for i := range runs {
		if runs[i].Module != mods[i] {
			t.Errorf("run %d module %v, want design order %v", i, runs[i].Module.Name, mods[i].Name)
		}
		if !runs[i].Report.Changed {
			t.Errorf("module %s report unchanged, want collapsed muxes", mods[i].Name)
		}
		if runs[i].Report.Duration == 0 {
			t.Errorf("module %s report has no wall time", mods[i].Name)
		}
	}
}

// TestRunDesignCancellation: a canceled context aborts the run with the
// context error; already-optimized modules stay individually sound.
func TestRunDesignCancellation(t *testing.T) {
	f := testFlow(t)
	d := testDesign(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.RunDesign(NewCtx(ctx, Config{Workers: 2}), d)
	if err == nil {
		t.Fatal("canceled design run returned nil error")
	}
}

// TestRunDesignInvalidFlowFailsBeforeMutation: a flow that cannot
// compile must fail without touching any module.
func TestRunDesignInvalidFlowFailsBeforeMutation(t *testing.T) {
	bad := &Flow{steps: []Step{{Name: "no_such_pass"}}}
	d := testDesign(2)
	before := rtlil.CanonicalHashDesign(d)
	if _, err := bad.RunDesign(Background(), d); err == nil {
		t.Fatal("invalid flow ran")
	}
	if got := rtlil.CanonicalHashDesign(d); got != before {
		t.Error("failed RunDesign mutated the design")
	}
}
