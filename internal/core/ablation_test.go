package core

import (
	"testing"

	"repro/internal/genbench"
	"repro/internal/opt"
	"repro/internal/rtlil"
)

// TestAblationsPreserveCorrectness runs satmux under tight and loose
// budgets on a mixed circuit and equivalence-checks each result: a
// budget may lose optimizations, never correctness.
func TestAblationsPreserveCorrectness(t *testing.T) {
	recipe := genbench.Recipe{
		Name: "ablate", Seed: 33,
		PlainBlocks: 5, RedundantBlocks: 5, DepBlocks: 10, CaseBlocks: 4,
		CaseSelBits: [2]int{3, 3}, DataWidth: 4, PmuxFraction: 0.5,
	}
	configs := map[string]SatMuxOptions{
		"default":     {},
		"sat_only":    {SimInputLimit: -1},
		"tiny_budget": {MaxConflicts: 1},
		"shallow":     {SubgraphDepth: 1},
	}
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			m := genbench.Generate(recipe, 1)
			orig := m.Clone()
			pass := &SatMuxPass{Opts: opts}
			if _, err := opt.RunScript(nil, m, pass, opt.ExprPass{}, opt.CleanPass{}); err != nil {
				t.Fatal(err)
			}
			checkEquiv(t, orig, m)
		})
	}
}

// TestAblationEffectOrdering: satmux must remove at least as much as
// the facts-only walk (opt_muxtree, the walk without an oracle) on the
// dependent-control workload, and strictly more.
func TestAblationEffectOrdering(t *testing.T) {
	recipe := genbench.Recipe{
		Name: "ordering", Seed: 34,
		DepBlocks:   20,
		CaseSelBits: [2]int{3, 3}, DataWidth: 6, PmuxFraction: 0.5,
	}
	run := func(pass opt.Pass) int {
		m := genbench.Generate(recipe, 1)
		if _, err := opt.RunScript(nil, m, pass, opt.ExprPass{}, opt.CleanPass{}); err != nil {
			t.Fatal(err)
		}
		return areaOf(t, m)
	}
	full := run(&SatMuxPass{})
	walker := run(opt.MuxtreePass{})
	if full > walker {
		t.Errorf("satmux (%d) should be <= the facts-only walk (%d)", full, walker)
	}
	if full == walker {
		t.Error("satmux removed nothing beyond the baseline on dep blocks")
	}
}

func areaOf(t *testing.T, m *rtlil.Module) int {
	t.Helper()
	return area(t, m)
}

// TestRebuildSelectorLimit: selectors wider than MaxSelectorBits are
// skipped.
func TestRebuildSelectorLimit(t *testing.T) {
	m := rtlil.NewModule("wide")
	s := m.AddInput("s", 8).Bits()
	p0 := m.AddInput("p0", 2).Bits()
	p1 := m.AddInput("p1", 2).Bits()
	p2 := m.AddInput("p2", 2).Bits()
	eq0 := m.Eq(s, rtlil.Const(7, 8))
	eq1 := m.Eq(s, rtlil.Const(100, 8))
	t1 := m.Mux(p2, p1, eq1)
	t0 := m.Mux(t1, p0, eq0)
	y := m.AddOutput("y", 2)
	m.Connect(y.Bits(), t0)

	pass := &RebuildPass{Opts: RebuildOptions{MaxSelectorBits: 4}}
	if _, err := pass.Run(nil, m); err != nil {
		t.Fatal(err)
	}
	if pass.LastStats.TreesEligible != 0 {
		t.Errorf("wide selector accepted: %+v", pass.LastStats)
	}
}

// TestSatMuxOnPmuxBranches: satmux must prune pmux words whose selects
// are impossible under path facts derived through logic.
func TestSatMuxOnPmuxBranches(t *testing.T) {
	m := rtlil.NewModule("pmuxsat")
	s := m.AddInput("s", 1).Bits()
	r := m.AddInput("r", 1).Bits()
	d := make([]rtlil.SigSpec, 4)
	for i := range d {
		d[i] = m.AddInput([]string{"d0", "d1", "d2", "d3"}[i], 2).Bits()
	}
	// pmux word selected by (s|r): on the root's s=0 ... s=1 path it is
	// forced active; word with select ~s is forced inactive.
	or := m.Or(s, r)
	ns := m.Not(s)
	pm := m.Pmux(d[0], []rtlil.SigSpec{d[1], d[2]}, rtlil.Concat(ns, or))
	y := m.AddOutput("y", 2).Bits()
	m.AddMux("root", d[3], pm, s, y)
	orig := m.Clone()

	pass := &SatMuxPass{}
	if _, err := opt.RunScript(nil, m, pass, opt.ExprPass{}, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellPmux); got != 0 {
		t.Errorf("pmux survived: %d (stats %s)", got, pass.LastStats)
	}
}

// TestDeepChainCollapse: a 10-deep dependent chain fully collapses.
func TestDeepChainCollapse(t *testing.T) {
	m := rtlil.NewModule("deep")
	s := m.AddInput("s", 1).Bits()
	w := 2
	cur := m.AddInput("base", w).Bits()
	for i := 0; i < 10; i++ {
		r := m.AddInput([]string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"}[i], 1).Bits()
		cur = m.Mux(cur, m.AddInput([]string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"}[i], w).Bits(), m.Or(s, r))
	}
	y := m.AddOutput("y", w).Bits()
	m.AddMux("root", m.AddInput("c", w).Bits(), cur, s, y)
	orig := m.Clone()

	if _, err := opt.RunScript(nil, m, &SatMuxPass{}, opt.ExprPass{}, opt.CleanPass{}); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, orig, m)
	if got := countType(m, rtlil.CellMux); got != 1 {
		t.Errorf("deep chain left %d muxes, want 1", got)
	}
}
