package core

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cec"
	"repro/internal/genbench"
	"repro/internal/opt"
)

// The CEC differential-oracle suite: every registered named flow, run
// over every genbench recipe across several seeds, must produce a
// module combinationally equivalent to the unoptimized original. The
// optimizer's per-rewrite soundness arguments are local; this suite is
// the global check that no pass composition breaks a whole netlist
// (ROVER's thesis: rewrites are only trustworthy shipped with an
// equivalence check). cec.Check is the oracle — an independent
// SAT-based miter, not the engine's own reasoning.

// oracleScale keeps the generated cases small enough that the full
// suite stays in CI budget while still mixing every redundancy class.
const oracleScale = 0.04

// satHeavy reports whether a flow invokes the SAT-based passes — the
// expensive combinations skipped under -short.
func satHeavy(script string) bool {
	return strings.Contains(script, "satmux")
}

func TestCECDifferentialOracle(t *testing.T) {
	flows := opt.FlowNames()
	if len(flows) == 0 {
		t.Fatal("no named flows registered")
	}
	for _, name := range flows {
		flow, err := opt.NamedFlow(name)
		if err != nil {
			t.Fatalf("flow %s: %v", name, err)
		}
		// SAT-heavy flows run one seed (and none under -short); the
		// cheap flows cover two seeds everywhere.
		seeds := []int64{0, 4242}
		if satHeavy(flow.String()) || testing.Short() {
			seeds = seeds[:1]
		}
		for _, recipe := range genbench.Recipes() {
			for _, seedShift := range seeds {
				recipe := recipe
				recipe.Seed += seedShift
				t.Run(name+"/"+recipe.Name+"/s"+strconv.FormatInt(seedShift, 10), func(t *testing.T) {
					if testing.Short() && satHeavy(flow.String()) {
						t.Skipf("flow %s is SAT-heavy; skipped under -short", name)
					}
					m := genbench.Generate(recipe, oracleScale)
					orig := m.Clone()
					res, err := flow.Run(opt.Background(), m)
					if err != nil {
						t.Fatalf("flow failed: %v", err)
					}
					if err := m.Validate(); err != nil {
						t.Fatalf("optimized module invalid: %v", err)
					}
					if err := cec.Check(orig, m, nil); err != nil {
						t.Fatalf("flow %s broke equivalence on %s (seed %d, changed=%v): %v",
							name, recipe.Name, recipe.Seed, res.Changed, err)
					}
				})
			}
		}
	}
}

// TestCECOracleIndustrial extends the oracle to the industrial recipe
// (selection-logic-dominated, the paper's §IV-B class).
func TestCECOracleIndustrial(t *testing.T) {
	for _, name := range opt.FlowNames() {
		flow, err := opt.NamedFlow(name)
		if err != nil {
			t.Fatalf("flow %s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && satHeavy(flow.String()) {
				t.Skipf("flow %s is SAT-heavy; skipped under -short", name)
			}
			m := genbench.Generate(genbench.IndustrialRecipe(1), 0.02)
			orig := m.Clone()
			if _, err := flow.Run(opt.Background(), m); err != nil {
				t.Fatalf("flow failed: %v", err)
			}
			if err := cec.Check(orig, m, nil); err != nil {
				t.Fatalf("flow %s broke equivalence on industrial: %v", name, err)
			}
		})
	}
}
