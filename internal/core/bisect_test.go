package core

import (
	"testing"

	"repro/internal/cec"
	"repro/internal/genbench"
	"repro/internal/opt"
)

// TestPassCombinationsPreserveEquivalence is a regression matrix: every
// pass combination on every block class must preserve equivalence. The
// mix/clean combination once exposed a bug where opt_clean dropped the
// driving connection of a wire whose canonical form was a constant.
func TestPassCombinationsPreserveEquivalence(t *testing.T) {
	mk := func(f func(*genbench.Recipe)) genbench.Recipe {
		r := genbench.Recipe{Name: "b", Seed: 33, CaseSelBits: [2]int{3, 3}, DataWidth: 4, PmuxFraction: 0.5}
		f(&r)
		return r
	}
	classes := map[string]genbench.Recipe{
		"dep":  mk(func(r *genbench.Recipe) { r.DepBlocks = 10 }),
		"case": mk(func(r *genbench.Recipe) { r.CaseBlocks = 8 }),
		"red":  mk(func(r *genbench.Recipe) { r.RedundantBlocks = 8 }),
		"mix":  mk(func(r *genbench.Recipe) { r.PlainBlocks = 5; r.RedundantBlocks = 5; r.DepBlocks = 10; r.CaseBlocks = 4 }),
	}
	passSets := map[string]func() []opt.Pass{
		"walker_only":  func() []opt.Pass { return []opt.Pass{opt.MuxtreePass{}} },
		"walker_clean": func() []opt.Pass { return []opt.Pass{opt.MuxtreePass{}, opt.CleanPass{}} },
		"satmux_clean": func() []opt.Pass { return []opt.Pass{&SatMuxPass{}, opt.ExprPass{}, opt.CleanPass{}} },
		"rebuild":      func() []opt.Pass { return []opt.Pass{&RebuildPass{}, opt.CleanPass{}} },
		"full":         func() []opt.Pass { return []opt.Pass{&SatMuxPass{}, &RebuildPass{}, opt.ExprPass{}, opt.CleanPass{}} },
	}
	for cname, r := range classes {
		for pname, mkPasses := range passSets {
			m := genbench.Generate(r, 1)
			orig := m.Clone()
			if _, err := opt.RunScript(nil, m, mkPasses()...); err != nil {
				t.Fatalf("%s/%s: %v", cname, pname, err)
			}
			if err := cec.Check(orig, m, nil); err != nil {
				t.Errorf("%s/%s: %v", cname, pname, err)
			}
		}
	}
}
