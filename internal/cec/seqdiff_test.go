package cec_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cec"
	"repro/internal/genbench"
	"repro/internal/opt"
	"repro/internal/rtlil"
	"repro/internal/verilog"
)

// sweptPair returns m and a copy of it after the unverified opt_dff
// sweep, the rewrite the checker proves in the flow.
func sweptPair(t *testing.T, m *rtlil.Module) (*rtlil.Module, *rtlil.Module) {
	t.Helper()
	swept := m.Clone()
	if _, err := opt.SweepDffs(swept); err != nil {
		t.Fatal(err)
	}
	return m, swept
}

// corpusModules elaborates every module of testdata/corpus.
func corpusModules(t *testing.T) []*rtlil.Module {
	t.Helper()
	files, err := filepath.Glob("../../testdata/corpus/*.v")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus sources: %v", err)
	}
	var out []*rtlil.Module
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := verilog.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		d, err := verilog.Elaborate(sf)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, d.Modules()...)
	}
	return out
}

// TestSequentialMatchesReference runs CheckSequential beside the
// clause-tied reference checker (seq_ref_test.go) on FuzzKInduction's
// generator (the opt_dff sweep and the injected D-inversion of every
// seed), the sequential recipes with their sweeps, and the corpus with
// its sweeps. Verdict kinds, simulation signatures, harvested
// candidates, and the induction verdicts and refined sets under the
// unrefined candidates and under random claims must agree, and every
// counterexample must replay on sim.Sequential.
func TestSequentialMatchesReference(t *testing.T) {
	type pair struct {
		name string
		a, b *rtlil.Module
		o    *cec.SeqOptions
	}
	var pairs []pair
	seeds := []int64{-26} // FuzzKInduction's seed corpus, and eight more
	for seed := int64(1); seed <= 16; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range seeds {
		m := genbench.Generate(genbench.RandomSeqRecipe(seed), 1.0)
		o := &cec.SeqOptions{Seed: seed + 7}
		a, b := sweptPair(t, m)
		pairs = append(pairs, pair{genbench.RandomSeqRecipe(seed).Name + "/swept", a, b, o})
		if regs := m.SeqCells(); len(regs) > 0 {
			bad := m.Clone()
			ff := bad.SeqCells()[int(uint64(seed)%uint64(len(regs)))]
			ff.SetPort("D", bad.Not(ff.Port("D")))
			pairs = append(pairs, pair{genbench.RandomSeqRecipe(seed).Name + "/inverted", m, bad, o})
		}
	}
	for _, r := range genbench.SeqRecipes() {
		a, b := sweptPair(t, genbench.Generate(r, 0.05))
		pairs = append(pairs, pair{r.Name, a, b, nil})
	}
	for _, m := range corpusModules(t) {
		a, b := sweptPair(t, m)
		pairs = append(pairs, pair{"corpus/" + m.Name, a, b, nil})
	}
	kinds := map[string]int{}
	for _, p := range pairs {
		got, want, diff := cec.DiffSequential(p.a, p.b, p.o)
		if diff != "" {
			t.Errorf("%s: %s", p.name, diff)
		}
		for _, v := range []error{got, want} {
			var cex *cec.SeqNotEquivalentError
			if errors.As(v, &cex) && !fuzzReplay(t, p.a, p.b, cex) {
				t.Errorf("%s: counterexample does not replay: %v", p.name, cex)
			}
		}
		switch {
		case got == nil:
			kinds["proved"]++
		case errors.As(got, new(*cec.SeqNotEquivalentError)):
			kinds["counterexample"]++
		default:
			kinds["other"]++
		}
	}
	t.Logf("%d pairs: %v", len(pairs), kinds)
	if kinds["proved"] == 0 || kinds["counterexample"] == 0 {
		t.Errorf("verdicts %v: want both proofs and counterexamples", kinds)
	}
}
