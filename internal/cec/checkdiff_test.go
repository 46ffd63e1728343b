package cec_test

import (
	"errors"
	"testing"

	"repro/internal/cec"
	_ "repro/internal/core" // registers the named flows
	"repro/internal/genbench"
	"repro/internal/opt"
)

// TestCheckMatchesReference runs Check beside the reference checker
// (cec_ref_test.go) on the package's combinational fixtures and on the
// full flow's output for every genbench recipe at scale 0.02. Verdict
// kinds must agree, simulation counterexamples must be byte-identical,
// and every counterexample of either checker must replay on
// sim.Parallel.
func TestCheckMatchesReference(t *testing.T) {
	pairs := cec.CheckFixtures()
	flow, err := opt.NamedFlow("full")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range genbench.Recipes() {
		m := genbench.Generate(r, 0.02)
		orig := m.Clone()
		if _, err := flow.Run(opt.Background(), m); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		pairs = append(pairs, cec.CheckPair{Name: "full/" + r.Name, A: orig, B: m})
	}
	kinds := map[string]int{}
	for _, p := range pairs {
		got, _, diff := cec.DiffCheck(p.A, p.B, nil)
		if diff != "" {
			t.Errorf("%s: %s", p.Name, diff)
		}
		switch {
		case got == nil:
			kinds["proved"]++
		case errors.As(got, new(*cec.NotEquivalentError)):
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
