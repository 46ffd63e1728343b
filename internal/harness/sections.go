package harness

import (
	"fmt"
	"strings"

	"repro/internal/opt"
	"repro/internal/rtlil"
)

// EgraphFlows returns the egraph section's flows, run over
// RecipeCases(genbench.DatapathRecipes()): the yosys baseline, the
// pre-egraph "full" pipeline (full_noegraph, which shows these designs
// used to win nothing), the dedicated "datapath" flow and the current
// "full" flow. Every rewrite opt_egraph ships was proved inside the
// pass, so the section needs no whole-module Check, which would dwarf
// the optimization wall-clock on multiplier-heavy designs.
func EgraphFlows() []FlowSpec {
	noEgraph, err := opt.ParseFlow("fixpoint { opt_expr; satmux; rebuild; opt_clean }")
	if err != nil {
		panic(fmt.Sprintf("harness: egraph ablation flow: %v", err))
	}
	flows := mustFlows(FlowYosys, "datapath", FlowFull)
	return []FlowSpec{flows[0], {Name: "full_noegraph", Flow: noEgraph}, flows[1], flows[2]}
}

// EgraphTable renders the egraph section: each flow's reduction vs the
// original area, and the datapath run's opt_egraph proof counters and
// wall-clock.
func EgraphTable(s Section) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Verified e-graph rewriting (datapath benchmark set)\n")
	fmt.Fprintf(&sb, "%-12s %9s %8s %14s %10s %6s %9s %9s %9s\n",
		"Case", "Original", "yosys%", "full_noegraph%", "datapath%", "full%", "Verified", "Rejected", "Elapsed")
	for _, c := range s.Cases {
		dp := c.Runs["datapath"]
		fmt.Fprintf(&sb, "%-12s %9d %7.1f%% %13.1f%% %9.1f%% %5.1f%% %9d %9d %7.0fms\n",
			c.Name, c.Original,
			c.Reduction(FlowYosys), c.Reduction("full_noegraph"), c.Reduction("datapath"), c.Reduction(FlowFull),
			dp.Counter("opt_egraph", "egraph_verified"), dp.Counter("opt_egraph", "egraph_verify_rejected"), dp.ElapsedMS)
	}
	return sb.String()
}

// CorpusCases loads a benchmark-corpus directory (LoadCorpus) as cases.
// The corpus section runs them under CorpusFlows with Options.Check on,
// so every flow's result is proved by k-induction on top of the
// per-sweep proofs opt_dff runs itself.
func CorpusCases(dir string) ([]Case, error) {
	corpus, err := LoadCorpus(dir)
	if err != nil {
		return nil, err
	}
	out := make([]Case, len(corpus))
	for i, c := range corpus {
		out[i] = Case{Name: c.Name, Build: func(float64) (*rtlil.Module, error) { return c.Module, nil }}
	}
	return out, nil
}

// CorpusFlows returns the corpus section's flows: the yosys baseline,
// the register-sweep "seq" flow and the current "full" flow.
func CorpusFlows() []FlowSpec {
	return mustFlows(FlowYosys, "seq", FlowFull)
}

// CorpusTable renders the corpus section: each flow's reduction vs the
// original area, and the seq run's register count and opt_dff sweeps.
func CorpusTable(s Section) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Benchmark corpus\n")
	fmt.Fprintf(&sb, "%-12s %9s %5s %8s %6s %6s %7s %7s %7s %7s\n",
		"Case", "Original", "Regs", "yosys%", "seq%", "full%", "RegsAft", "Const", "Merged", "Unused")
	for _, c := range s.Cases {
		seq := c.Runs["seq"]
		fmt.Fprintf(&sb, "%-12s %9d %5d %7.1f%% %5.1f%% %5.1f%% %7d %7d %7d %7d\n",
			c.Name, c.Original, c.OriginalStateBits,
			c.Reduction(FlowYosys), c.Reduction("seq"), c.Reduction(FlowFull), seq.StateBits,
			seq.Counter("opt_dff", "dff_const"), seq.Counter("opt_dff", "dff_merged"), seq.Counter("opt_dff", "dff_unused"))
	}
	return sb.String()
}
