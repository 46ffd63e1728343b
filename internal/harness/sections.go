package harness

import (
	"fmt"
	"strings"

	"repro/internal/opt"
	"repro/internal/rtlil"
)

// satPass is the pass whose oracle counters the sat section reads.
const satPass = "smartly_satmux"

// noFilter suffixes the name of a flow's sim_filter=false ablation.
const noFilter = "_nofilter"

// SatFlows returns the sat section's flows: each named flow followed by
// its sim_filter=false ablation, named <flow>_nofilter, in which every
// SAT-bound query reaches the solver. The section runs them over
// RecipeCases(genbench.Recipes()); CheckSimFilter enforces its
// equivalence rule and SatTable renders it.
func SatFlows(names ...string) ([]FlowSpec, error) {
	flows, err := namedFlows(names...)
	if err != nil {
		return nil, err
	}
	var out []FlowSpec
	for _, fs := range flows {
		f, err := fs.Flow.WithArg("satmux", "sim_filter", "false")
		if err == nil {
			f, err = f.WithArg("smartly", "sim_filter", "false")
		}
		if err != nil {
			return nil, fmt.Errorf("harness: sim_filter ablation of %q: %w", fs.Name, err)
		}
		out = append(out, fs, FlowSpec{Name: fs.Name + noFilter, Flow: f})
	}
	return out, nil
}

// CheckSimFilter enforces the sat section's rule on every case: a flow
// and its _nofilter ablation must produce the same netlist unless a
// Solve call on either side ran out of its conflict budget. With no
// trip every SAT verdict was a proof and every pre-filter skip a
// concrete witness, so both runs decided the same constants and the
// rewrites are forced; after a trip a pre-filter witness may stand in
// for a Solve call that would have given up, so the netlists may
// legitimately differ.
func CheckSimFilter(s Section) error {
	for _, c := range s.Cases {
		for _, name := range s.Flows {
			nf, ok := c.Runs[name+noFilter]
			if !ok {
				continue
			}
			def := c.Runs[name]
			if def.Hash != nf.Hash && budgetTrips(def, nf) == 0 {
				return fmt.Errorf("harness: sat %s/%s: default and sim_filter=false netlists differ with no budget-tripped queries",
					c.Name, name)
			}
		}
	}
	return nil
}

func budgetTrips(runs ...FlowRun) int {
	n := 0
	for _, r := range runs {
		n += r.Counter(satPass, "sat_budget_trips")
	}
	return n
}

// SatTable renders the sat section: per flow, the oracle counters and
// wall-clock summed over the cases, next to the ablation's wall-clock.
// BudgetTrips counts both runs' trips.
func SatTable(s Section) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SAT oracle (public benchmark set)\n")
	fmt.Fprintf(&sb, "%-8s %9s %9s %11s %11s %10s %10s\n",
		"Flow", "Queries", "SATCalls", "SimFiltered", "BudgetTrips", "Elapsed", "NoFilter")
	for _, name := range s.Flows {
		if strings.HasSuffix(name, noFilter) {
			continue
		}
		var queries, calls, filtered, trips int
		var elapsed, nfElapsed float64
		for _, c := range s.Cases {
			def, nf := c.Runs[name], c.Runs[name+noFilter]
			queries += def.Counter(satPass, "oracle_queries")
			calls += def.Counter(satPass, "sat_calls")
			filtered += def.Counter(satPass, "oracle_sim_filtered")
			trips += budgetTrips(def, nf)
			elapsed += def.ElapsedMS
			nfElapsed += nf.ElapsedMS
		}
		fmt.Fprintf(&sb, "%-8s %9d %9d %11d %11d %8.0fms %8.0fms\n",
			name, queries, calls, filtered, trips, elapsed, nfElapsed)
	}
	return sb.String()
}

// EgraphFlows returns the egraph section's flows, run over
// RecipeCases(genbench.DatapathRecipes()): the yosys baseline, the
// pre-egraph "full" pipeline (full_noegraph, which shows these designs
// used to win nothing), the dedicated "datapath" flow and the current
// "full" flow. Every rewrite opt_egraph ships was proved inside the
// pass, so the section needs no whole-module Check, which would dwarf
// the optimization wall-clock on multiplier-heavy designs.
func EgraphFlows() []FlowSpec {
	noEgraph, err := opt.ParseFlow("fixpoint { opt_expr; smartly; opt_clean }")
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
