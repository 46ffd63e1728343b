package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/genbench"
	"repro/internal/opt"
	"repro/internal/rtlil"
)

// SatBench is the SAT-oracle section of the bench report: for each
// SAT-exercising flow, the oracle counters (queries, SAT calls,
// simulation pre-filter skips, budget trips) and the wall-clock of the
// whole public benchmark set, measured twice — the default oracle and
// the sim_filter=false ablation (every SAT-bound query hits the
// solver). The netlist hashes of the two runs are compared case by
// case: with no budget-tripped Solve call on either side the hashes
// must match (hard error otherwise — the section doubles as an
// equivalence assertion), while runs that tripped a conflict budget may
// legitimately diverge (a pre-filter witness can stand in for a Solve
// call that would have run out of budget) and only flip NetlistsEqual.
type SatBench struct {
	Scale float64        `json:"scale"`
	Flows []SatFlowBench `json:"flows"`
}

// SatFlowBench is one flow's default-vs-ablation measurement.
type SatFlowBench struct {
	Flow          string `json:"flow"`
	Queries       int    `json:"queries"`
	SATCalls      int    `json:"sat_calls"`
	LearntClauses int    `json:"learnt_clauses"`
	// SimFiltered counts SAT-bound queries decided by the 64-lane
	// random-simulation pre-filter without a solver call; SimVectors is
	// the total 64-pattern rounds it (and the vectorized exhaustive
	// stage) evaluated.
	SimFiltered int `json:"sim_filtered"`
	SimVectors  int `json:"sim_vectors"`
	// BudgetTrips sums the conflict-budget trips of the default and
	// ablation runs; when it is zero no SAT verdict was
	// budget-dependent, so the two runs' netlists are provably identical
	// and NetlistsEqual must be true.
	BudgetTrips   int  `json:"budget_trips"`
	NetlistsEqual bool `json:"netlists_equal"`
	// ElapsedMS is the default oracle's wall-clock over the public
	// benchmark cases; NoFilterElapsedMS (with NoFilterSATCalls) is the
	// satmux(sim_filter=false) ablation on the same cases.
	ElapsedMS         int64 `json:"elapsed_ms"`
	NoFilterSATCalls  int   `json:"no_filter_sat_calls"`
	NoFilterElapsedMS int64 `json:"no_filter_elapsed_ms"`
}

// noFilterFlow derives the sim_filter=false ablation of a flow: every
// SAT-capable pass runs with the simulation pre-filter switched off, so
// every SAT-bound query reaches the solver.
func noFilterFlow(f *opt.Flow) (*opt.Flow, error) {
	f, err := f.WithArg("satmux", "sim_filter", "false")
	if err != nil {
		return nil, err
	}
	return f.WithArg("smartly", "sim_filter", "false")
}

// RunSatBench measures the named SAT-exercising flows (typically "sat"
// and "full") over the public benchmark set at the given scale.
func RunSatBench(flowNames []string, scale float64) (SatBench, error) {
	bench := SatBench{Scale: scale}
	for _, name := range flowNames {
		flow, err := opt.NamedFlow(name)
		if err != nil {
			return bench, fmt.Errorf("harness: sat bench flow %q: %w", name, err)
		}
		unfiltered, err := noFilterFlow(flow)
		if err != nil {
			return bench, fmt.Errorf("harness: sat bench sim_filter ablation for %q: %w", name, err)
		}
		fb := SatFlowBench{Flow: name, NetlistsEqual: true}
		for _, recipe := range genbench.Recipes() {
			m := genbench.Generate(recipe, scale)
			const pass = "smartly_satmux"

			def := m.Clone()
			ec := opt.NewCtx(nil, opt.Config{})
			start := time.Now()
			if _, err := flow.Run(ec, def); err != nil {
				return bench, fmt.Errorf("harness: sat bench %s/%s: %w", name, recipe.Name, err)
			}
			fb.ElapsedMS += time.Since(start).Milliseconds()
			rep := ec.Report()
			fb.Queries += rep.Counter(pass, "oracle_queries")
			fb.SATCalls += rep.Counter(pass, "sat_calls")
			fb.LearntClauses += rep.Counter(pass, "sat_learnt")
			fb.SimFiltered += rep.Counter(pass, "oracle_sim_filtered")
			fb.SimVectors += rep.Counter(pass, "oracle_sim_vectors")
			trips := rep.Counter(pass, "sat_budget_trips")

			nf := m.Clone()
			nc := opt.NewCtx(nil, opt.Config{})
			start = time.Now()
			if _, err := unfiltered.Run(nc, nf); err != nil {
				return bench, fmt.Errorf("harness: sat bench sim_filter ablation %s/%s: %w", name, recipe.Name, err)
			}
			fb.NoFilterElapsedMS += time.Since(start).Milliseconds()
			nfRep := nc.Report()
			fb.NoFilterSATCalls += nfRep.Counter(pass, "sat_calls")
			trips += nfRep.Counter(pass, "sat_budget_trips")
			fb.BudgetTrips += trips

			if rtlil.CanonicalHash(def) != rtlil.CanonicalHash(nf) {
				// With no budget trips every SAT verdict was a proof and
				// every pre-filter skip a concrete witness, so both runs
				// decided the same constants and the rewrites are forced:
				// divergence is a bug. After a trip it is a legitimate
				// budget effect, recorded rather than fatal.
				if trips == 0 {
					return bench, fmt.Errorf("harness: sat bench %s/%s: default and sim_filter=false netlists differ with no budget-tripped queries",
						name, recipe.Name)
				}
				fb.NetlistsEqual = false
			}
		}
		bench.Flows = append(bench.Flows, fb)
	}
	return bench, nil
}

// String renders the section for the human-readable bench output.
func (b SatBench) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SAT oracle (scale %g, public benchmark set)\n", b.Scale)
	fmt.Fprintf(&sb, "%-8s %9s %9s %11s %11s %10s %10s\n",
		"Flow", "Queries", "SATCalls", "SimFiltered", "BudgetTrips", "Elapsed", "NoFilter")
	for _, f := range b.Flows {
		fmt.Fprintf(&sb, "%-8s %9d %9d %11d %11d %8dms %8dms\n",
			f.Flow, f.Queries, f.SATCalls, f.SimFiltered, f.BudgetTrips,
			f.ElapsedMS, f.NoFilterElapsedMS)
	}
	return sb.String()
}
