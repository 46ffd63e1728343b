package core

import (
	"repro/internal/egraph"
	"repro/internal/opt"
)

// Script-level option tables for the smaRTLy passes. The keys are the
// names accepted in flow scripts ("satmux(conflicts=64)"); each maps
// onto one field of SatMuxOptions / RebuildOptions.
// The options are Positive: their option-struct fields treat 0 as "use
// the default", so an explicit zero would silently run the default
// budget.
var satMuxOptionSpecs = []opt.OptionSpec{
	{Key: "depth", Kind: opt.KindInt, Positive: true, Default: "6", Help: "sub-graph BFS radius k"},
	{Key: "cells", Kind: opt.KindInt, Positive: true, Default: "300", Help: "max cells kept per sub-graph"},
	{Key: "sim_inputs", Kind: opt.KindInt, Positive: true, Max: maxSimInputs, Default: "11", Help: "exhaustive simulation up to this many inputs"},
	{Key: "sat_inputs", Kind: opt.KindInt, Positive: true, Default: "200", Help: "skip SAT above this many inputs"},
	{Key: "conflicts", Kind: opt.KindInt64, Positive: true, Default: "2000", Help: "CDCL conflict budget per query"},
}

var rebuildOptionSpecs = []opt.OptionSpec{
	{Key: "selector_bits", Kind: opt.KindInt, Positive: true, Default: "24", Help: "skip trees with wider selectors"},
	{Key: "patterns", Kind: opt.KindInt, Positive: true, Default: "512", Help: "skip trees with more pattern rows"},
}

// satMuxOptionsFromArgs translates validated script args into the typed
// option struct (zero fields fall through to withDefaults).
func satMuxOptionsFromArgs(a opt.Args) SatMuxOptions {
	return SatMuxOptions{
		SubgraphDepth:    a.Int("depth", 0),
		MaxSubgraphCells: a.Int("cells", 0),
		SimInputLimit:    a.Int("sim_inputs", 0),
		SATInputLimit:    a.Int("sat_inputs", 0),
		MaxConflicts:     a.Int64("conflicts", 0),
	}
}

func rebuildOptionsFromArgs(a opt.Args) RebuildOptions {
	return RebuildOptions{
		MaxSelectorBits: a.Int("selector_bits", 0),
		MaxPatterns:     a.Int("patterns", 0),
	}
}

var egraphOptionSpecs = []opt.OptionSpec{
	{Key: "iters", Kind: opt.KindInt, Positive: true, Default: "8", Help: "equality-saturation iteration budget"},
	{Key: "node_limit", Kind: opt.KindInt, Positive: true, Default: "20000", Help: "e-graph size budget in nodes"},
	{Key: "verify_conflicts", Kind: opt.KindInt64, Positive: true, Default: "100000", Help: "SAT conflict budget per proof; a blowout rejects the extraction"},
}

func egraphOptionsFromArgs(a opt.Args) egraph.Options {
	return egraph.Options{
		Iters:           a.Int("iters", 0),
		NodeLimit:       a.Int("node_limit", 0),
		VerifyConflicts: a.Int64("verify_conflicts", 0),
	}
}

// The smaRTLy passes and the named flows, exposed to the flow registry.
func init() {
	opt.Register(opt.PassSpec{
		Name:    "satmux",
		Summary: "SAT-based mux redundancy elimination (paper §II)",
		Options: satMuxOptionSpecs,
		Build: func(a opt.Args) (opt.Pass, error) {
			return &SatMuxPass{Opts: satMuxOptionsFromArgs(a)}, nil
		},
	})
	opt.Register(opt.PassSpec{
		Name:    "rebuild",
		Summary: "ADD-driven muxtree restructuring (paper §III)",
		Options: rebuildOptionSpecs,
		Build: func(a opt.Args) (opt.Pass, error) {
			return &RebuildPass{Opts: rebuildOptionsFromArgs(a)}, nil
		},
	})
	opt.Register(opt.PassSpec{
		Name:    "opt_egraph",
		Summary: "verified e-graph datapath rewriting (equality saturation + CEC)",
		Options: egraphOptionSpecs,
		Build: func(a opt.Args) (opt.Pass, error) {
			return &egraph.Pass{Opts: egraphOptionsFromArgs(a)}, nil
		},
	})

	opt.RegisterFlow("yosys", "fixpoint { opt_expr; opt_muxtree; opt_clean }")
	opt.RegisterFlow("sat", "fixpoint { opt_expr; satmux; opt_clean }")
	opt.RegisterFlow("rebuild", "fixpoint { opt_expr; opt_muxtree; rebuild; opt_clean }")
	opt.RegisterFlow("datapath", "fixpoint { opt_expr; opt_egraph; opt_clean }")
	opt.RegisterFlow("seq", "fixpoint { opt_expr; opt_dff; opt_clean }")
	opt.RegisterFlow("full", "fixpoint { opt_expr; satmux; rebuild; opt_egraph; opt_dff; opt_clean }")
}
