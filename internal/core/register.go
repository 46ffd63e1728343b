package core

import (
	"repro/internal/egraph"
	"repro/internal/opt"
)

// Script-level option tables for the smaRTLy passes. The keys are the
// names accepted in flow scripts ("satmux(conflicts=64)"); each maps
// onto one field of SatMuxOptions / RebuildOptions.
// The numeric options are Positive: their option-struct fields treat 0
// as "use the default", so an explicit zero would silently run the
// default budget — the bool switches (inference, sat) are the supported
// way to disable a stage.
var satMuxOptionSpecs = []opt.OptionSpec{
	{Key: "depth", Kind: opt.KindInt, Positive: true, Default: "6", Help: "sub-graph BFS radius k"},
	{Key: "cells", Kind: opt.KindInt, Positive: true, Default: "300", Help: "max cells kept per sub-graph"},
	{Key: "sim_inputs", Kind: opt.KindInt, Positive: true, Default: "11", Help: "exhaustive simulation up to this many inputs"},
	{Key: "sat_inputs", Kind: opt.KindInt, Positive: true, Default: "200", Help: "skip SAT above this many inputs"},
	{Key: "conflicts", Kind: opt.KindInt64, Positive: true, Default: "2000", Help: "CDCL conflict budget per query"},
	{Key: "sim_rounds", Kind: opt.KindInt, Positive: true, Default: "4", Help: "64-vector simulation rounds per cone in the SAT pre-filter"},
	{Key: "inference", Kind: opt.KindBool, Default: "true", Help: "enable the Table I inference rules"},
	{Key: "sat", Kind: opt.KindBool, Default: "true", Help: "enable simulation/SAT queries"},
	{Key: "subgraph_filter", Kind: opt.KindBool, Default: "true", Help: "enable the Theorem II.1 pruning"},
	{Key: "sim_filter", Kind: opt.KindBool, Default: "true", Help: "64-lane random-simulation pre-filter in front of the SAT stage"},
}

var rebuildOptionSpecs = []opt.OptionSpec{
	{Key: "selector_bits", Kind: opt.KindInt, Positive: true, Default: "24", Help: "skip trees with wider selectors"},
	{Key: "patterns", Kind: opt.KindInt, Positive: true, Default: "512", Help: "skip trees with more pattern rows"},
	{Key: "force", Kind: opt.KindBool, Default: "false", Help: "rebuild every eligible tree, ignoring the cost model"},
}

// satMuxOptionsFromArgs translates validated script args into the typed
// option struct (zero fields fall through to withDefaults).
func satMuxOptionsFromArgs(a opt.Args) SatMuxOptions {
	return SatMuxOptions{
		SubgraphDepth:         a.Int("depth", 0),
		MaxSubgraphCells:      a.Int("cells", 0),
		SimInputLimit:         a.Int("sim_inputs", 0),
		SATInputLimit:         a.Int("sat_inputs", 0),
		MaxConflicts:          a.Int64("conflicts", 0),
		SimFilterRounds:       a.Int("sim_rounds", 0),
		DisableInference:      !a.Bool("inference", true),
		DisableSAT:            !a.Bool("sat", true),
		DisableSubgraphFilter: !a.Bool("subgraph_filter", true),
		DisableSimFilter:      !a.Bool("sim_filter", true),
	}
}

func rebuildOptionsFromArgs(a opt.Args) RebuildOptions {
	return RebuildOptions{
		MaxSelectorBits: a.Int("selector_bits", 0),
		MaxPatterns:     a.Int("patterns", 0),
		Force:           a.Bool("force", false),
	}
}

var egraphOptionSpecs = []opt.OptionSpec{
	{Key: "iters", Kind: opt.KindInt, Positive: true, Default: "8", Help: "equality-saturation iteration budget"},
	{Key: "node_limit", Kind: opt.KindInt, Positive: true, Default: "20000", Help: "e-graph size budget in nodes"},
	{Key: "rules", Kind: opt.KindString, Default: "all", Help: "rule groups: all, or a '+'-joined subset of arith, bitwise, shift, cmp, fold"},
	{Key: "verify", Kind: opt.KindBool, Default: "true", Help: "prove every rewritten cone with the cec miter before applying it"},
	{Key: "verify_conflicts", Kind: opt.KindInt64, Positive: true, Default: "100000", Help: "SAT conflict budget per proof; a blowout rejects the extraction"},
}

func egraphOptionsFromArgs(a opt.Args) egraph.Options {
	return egraph.Options{
		Iters:           a.Int("iters", 0),
		NodeLimit:       a.Int("node_limit", 0),
		Rules:           a.Str("rules", ""),
		DisableVerify:   !a.Bool("verify", true),
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
		Name:    "smartly",
		Summary: "full smaRTLy: SAT elimination + restructuring",
		Options: append(append([]opt.OptionSpec{}, satMuxOptionSpecs...), rebuildOptionSpecs...),
		Build: func(a opt.Args) (opt.Pass, error) {
			return &SmartlyPass{
				SatOpts:     satMuxOptionsFromArgs(a),
				RebuildOpts: rebuildOptionsFromArgs(a),
			}, nil
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
	opt.RegisterFlow("full", "fixpoint { opt_expr; smartly; opt_egraph; opt_dff; opt_clean }")
}
