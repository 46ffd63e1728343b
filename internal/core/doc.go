// Package core implements the smaRTLy paper's two contributions on top
// of the substrate packages:
//
//   - SAT-based redundancy elimination (paper §II): a muxtree traversal
//     whose control-value oracle extracts a connectivity-filtered
//     sub-graph (internal/subgraph), applies inference rules
//     (internal/infer), and falls back to simulation or a CDCL SAT
//     solver (internal/sat, via internal/aig CNF encoding) to prove
//     controls constant along the path. Every simulation runs through a
//     sim.Cone, 64 lanes per word, with the AIG lowering's semantics:
//     whole-module signatures, simulated once per pass iteration,
//     refute most queries before any extraction, an exhaustive sweep
//     decides cones with few inputs, and the rest encode their cone
//     into a fresh budgeted solver. SatMuxPass; options in
//     SatMuxOptions.
//   - Muxtree restructuring (paper §III): case-statement muxtrees whose
//     controls compare a single selector against constants are rebuilt
//     from an Algebraic Decision Diagram (internal/bdd) with the greedy
//     terminal-type-minimizing heuristic, deleting the comparison
//     gates. RebuildPass; options in RebuildOptions.
//
// Together, "satmux; rebuild" replaces Yosys' opt_muxtree, exactly as
// in the paper's evaluation; the full flow runs the two in sequence
// inside its fixpoint, so the restructuring shortens the trees the next
// iteration's SAT stage sees.
//
// At init, this package registers the passes in the internal/opt flow
// registry under the script names "satmux", "rebuild" and "opt_egraph"
// (with typed option tables: satmux(conflicts=64, sim_filter=false),
// ...), and registers six named flows — the paper's four pipelines plus
// e-graph datapath rewriting and the register sweep:
//
//	yosys     fixpoint { opt_expr; opt_muxtree; opt_clean }
//	sat       fixpoint { opt_expr; satmux; opt_clean }
//	rebuild   fixpoint { opt_expr; opt_muxtree; rebuild; opt_clean }
//	datapath  fixpoint { opt_expr; opt_egraph; opt_clean }
//	seq       fixpoint { opt_expr; opt_dff; opt_clean }
//	full      fixpoint { opt_expr; satmux; rebuild; opt_egraph; opt_dff; opt_clean }
//
// Importing this package (directly, or via the repro facade or
// internal/harness) is what populates the registry.
package core
