// Package opt provides the optimization-pass framework: the Pass
// interface and engine context, the process-wide pass/flow registry
// with its Yosys-style script DSL, structured run reporting, and the
// baseline Yosys-style passes the paper compares against.
//
// # Pass framework
//
// A Pass rewrites one module in place and reports what it did
// (Result). Passes run under a *Ctx, which carries the caller's
// context.Context (cancellation, deadlines), the worker budget for
// parallel stages, the run report and the progress and log sinks; a
// nil *Ctx is valid everywhere and behaves sequentially. RunScript executes a
// pass sequence with deterministic result merging; Fixpoint wraps a
// body of passes and repeats it until no pass reports a change. The
// fixpoint wrapper is the only pass that runs other passes: flows, not
// passes, compose the optimizations.
// ForEach is the shared bounded worker pool: results are bit-identical
// for every worker count.
//
// # Registry and flow scripts
//
// Register adds a PassSpec (name, summary, typed OptionSpecs, factory)
// to the process-wide registry at init time; RegisterFlow adds a named
// flow defined by a script. ParseFlow compiles a Yosys-style script —
//
//	opt_expr; satmux(conflicts=64); rebuild; opt_clean
//	fixpoint(iters=8) { opt_expr; satmux; rebuild; opt_clean }
//
// — into an immutable *Flow, validating pass names and option values
// against the registry and reporting errors with script:line:col
// positions. Flow.String round-trips the source; Flow.Canonical
// renders the normalized form (options sorted by key, canonical value
// spellings) used by the serving layer's cache keys.
//
// # Design shard scheduler
//
// Flow.RunDesign runs a flow over every module of a design through a
// bounded worker pool, splitting the Ctx worker budget between
// module-level fan-out and each module's intra-pass parallelism
// (SplitWorkers). Each module runs under its own child Ctx, so reports
// stay per-module while timings aggregate into the parent; results
// merge in design order and are bit-identical to a serial run for any
// budget.
//
// # Run reports
//
// Ctx collects per-pass counters, call counts, optional wall times and
// fixpoint iteration counts into a RunReport. With timings stripped
// the report is fully deterministic and comparable across runs and
// worker counts.
//
// # Baseline passes
//
// This package registers opt_expr (constant folding), opt_muxtree
// (path-local muxtree pruning, the Yosys baseline), opt_clean (dead
// logic removal) and opt_reduce (operand deduplication). The muxtree
// walker is shared with the smaRTLy passes in internal/core. The walk
// keeps the path facts (PathFacts) and asks its Oracle for select
// values; the baseline is the walk with no oracle, which answers from
// the facts alone, while smaRTLy plugs in an oracle backed by sub-graph
// extraction, inference rules, simulation and SAT.
package opt
