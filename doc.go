// Package smartly is a Go reproduction of "SmaRTLy: RTL Optimization
// with Logic Inferencing and Structural Rebuilding" (DAC 2025): an RTL
// logic-optimization library that replaces Yosys' opt_muxtree pass
// with two stronger multiplexer-tree optimizations — SAT-based
// redundancy elimination and ADD-driven muxtree restructuring.
//
// The package is a facade over the implementation packages:
//
//	rtlil    — word-level netlist IR (Yosys RTLIL model), JSON IO,
//	           canonical content hashing
//	verilog  — synthesizable-subset Verilog frontend
//	opt      — pass framework, registry + flow script DSL, reports,
//	           baseline passes (opt_expr/muxtree/clean/reduce)
//	core     — the paper's passes (satmux, rebuild) and named flows
//	aig      — AIG mapping and the paper's area metric
//	cec      — combinational equivalence checking
//	genbench — benchmark generators reproducing the paper's evaluation
//	harness  — end-to-end experiment runner (tables, bench reports)
//	server   — smartlyd HTTP serving layer (optimization as a service)
//	cache    — content-addressed result cache behind the server
//
// # Quick start
//
//	design, _ := smartly.ParseVerilog(src)
//	m := design.Top()
//	before, _ := smartly.Area(m)
//	flow, _ := smartly.ParseFlow("fixpoint { opt_expr; satmux; rebuild; opt_clean }")
//	report, _ := flow.Run(m)
//	after, _ := smartly.Area(m)
//
// Flows compose the registered passes (see Passes) with typed options;
// NamedFlow("yosys"|"sat"|"rebuild"|"full") returns the paper's four
// pipelines, and "datapath" and "seq" the verified e-graph and register
// sweeps. Flow.Run/RunDesign take functional options (WithContext,
// WithWorkers, WithLogf, WithTimings) and return structured RunReports.
//
// # Content identity and serving
//
// Hash/HashDesign return the canonical content hash of a netlist —
// invariant under wire/cell insertion order and JSON key order — and
// Flow.Canonical the normalized form of a flow script. Together they
// key the result cache of the smartlyd daemon (cmd/smartlyd), which
// serves POST /v1/optimize over this facade; the client package and
// `smartly -remote` consume it. See ARCHITECTURE.md and docs/api.md.
package smartly

// The pass/flow reference in docs/passes.md is generated from the live
// registry; CI fails if it drifts (cmd/smartly-docgen -check).
//go:generate go run ./cmd/smartly-docgen -o docs/passes.md
