package smartly

import (
	"context"
	"fmt"
	"io"
	"time"

	_ "repro/internal/core" // registers the smaRTLy passes and the named flows
	"repro/internal/opt"
	"repro/internal/rtlil"
)

// Structured run reporting.
type (
	// RunReport is the structured result of a flow run: per-pass
	// counters and timings plus fixpoint iteration counts.
	RunReport = opt.RunReport
	// PassReport aggregates one pass' calls, counters and wall time.
	PassReport = opt.PassReport
	// FixpointReport records one fixpoint wrapper's iterations.
	FixpointReport = opt.FixpointReport
	// PassEvent is one live progress observation (a completed pass
	// invocation), streamed to a WithProgress sink while a run is in
	// flight.
	PassEvent = opt.PassEvent
)

// Pass registry surface: specs describe every pass constructible from a
// flow script.
type (
	// PassSpec describes a registered pass (name, summary, options).
	PassSpec = opt.PassSpec
	// OptionSpec describes one script option of a pass.
	OptionSpec = opt.OptionSpec
)

// Passes lists every registered optimization pass, sorted by name:
// the Yosys-style baselines (opt_expr, opt_muxtree, opt_clean,
// opt_reduce), the smaRTLy passes (satmux, rebuild), the e-graph
// rewriter (opt_egraph) and the register sweep (opt_dff).
func Passes() []PassSpec { return opt.Passes() }

// FixpointSpec describes the built-in fixpoint wrapper and its options,
// which Passes does not list.
func FixpointSpec() PassSpec { return opt.FixpointSpec() }

// Flow is a composable optimization flow: an ordered sequence of
// registered passes with typed options, optionally wrapped in fixpoint
// iteration. Build one with ParseFlow (script DSL) or NamedFlow, then
// execute it with Run or RunDesign. A Flow is immutable and safe to
// reuse across concurrent runs.
type Flow struct {
	flow *opt.Flow
}

// ParseFlow parses a Yosys-style flow script, e.g.
//
//	opt_expr; satmux(conflicts=64); rebuild; opt_clean
//	fixpoint(iters=8) { opt_expr; satmux; rebuild; opt_clean }
//
// Grammar:
//
//	flow  := step { ";" step }
//	step  := pass [ "(" key=value {"," key=value} ")" ] [ "{" flow "}" ]
//
// A "{ flow }" body is only valid on the fixpoint wrapper. Unknown
// passes and options are rejected with script positions; see Passes for
// the registry.
func ParseFlow(script string) (*Flow, error) {
	f, err := opt.ParseFlow(script)
	if err != nil {
		return nil, err
	}
	return &Flow{flow: f}, nil
}

// NamedFlow returns a registered named flow. The built-in names are the
// paper's four pipelines — "yosys", "sat", "rebuild" and "full" — plus
// "datapath" and "seq"; see FlowNames.
func NamedFlow(name string) (*Flow, error) {
	f, err := opt.NamedFlow(name)
	if err != nil {
		return nil, err
	}
	return &Flow{flow: f}, nil
}

// FlowNames lists the registered named flows, sorted.
func FlowNames() []string { return opt.FlowNames() }

// String renders the flow in script syntax; ParseFlow(f.String())
// round-trips.
func (f *Flow) String() string {
	if f == nil {
		return ""
	}
	return f.flow.String()
}

// Canonical renders the flow in normalized script syntax — options
// sorted by key with canonical value spellings — the form used in
// serving-layer cache keys. Flows that differ only in option order,
// value spelling or whitespace render identically.
func (f *Flow) Canonical() string {
	if f == nil {
		return ""
	}
	return f.flow.Canonical()
}

// runConfig collects the functional options of Run/RunDesign.
type runConfig struct {
	ctx      context.Context
	workers  int
	logf     func(format string, args ...any)
	progress func(PassEvent)
	timings  bool
}

// RunOption tunes a flow run.
type RunOption func(*runConfig)

// WithContext attaches a context for cancellation and deadlines. A
// canceled run returns the context error; the rewrites applied before
// cancellation are each individually sound, so the module stays
// equivalent to the input.
func WithContext(ctx context.Context) RunOption {
	return func(c *runConfig) { c.ctx = ctx }
}

// WithWorkers bounds the total goroutines of parallel stages. For Run
// this is the intra-pass budget (SAT-mux query batches); for RunDesign
// the budget is split between concurrently optimized modules and each
// module's intra-pass stages: as many modules at once as the budget
// allows, the rest of the budget shared among them. 0 means all cores;
// 1 forces fully sequential execution. Results are bit-identical for
// every value.
func WithWorkers(n int) RunOption {
	return func(c *runConfig) { c.workers = n }
}

// WithLogf attaches a sink for structured progress lines (per-pass
// timings as they complete). nil discards them.
func WithLogf(logf func(format string, args ...any)) RunOption {
	return func(c *runConfig) { c.logf = logf }
}

// WithProgress attaches a sink for structured per-pass progress events,
// emitted as each pass invocation completes while the run is still in
// flight (RunDesign labels events with the module name). Calls are
// serialized. Events carry wall-clock durations regardless of
// WithTimings — they are live telemetry, never part of the
// deterministic report. nil discards them.
func WithProgress(fn func(PassEvent)) RunOption {
	return func(c *runConfig) { c.progress = fn }
}

// WithTimings includes wall-clock durations in the returned RunReport:
// per-pass times and, for smartly_satmux, the busy time of each oracle
// stage (PassReport.Stages). Off by default so that reports are fully
// deterministic and can be compared across runs and worker counts.
func WithTimings() RunOption {
	return func(c *runConfig) { c.timings = true }
}

func newRunConfig(opts []RunOption) runConfig {
	cfg := runConfig{ctx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.ctx == nil {
		cfg.ctx = context.Background()
	}
	return cfg
}

// Run executes the flow on the module in place and returns the
// structured run report.
func (f *Flow) Run(m *Module, opts ...RunOption) (RunReport, error) {
	cfg := newRunConfig(opts)
	if f == nil || f.flow == nil {
		return RunReport{}, fmt.Errorf("smartly: nil flow")
	}
	ec := opt.NewCtx(cfg.ctx, opt.Config{Workers: cfg.workers, Logf: cfg.logf, Progress: cfg.progress})
	start := time.Now()
	res, err := f.flow.Run(ec, m)
	wall := time.Since(start)
	rep := ec.Report()
	rep.Changed = res.Changed
	if cfg.timings {
		rep.Duration = wall
	} else {
		rep.StripTimings()
	}
	return rep, err
}

// RunDesign executes the flow over every module of the design through
// the engine's design shard scheduler: modules fan out to a bounded
// worker pool, with the WithWorkers budget split between module-level
// and intra-pass parallelism. Modules are disjoint netlists and reports
// merge in design order, so the optimized design and the per-module
// reports are bit-identical to a serial run for any budget. It returns
// the per-module reports keyed by module name and the first error
// encountered.
func (f *Flow) RunDesign(d *Design, opts ...RunOption) (map[string]RunReport, error) {
	cfg := newRunConfig(opts)
	if f == nil || f.flow == nil {
		return nil, fmt.Errorf("smartly: nil flow")
	}
	ec := opt.NewCtx(cfg.ctx, opt.Config{Workers: cfg.workers, Logf: cfg.logf, Progress: cfg.progress})
	runs, err := f.flow.RunDesign(ec, d)
	out := make(map[string]RunReport, len(runs))
	for i := range runs {
		if runs[i].Module == nil {
			continue // module skipped by a canceled run; err carries the cause
		}
		rep := runs[i].Report
		if !cfg.timings {
			rep.StripTimings()
		}
		out[runs[i].Module.Name] = rep
	}
	return out, err
}

// Design IO on the facade, so tools need not reach into internal/rtlil.

// ReadJSON reads a design from the Yosys-compatible JSON netlist format
// (as written by WriteJSON).
func ReadJSON(r io.Reader) (*Design, error) { return rtlil.ReadJSON(r) }

// WriteJSON writes the design in the Yosys-compatible JSON netlist
// format.
func WriteJSON(w io.Writer, d *Design) error { return rtlil.WriteJSON(w, d) }

// WriteVerilog writes the module as synthesizable Verilog.
func WriteVerilog(w io.Writer, m *Module) error { return rtlil.WriteVerilog(w, m) }

// Stats summarizes the contents of a module (wires, cells by type,
// muxes, connections).
type Stats = rtlil.Stats

// CollectStats gathers cell-type counts and netlist size figures.
func CollectStats(m *Module) Stats { return rtlil.CollectStats(m) }
